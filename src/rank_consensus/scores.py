"""Support matrices and the consensus scores reduced from them.

A pattern is a single item ``x`` or an ordered pair ``(x, y)``; its support
is the number of rankings in the set that contain it. Each ranking gets a
lower-triangular matrix over its own items whose entry ``[j, i]`` (``i <= j``
in the ranking's item order) certifies that the pattern formed by its i-th
and j-th items reaches the support threshold ``q``. In weighted mode the
certified entries carry ``gamma ** h`` (diagonal, ``h`` the item's position
deviation from its set-wide mean) or ``lam ** d`` (off-diagonal, ``d`` the
pair's gap deviation from its set-wide mean gap).

For ranking ``l`` with ``m`` items, ``kappa1`` is the matrix trace over
``m`` (share of its items whose membership reaches the threshold) and
``kappa2`` is the below-diagonal sum over ``m * (m - 1) / 2`` (share of its
ordered pairs that reach it). Overall scores average the per-ranking values.
With weights ``gamma``/``lam`` below 1, certified entries decay with the
distance between the owner ranking's placement and the set-wide mean
placement, so the scores reward agreement *and* proximity.

Everything here reads the set's pattern table, which holds what depends on
the set alone, and the parameters; so scoring one set at many grid points,
as ``sweep`` does, pays per point only for thresholding, weighting, filling
and reducing. :func:`fill` yields read-only ``(k, m, m)`` float batches,
each thresholded and weighted from one slice of the table; :func:`score`
reduces each as it is filled and drops it, scoring every distinct ranking
once, and vote ``l`` reads ``per_type[type_of[l]]``. :func:`sets` reads the
supported patterns off the counts with no matrix, sorted as printed; a
report builds them only when first read. :func:`support_matrices_fast` is
the one per-vote matrix view, for tests and inspection; no command calls
it. All of them agree with the full-scan oracle in
:mod:`~rank_consensus.reference`.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import model
from .errors import ParameterError
from .model import (PatternTable, RankingSet, RankingSupport, SupportMatrix, SupportSets,
                    check_params, lower_triangle)
# support_sets is not called here, but perfbench/spans.py traces it under
# this module's name
from .reference import support_sets  # noqa: F401


@dataclass(frozen=True)
class ScoreParams:
    """Threshold and weight configuration for a scoring run."""

    q: int
    gamma: float = 1.0
    lam: float = 1.0


def q_from_fraction(frac: Fraction | str | float, n_rankings: int) -> int:
    """Map a threshold fraction to ``q = ceil(frac * n)`` without float error.

    Accepts a string or Fraction; floats are routed through ``str`` first so
    e.g. ``0.67`` means the decimal 67/100, not its binary neighbour (whose
    ceil can come out one too high). A string without ``/`` is read as a
    ``Decimal``, which keeps ``1e-99999999`` as digits and an exponent where
    ``Fraction`` would build ``10**99999999``.
    """
    text = str(frac) if isinstance(frac, float) else frac
    try:
        value = Decimal(text) if isinstance(text, str) and "/" not in text else Fraction(text)
        in_range = 0 < value <= 1  # a Decimal NaN raises here
    except (ValueError, ArithmeticError):
        raise ParameterError(
            f"threshold fraction must be a number in (0, 1], got {frac!r}"
        ) from None
    if not in_range:
        # quoted as given: the value of e.g. "1e400" prints 401 digits
        raise ParameterError(f"threshold fraction must be in (0, 1], got {frac!r}")
    if isinstance(value, Decimal):
        if value.adjusted() < -len(str(n_rankings)):
            return 1  # value < 10**-len(str(n)) < 1/n
        value = Fraction(value)
    scaled = value * n_rankings
    return int(math.ceil(scaled)) if scaled.denominator > 1 else int(scaled)


@dataclass(frozen=True, eq=False)
class ConsensusReport:
    """Everything a scoring run produced, in one place.

    Scores are held once per distinct ranking: ``kappa1``/``kappa2`` are
    indexed like ``rset.types``, and ``type_of[l]`` is the type of vote
    ``l``. Besides them a report holds just the scored ``rset`` and the
    ``params``; the supported-pattern ``sets``, held per distinct ranking
    like the scores, are built from those two the first time they are read,
    so runs whose output never prints them neither pay for them nor keep them.
    ``original_indices`` records, for a report of
    :func:`~rank_consensus.outliers.remove_and_rescore`, the index in the
    original set of each vote it scored; it is ``None`` for a report of a
    whole set.
    """

    params: ScoreParams
    overall_kappa1: float
    overall_kappa2: float
    rset: RankingSet
    kappa1: np.ndarray
    kappa2: np.ndarray
    original_indices: tuple[int, ...] | None = None

    @property
    def n_rankings(self) -> int:
        return len(self.rset)

    @property
    def type_of(self) -> tuple[int, ...]:
        return self.rset.type_of

    @cached_property
    def per_type(self) -> tuple[tuple[int, int, float, float, bool], ...]:
        """``(m, n_pairs, kappa1, kappa2, singleton)`` of each distinct ranking;
        ``singleton`` marks a one-item ranking, whose ``kappa2`` is 0 by
        convention (it has no pairs to certify)."""
        rows = []
        for ranking, kappa1, kappa2 in zip(self.rset.types, self.kappa1.tolist(),
                                           self.kappa2.tolist()):
            m = len(ranking)
            n_pairs = m * (m - 1) // 2
            rows.append((m, n_pairs, kappa1, kappa2, not n_pairs))
        return tuple(rows)

    @cached_property
    def sets(self) -> SupportSets:
        return sets(self.rset, self.params.q)  # the module's function


def score(rset: RankingSet, params: ScoreParams) -> ConsensusReport:
    """Score every ranking in the set and average.

    Each distinct ranking is scored once, from a batch of matrices of its
    length; batches are filled one at a time and dropped once reduced. The
    averages sum every vote's scores with ``math.fsum``.
    """
    check_params(rset, params.q, params.gamma, params.lam)
    kappa1 = np.empty(len(rset.types))
    kappa2 = np.zeros(len(rset.types))  # 0 by convention without pairs
    for group, _, entries in fill(rset.pattern_stats, params.q, params.gamma, params.lam):
        m = entries.shape[1]
        n_pairs = m * (m - 1) // 2
        trace = np.trace(entries, axis1=1, axis2=2)
        kappa1[group] = trace / m
        if n_pairs:
            kappa2[group] = (entries.sum(axis=(1, 2)) - trace) / n_pairs
    for a in (kappa1, kappa2):
        a.flags.writeable = False
    n = len(rset)
    return ConsensusReport(
        params=params,
        overall_kappa1=math.fsum(np.repeat(kappa1, rset.votes).tolist()) / n,
        overall_kappa2=math.fsum(np.repeat(kappa2, rset.votes).tolist()) / n,
        rset=rset,
        kappa1=kappa1,
        kappa2=kappa2,
    )


def fill(table: PatternTable, q: int, gamma: float,
         lam: float) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The weight matrices of the table's distinct rankings, batch by batch.

    Yields ``(group, supported, entries)``: the type indices of ``k`` distinct
    rankings of one length ``m``, the ``(k, m(m+1)/2)`` mask of their entries
    that reach ``q``, and their fresh read-only ``(k, m, m)`` weight matrices,
    filled by fancy indexing from the masked weights. Each batch is
    thresholded and weighted from its own slice of the counts and of the
    deviation index, so nothing the size of the table is made; the first
    weighted call ranks the deviations. Batches split under
    ``model._STEP_BYTES`` as it is when this is called. Parameters unchecked.
    """
    weighted = (gamma, lam) != (1.0, 1.0)
    if weighted:
        index = table.deviations[1]
        pair = None if lam == 1.0 else table.weights(lam)
        item = None if gamma == 1.0 else table.weights(gamma)
    for m, group, lo, _ in table.by_length:
        rows, cols = lower_triangle(m)
        diag = np.flatnonzero(rows == cols)
        step = max(1, model._STEP_BYTES // (9 * m * m))  # 8 + 1 bytes per cell
        for start in range(0, len(group), step):
            part = group[start:start + step]
            cells = slice(lo + start * len(rows), lo + (start + len(part)) * len(rows))
            shape = (len(part), len(rows))
            supported = (table.count[cells] >= q).reshape(shape)
            if weighted:
                at = index[cells].reshape(shape)
                weights = np.ones(shape) if pair is None else pair[at]
                weights[:, diag] = 1.0 if item is None else item[at[:, diag]]
                weights *= supported  # w * 1.0 is w, and unsupported is 0.0
            else:
                weights = supported.astype(float)
            entries = np.zeros((len(part), m, m))
            entries[:, rows, cols] = weights
            entries.flags.writeable = False
            yield part, supported, entries


def sets(rset: RankingSet, q: int) -> SupportSets:
    """The supported patterns of every distinct ranking of ``rset``, read off
    its table's entries that reach the threshold: one ``np.nonzero`` per
    length, and each ranking's patterns sorted once."""
    table = rset.pattern_stats
    per_type: list[RankingSupport] = [None] * len(rset.types)
    for m, group, lo, hi in table.by_length:
        rows, cols = lower_triangle(m)
        k, cell = np.nonzero((table.count[lo:hi] >= q).reshape(len(group), len(rows)))
        bounds = np.searchsorted(k, np.arange(len(group) + 1)).tolist()
        firsts, seconds = cols[cell].tolist(), rows[cell].tolist()
        for t, a, b in zip(group.tolist(), bounds, bounds[1:]):
            items = rset.types[t].items
            cells = list(zip(firsts[a:b], seconds[a:b]))
            per_type[t] = RankingSupport(
                singles=tuple(sorted(items[i] for i, j in cells if i == j)),
                pairs=tuple(sorted((items[i], items[j]) for i, j in cells if i < j)),
            )
    return SupportSets(
        singles=tuple(sorted(set().union(*(p.singles for p in per_type)))),
        pairs=tuple(sorted(set().union(*(p.pairs for p in per_type)))),
        per_type=tuple(per_type),
    )


def support_matrices_fast(rset: RankingSet, q: int, *, gamma: float = 1.0,
                          lam: float = 1.0) -> list[SupportMatrix]:
    """All per-ranking support matrices, read off the set's pattern table.

    Entrywise identical to running
    :func:`~rank_consensus.reference.support_matrix_naive` for every
    ranking. Duplicate rankings share one read-only ``entries`` and
    ``supported`` array.
    """
    check_params(rset, q, gamma, lam)
    shared: list[tuple] = [()] * len(rset.types)
    for group, supported, entries in fill(rset.pattern_stats, q, gamma, lam):
        rows, cols = lower_triangle(entries.shape[1])
        mask = np.zeros(entries.shape, dtype=bool)
        mask[:, rows, cols] = supported
        mask.flags.writeable = False
        for t, e, s in zip(group.tolist(), entries, mask):
            shared[t] = (rset.types[t].items, e, s)
    return [SupportMatrix(l, *shared[t]) for l, t in enumerate(rset.type_of)]
