"""In-process runs of the CLI, untraced and traced, and the per-layer metrics.

The traced run replaces each layer's public function under the name its
caller looks it up by (the modules import them with ``from ... import``),
so the program itself is unchanged. Each wrapper records a span (name,
parent, start, end) in memory; self times and counts are computed after the
run, outside every span, from the spans and the values the wrapped calls
returned.

Which end-to-end metric each layer should move, and where:

* ``io.parse`` / ``io.emit``: ``wall_s`` and ``peak_rss_mb`` on election
  (13.6 MB of JSON); nothing on sweep (~700 bytes out).
* ``model`` counts bound what deduplicating rankings can save: the distinct
  ratio is ~0.03 on election and 1.0 on retrieval and sweep.
* ``support.matrices`` / ``support.sets``: ``wall_s`` and ``pairs_per_s``
  on retrieval and sweep, where they are most of the run, and on election.
* ``scores.score``: ``wall_s`` on election; 12 calls on sweep.
* ``outliers``: ``wall_s`` on election only.
* ``cli``: ``setup_s`` on every workload.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import time
from dataclasses import dataclass, field

import numpy as np

from rank_consensus import cli, outliers, scores

# (module, attribute) -> span name; one span name per layer boundary
WRAPPED = {
    (cli, "parse_rankings"): "io.parse",
    (cli, "score"): "scores.score",
    (outliers, "score"): "scores.score",
    (scores, "support_matrices_fast"): "support.matrices",
    (scores, "support_sets"): "support.sets",
    (cli, "detect_outliers"): "outliers.detect",
    (cli, "remove_and_rescore"): "outliers.rescore",
    (cli, "emit_report"): "io.emit",
    (cli, "emit_patterns"): "io.emit",
    (cli, "emit_sweep"): "io.emit",
}
ROOT = "cli"
SELF_TIMED = sorted(set(WRAPPED.values()) | {ROOT})


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    args: tuple = ()
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans of one run, in call order. Spans keep their call's arguments
    and result, so counts can be read off them once the run is over."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.args, span.result = args, result
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name, the summed duration minus what child spans cover.

        Calls are sequential, so children never overlap and the covered
        part is the sum of their durations.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        totals = dict.fromkeys(SELF_TIMED, 0.0)
        for s, t in zip(self.spans, own):
            totals[s.name] += t
        return totals


@contextlib.contextmanager
def _installed(tracer: Tracer):
    saved = {key: getattr(*key) for key in WRAPPED}
    try:
        for (module, attr), name in WRAPPED.items():
            setattr(module, attr, tracer.wrap(name, saved[module, attr]))
        yield
    finally:
        for (module, attr), fn in saved.items():
            setattr(module, attr, fn)


@dataclass
class InProcessRun:
    status: int
    out: bytes | None
    digest: str
    total_s: float
    tracer: Tracer | None = None


def run_cli(argv: list[str], tracer: Tracer | None = None) -> InProcessRun:
    """Call ``cli.main(argv)`` in this process, capturing stdout.

    With a tracer, every wrapped layer and ``main`` itself record spans.
    """
    gc.collect()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            start = time.perf_counter()
            status = cli.main(argv)
            total = time.perf_counter() - start
        else:
            with _installed(tracer):
                status = tracer.wrap(ROOT, cli.main)(argv)
            total = tracer.spans[0].duration
    out = buf.getvalue().encode("utf-8")
    return InProcessRun(status, out, hashlib.sha256(out).hexdigest(), total, tracer)


def _pattern_count(matrices) -> int:
    # ordered patterns (x, y), x at or before y, that one matrices call
    # looks up; rankings with the same item order contribute the same ones
    orders = {m.items for m in matrices}
    return len({(o[i], o[j]) for o in orders for i in range(len(o)) for j in range(i, len(o))})


def layer_metrics(run: InProcessRun) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, all but ``trace.overhead_s``,
    which needs untraced runs to compare with.

    Counts sum over every call of a layer, so a command that scores twice
    (``--remove``) or twelve times (``sweep``) shows that repetition.
    """
    tracer = run.tracer
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    own = tracer.self_times()

    parsed = by_name.get("io.parse", [])
    rset = parsed[0].result if parsed else None
    n = len(rset) if rset is not None else 0
    distinct = len(set(rset.rankings)) if rset is not None else 0

    matrix_calls = by_name.get("support.matrices", [])
    entries = supported = patterns = 0
    for s in matrix_calls:
        for mat in s.result:
            entries += mat.m * (mat.m + 1) // 2
            supported += int(np.count_nonzero(mat.supported))
        patterns += _pattern_count(s.result)
    set_pairs = sum(len(r.pairs) for s in by_name.get("support.sets", [])
                    for r in s.result.per_ranking)
    detected = by_name.get("outliers.detect", [])

    metrics = {f"{name}.self_s": (own[name], "s") for name in SELF_TIMED}
    metrics.update({
        "io.parse.bytes_in": (sum(os.path.getsize(s.args[0]) for s in parsed), "B"),
        "io.parse.rankings": (n, "count"),
        "io.emit.bytes_out": (sum(len(s.result.encode("utf-8"))
                                  for s in by_name.get("io.emit", [])), "B"),
        "model.universe": (len(rset.universe) if rset is not None else 0, "count"),
        "model.rankings_distinct": (distinct, "count"),
        "model.distinct_ratio": (distinct / n if n else 0.0, "ratio"),
        "support.matrices.calls": (len(matrix_calls), "count"),
        "support.entries": (entries, "count"),
        "support.entries_supported": (supported, "count"),
        "support.supported_ratio": (supported / entries if entries else 0.0, "ratio"),
        "support.patterns_distinct": (patterns, "count"),
        "support.pattern_reuse": (entries / patterns if patterns else 0.0, "ratio"),
        "support.sets.pairs": (set_pairs, "count"),
        "scores.score.calls": (len(by_name.get("scores.score", [])), "count"),
        "outliers.flagged": (sum(s.result.n_flagged for s in detected), "count"),
        "cli.total_s": (run.total_s, "s"),
    })
    return metrics
