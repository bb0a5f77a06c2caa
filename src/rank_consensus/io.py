"""Reading ranking sets and writing reports; rankings are only read, never
written back.

Two input formats, each read line by line, where a line ends at ``\\n``,
``\\r\\n`` or ``\\r`` and nowhere else:

* ``lines`` — one ranking per line, ``#`` starting a comment: its items in
  preference order, separated by ``,``, a tie group written as one item
  ``{x,y}``: ``b,{c,d},a``. Blanks around items are dropped; an item is
  never empty, holds none of ``,{}`` and appears once; groups do not nest.
* ``preflib`` — preference-library election files: ``#``-prefixed metadata,
  whose ``ALTERNATIVE NAME i`` entries rename numeric items, come before
  the first vote and give each index, and each name, once and non-empty,
  then ``count: order`` rows whose orders use the same syntax and are
  repeated ``count`` times.

Either format holds at most :data:`MAX_VOTES` votes per file.

Reports serialise to JSON (full-precision floats plus 2-decimal display
strings) or CSV. Both are deterministic: equal inputs give byte-equal
output. JSON is laid out here, byte for byte as ``json.dumps`` lays it out
with ``indent=2``. Supported patterns are printed in the sorted order the
report holds them in. Votes that repeat a ranking repeat its per-vote rows,
so each distinct ranking's row is rendered once, and each of the set's
``runs`` (a preflib ``count:`` line is one) becomes a single join of that
text over the votes' indices, made once per report. A report is returned as
one string, joined from these pieces; the CLI writes it out in slices.
"""
from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from types import SimpleNamespace

from .baselines import PairwiseAverages
from .errors import ParameterError, ParseError
from .model import Ranking, RankingSet, RankingSupport, SupportSets
from .outliers import OutlierReport
from .scores import ConsensusReport

# ---------------------------------------------------------------------------
# parsing

# most votes one file may hold, in either format: a lines file's rankings, or
# the sum of a preflib file's vote counts. Scores and flags are held once
# per distinct ranking, but a report still prints one row per vote, and its
# text is held twice while it is joined from its pieces. At 200 000 votes
# over the README's 4 rankings at q = N/2, `score` peaks at 48 MB as CSV
# (7 MB of text) and `outliers --remove` at 72 MB (15 MB); as JSON they peak
# at 440 MB (213 MB of text) and 280 MB (121 MB), and `patterns` peaks at
# 137 MB as CSV (53 MB), each the process's own peak from `os.wait4`. The
# JSON of `score` would so need about 2.2 GB at this cap
MAX_VOTES = 10**6


def _parse_ranking(text: str, where: str, names: dict[str, str]) -> list[tuple[str, ...]]:
    """The tie blocks of one ranking's text, as tuples, or a
    :class:`ParseError` for its first fault from the left. Each item is the
    ``str`` that ``names`` keeps for its text, the text itself added on first
    sight, so a file's rankings share one object per item name, and a
    preflib file's declared indices come back as their names."""
    if not text.strip():
        raise ParseError(f"{where}: empty ranking")
    blocks: list[tuple[str, ...]] = []
    # the plain items before a '{' or the end, each after a ',' but the first
    run, brace, rest = text.partition("{")
    items = run.split(",")
    while True:
        last = len(items) - 1
        for k, item in enumerate(items):
            if "}" in item:
                raise ParseError(f"{where}: stray '}}'")
            token = item.strip()
            if token:
                if k == last and brace:
                    raise ParseError(f"{where}: '{{' must start an item")
                blocks.append((names.setdefault(token, token),))
            elif k < last:
                raise ParseError(f"{where}: empty item")
            elif not brace:
                raise ParseError(f"{where}: trailing ','")
        if not brace:
            return blocks
        inner, close, rest = rest.partition("}")
        if not close:
            raise ParseError(f"{where}: unclosed '{{'")
        if "{" in inner:
            raise ParseError(f"{where}: nested '{{'")
        tokens = [t.strip() for t in inner.split(",")]
        if not all(tokens):
            raise ParseError(f"{where}: empty item in tie group")
        blocks.append(tuple(map(names.setdefault, tokens, tokens)))
        # a group is followed by blanks, then a ',' or the end
        run, brace, rest = rest.partition("{")
        lead, *items = run.split(",")
        if lead.strip() or (brace and not items):
            raise ParseError(f"{where}: expected ',' before {(lead.strip() or '{')[0]!r}")


def _ranking(blocks: list[tuple[str, ...]], where: str) -> Ranking:
    try:
        return Ranking(blocks)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _lines(text: str) -> list[str]:
    """``text`` split at ``\\n``, ``\\r\\n`` and ``\\r``, the line ends that
    ``open()`` reads. ``str.splitlines`` also splits at ``\\v``, ``\\f``,
    ``\\x1c``-``\\x1e``, U+0085, U+2028 and U+2029."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_lines(text: str, source: str) -> RankingSet:
    rankings = []
    names: dict[str, str] = {}
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if len(rankings) == MAX_VOTES:
            raise ParseError(f"{where}: this ranking brings the file's total "
                             f"to {MAX_VOTES + 1}, above the limit of {MAX_VOTES}")
        rankings.append(_ranking(_parse_ranking(line, where, names), where))
    if not rankings:
        raise ParseError(f"{source}: no rankings found")
    return RankingSet(rankings)


def _clip(text: str, quote=str) -> str:
    # a count or a name as a message quotes it: its first 20 characters at most
    return quote(text) if len(text) <= 20 else f"{quote(text[:20])}... ({len(text)} characters)"


def _parse_preflib(text: str, source: str) -> RankingSet:
    # each alternative's index to its name, and from the first vote, which
    # closes the declarations, each other token to itself
    names: dict[str, str] = {}
    named: dict[str, str] = {}  # each name back to its index
    rankings: list[Ranking] = []
    n_votes = 0
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        where = f"{source}:{lineno}"
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition(":")
            if sep and key.strip().upper().startswith("ALTERNATIVE NAME"):
                if rankings:
                    raise ParseError(f"{where}: ALTERNATIVE NAME after the first vote")
                index = key.strip()[len("ALTERNATIVE NAME"):].strip()
                name = value.strip()
                if not index:
                    raise ParseError(f"{where}: ALTERNATIVE NAME without an index")
                if not name:
                    raise ParseError(f"{where}: alternative {_clip(index)} has an empty name")
                if index in names:
                    raise ParseError(f"{where}: alternative {_clip(index)} is named twice, "
                                     f"first as {_clip(names[index], repr)}")
                earlier = named.setdefault(name, index)
                if earlier != index:
                    raise ParseError(f"{where}: alternative {_clip(index)} is named "
                                     f"{_clip(name, repr)}, as alternative {_clip(earlier)} is")
                names[index] = name
            continue
        count_text, sep, order_text = line.partition(":")
        if not sep:
            raise ParseError(f"{where}: expected 'count: order'")
        count_text = count_text.strip()
        digits = count_text.removeprefix("-")
        # int() also reads "1_000", "+3" and non-ASCII digits
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"{where}: vote count {_clip(count_text, repr)} is not an integer")
        # and refuses more than 4 300 digits, leading zeros included, so a
        # count is sized by its significant digits before int() reads them
        significant = digits.lstrip("0")
        if digits != count_text or not significant:
            raise ParseError(f"{where}: vote count must be positive, got {_clip(count_text)}")
        if len(significant) > len(str(MAX_VOTES)):
            raise ParseError(f"{where}: vote count {_clip(significant)} is above "
                             f"the limit of {MAX_VOTES}")
        count = int(significant)
        n_votes += count
        if n_votes > MAX_VOTES:
            raise ParseError(f"{where}: vote count {count} brings the file's total "
                             f"to {n_votes}, above the limit of {MAX_VOTES}")
        blocks = _parse_ranking(order_text, where, names)
        try:
            ranking = Ranking(blocks)
        except ValueError as exc:
            # a fault of the tokens as written comes first
            _ranking(_parse_ranking(order_text, where, {}), where)
            raise ParseError(f"{where}: after renaming: {exc}") from exc
        rankings.extend([ranking] * count)
    if not rankings:
        raise ParseError(f"{source}: no rankings found")
    return RankingSet(rankings)


_PARSERS = {"lines": _parse_lines, "preflib": _parse_preflib}


def parse_rankings_text(text: str, fmt: str = "lines", source: str = "<string>") -> RankingSet:
    try:
        parser = _PARSERS[fmt]
    except KeyError:
        raise ParameterError(f"unknown input format {fmt!r}; expected one of {sorted(_PARSERS)}") from None
    return parser(text, source)


def parse_rankings(path: str | Path, fmt: str = "lines") -> RankingSet:
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 at byte offset {exc.start}") from None
    # a leading byte-order mark marks the encoding and is not part of the
    # first line, as "utf-8-sig" reads it; offsets above still count it
    return parse_rankings_text(text.removeprefix("\ufeff"), fmt, source=str(path))


# ---------------------------------------------------------------------------
# emission

_FORMATS = ("json", "csv")


def _disp(value: float) -> str:
    return f"{value:.2f}"


def _check_fmt(fmt: str) -> None:
    if fmt not in _FORMATS:
        raise ParameterError(f"unknown output format {fmt!r}; expected one of {list(_FORMATS)}")


@dataclass(frozen=True)
class _Rows:
    """One row per vote: a set's run ``(t, start, stop)`` gives its votes
    ``fields(keys[t])`` after their indices, the text ``index[i]`` for vote
    ``i``; ``fields`` is called once per type."""

    runs: Sequence[tuple[int, int, int]]
    index: Sequence[str]
    keys: Sequence
    fields: Callable


def _add_rows(rows: _Rows, layout: Callable[[object], list[str]], between: str,
              out: list[str]) -> None:
    """Append every vote's row to ``out``, with ``between`` between rows.

    ``layout(fields)`` gives the parts of a type's row, once per type, and
    vote ``i``'s row is ``rows.index[i].join(parts)``. Each run is a single
    join over its votes' indices.
    """
    laid_out = [layout(rows.fields(key)) for key in rows.keys]
    sep = ""
    for t, start, stop in rows.runs:
        parts = laid_out[t]
        indices = rows.index[start:stop]
        if len(parts) == 2:
            head, tail = parts
            out += (sep, head, (tail + between + head).join(indices), tail)
        else:
            out += (sep, between.join(map(str.join, indices, repeat(parts))))
        sep = between


def _float(value: float) -> str:
    # json.dumps spells NaN and the infinities its own way
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# json.dumps(value) for a value of exactly one of these types
_SCALARS: dict[type, Callable[..., str]] = {
    str: _encode_str,
    int: int.__repr__,
    float: _float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _scalar(value) -> str:
    """``json.dumps(value)`` for a value that is not a dict, list or tuple."""
    # json.dumps itself for the rest (subclasses, or a TypeError): a scalar
    # reads the same with an indent as without
    return _SCALARS.get(type(value), json.dumps)(value)


def _flat(value: list | tuple, inner: str, pad: str) -> str | None:
    """The text of a list of scalars, or of a list of non-empty lists of
    strings such as the support pairs, laid out as :func:`_render` does;
    ``None`` for any other list."""
    if not value:
        return "[]"
    kinds = set(map(type, value))
    if kinds <= _SCALARS.keys():
        scalar = _SCALARS[kinds.pop()] if len(kinds) == 1 else _scalar
        return "[" + inner + ("," + inner).join(map(scalar, value)) + pad + "]"
    if (kinds <= {list, tuple} and all(value)
            and set(map(type, chain.from_iterable(value))) == {str}):
        deeper = inner + "  "
        items = map(("," + deeper).join, map(map, repeat(_encode_str), value))
        between = inner + "]," + inner + "[" + deeper
        return "[" + inner + "[" + deeper + between.join(items) + inner + "]" + pad + "]"
    return None


def _render(value, out: list[str], depth: int = 0) -> None:
    """Append the text of ``value`` as ``json.dumps`` gives it with
    ``indent=2``, read nested ``depth`` levels deep, to ``out`` in pieces;
    a :class:`_Rows` reads as its list of ``{"index": i, **fields}`` rows.

    The layout is done here, without the pure-Python encoder that
    ``json.dumps`` runs for an indent: a list of scalars is one join, and a
    list of string lists one join per item and one over them. Each
    distinct ranking's row of a :class:`_Rows` is laid out once.
    """
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in value.items():
            text = _SCALARS.get(type(item))
            if text is None:
                out += (sep, _encode_str(key), ": ")
                _render(item, out, depth + 1)
            else:
                out += (sep, _encode_str(key), ": ", text(item))
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        text = _flat(value, inner, pad)
        if text is not None:
            out.append(text)
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _render(item, out, depth + 1)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, _Rows):
        head = "{" + inner + '  "index": '

        def layout(fields: dict) -> list[str]:
            # the row after its index, one level deeper than this list
            text: list[str] = []
            _render(fields, text, depth + 1)
            return [head, "," + "".join(text)[1:]]

        out.append("[" + inner)
        _add_rows(value, layout, "," + inner, out)
        out.append(pad + "]")
    else:
        out.append(_scalar(value))


def _json(payload) -> str:
    out: list[str] = []
    _render(payload, out)
    out.append("\n")
    return "".join(out)


def _csv_lines(rows: Iterable[list]) -> list[str]:
    """Each row as ``csv`` writes it, newline included (the writer makes
    one ``write`` call per row)."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(rows)
    return lines


def _csv(rows: Iterable[list]) -> str:
    return "".join(_csv_lines(rows))


def _csv_parts(cells: list[list]) -> list[str]:
    # the parts of a vote's CSV lines, each line after the vote's index
    return ["", *("," + line for line in _csv_lines(cells))]


def _csv_table(head: str, rows: _Rows) -> str:
    """``head``, then the CSV lines of every vote; ``fields(key)`` gives
    the cells of a vote's lines after its index."""
    out = [head]
    _add_rows(rows, _csv_parts, "", out)
    return "".join(out)


def _sets_payload(report: ConsensusReport, index: list[str]) -> dict:
    sets = report.sets
    return {
        "singles": sets.singles,
        "pairs": sets.pairs,
        "per_ranking": _Rows(report.rset.runs, index, sets.per_type, _support_fields),
    }


def _pattern_cells(support: RankingSupport | SupportSets) -> list[list]:
    return [*(["single", x, ""] for x in support.singles),
            *(["pair", x, y] for x, y in support.pairs)]


def _support_fields(support: RankingSupport) -> dict:
    return {
        "singles": support.singles,
        "pairs": support.pairs,
    }


def _score_fields(key: tuple) -> dict:
    m, n_pairs, kappa1, kappa2, singleton = key
    return {
        "m": m,
        "n_pairs": n_pairs,
        "kappa1": kappa1,
        "kappa2": kappa2,
        "kappa1_display": _disp(kappa1),
        "kappa2_display": _disp(kappa2),
        "singleton": singleton,
    }


def _deviation_fields(key: tuple) -> dict:
    v1, v2, flagged = key
    return {
        "v1": v1,
        "v2": v2,
        "v1_display": _disp(v1),
        "v2_display": _disp(v2),
        "flagged": flagged,
    }


def _consensus_payload(report: ConsensusReport, index: list[str]) -> dict:
    return {
        "params": {
            "q": report.params.q,
            "gamma": report.params.gamma,
            "lambda": report.params.lam,
        },
        "n_rankings": report.n_rankings,
        "overall": {
            "kappa1": report.overall_kappa1,
            "kappa2": report.overall_kappa2,
            "kappa1_display": _disp(report.overall_kappa1),
            "kappa2_display": _disp(report.overall_kappa2),
        },
        "per_ranking": _Rows(report.rset.runs, index, report.per_type, _score_fields),
    }


_SCORE_COLUMNS = ["index", "m", "kappa1", "kappa2", "v1", "v2", "flagged"]


def _score_table(report: ConsensusReport, outliers: OutlierReport | None) -> str:
    deviations = outliers.per_type if outliers else [None] * len(report.per_type)
    keys = [(m, kappa1, kappa2, dev)
            for (m, _, kappa1, kappa2, _), dev in zip(report.per_type, deviations)]

    def cells(key) -> list[list]:
        m, kappa1, kappa2, dev = key
        v1, v2, flagged = ("", "", False) if dev is None else (repr(dev[0]), repr(dev[1]), dev[2])
        return [[m, repr(kappa1), repr(kappa2), v1, v2, "true" if flagged else "false"]]

    index = list(map(str, range(report.n_rankings)))
    return _csv_table(_csv([_SCORE_COLUMNS]), _Rows(report.rset.runs, index, keys, cells))


def emit_report(report: ConsensusReport | OutlierReport | PairwiseAverages,
                fmt: str = "json", *, rescored: ConsensusReport | None = None) -> str:
    """Serialise a report. ``rescored`` attaches a post-removal consensus run
    to an outlier report as JSON; with any other report, or as CSV, whose
    table keeps its fixed columns, it is a :class:`ParameterError`."""
    _check_fmt(fmt)
    if rescored is not None and (fmt == "csv" or not isinstance(report, OutlierReport)):
        raise ParameterError("a rescored run is printed only with an outlier report as JSON")
    if isinstance(report, ConsensusReport):
        if fmt == "csv":
            return _score_table(report, None)
        index = list(map(str, range(report.n_rankings)))
        payload = _consensus_payload(report, index)
        payload["support"] = _sets_payload(report, index)
        return _json(payload)
    if isinstance(report, OutlierReport):
        if fmt == "csv":
            return _score_table(report.consensus, report)
        # the rescored run's vote indices are a prefix of these
        n = max(report.consensus.n_rankings, 0 if rescored is None else rescored.n_rankings)
        index = list(map(str, range(n)))
        payload = {
            "thresholds": {"eps1": report.eps1, "eps2": report.eps2},
            "consensus": _consensus_payload(report.consensus, index),
            "per_ranking": _Rows(report.consensus.rset.runs, index, report.per_type,
                                 _deviation_fields),
            "flagged_indices": report.flagged_indices,
        }
        if rescored is not None:
            kept = rescored.original_indices
            rescored_payload = _consensus_payload(rescored, index)
            rescored_payload["original_indices"] = list(
                range(rescored.n_rankings) if kept is None else kept)
            payload["rescored"] = rescored_payload
        return _json(payload)
    if isinstance(report, PairwiseAverages):
        if fmt == "csv":
            rows = [[i, repr(v)] for i, v in enumerate(report.per_ranking)]
            return _csv([["index", "value"], *rows, ["overall", repr(report.overall)]])
        return _json(
            {
                "measure": report.measure,
                "per_ranking": list(report.per_ranking),
                "overall": report.overall,
                "overall_display": _disp(report.overall),
            }
        )
    raise ParameterError(f"cannot emit a report of type {type(report).__name__}")


def emit_patterns(report: ConsensusReport, fmt: str = "json") -> str:
    """The supported-pattern sets of a scoring run."""
    _check_fmt(fmt)
    index = list(map(str, range(report.n_rankings)))
    if fmt == "csv":
        head = _csv([["scope", "kind", "first", "second"],
                     *(["set", *cells] for cells in _pattern_cells(report.sets))])
        return _csv_table(head, _Rows(report.rset.runs, index, report.sets.per_type,
                                      _pattern_cells))
    payload = {"q": report.params.q, "n_rankings": report.n_rankings}
    payload.update(_sets_payload(report, index))
    return _json(payload)


_SWEEP_COLUMNS = ["q", "qOverN", "gamma", "lambda", "kappa1", "kappa2"]


def emit_sweep(rows: list[dict], fmt: str = "csv") -> str:
    """Long-format parameter-sweep output; one row per grid point."""
    _check_fmt(fmt)
    if fmt == "json":
        return _json(rows)
    return _csv([_SWEEP_COLUMNS, *(
        [row["q"], row["qOverN"], repr(float(row["gamma"])), repr(float(row["lambda"])),
         repr(row["kappa1"]), repr(row["kappa2"])]
        for row in rows
    )])
