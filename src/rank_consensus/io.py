"""Reading ranking sets and writing reports.

Two input formats:

* ``lines`` — one ranking per line, comma-separated items, ties grouped in
  braces: ``b,{c,d},a``. ``#`` starts a comment.
* ``preflib`` — preference-library election files: ``#``-prefixed metadata
  (``ALTERNATIVE NAME i`` entries rename numeric items), then
  ``count: order`` rows whose orders use the same brace syntax and are
  repeated ``count`` times, up to :data:`MAX_VOTES` votes per file.

Reports serialise to JSON (full-precision floats plus 2-decimal display
strings) or CSV. Both are deterministic: equal inputs give byte-equal
output. Votes that repeat a ranking repeat its per-vote rows, so each
distinct row is rendered once, by ``json.dumps`` or ``csv`` itself, and
every vote that shares it reuses that text with only its index changed; a
JSON document is joined from its pieces once, at the end.
"""
from __future__ import annotations

import csv
import json
from collections.abc import Callable, Hashable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import TypeVar

from .baselines import PairwiseAverages
from .errors import ParameterError, ParseError
from .model import Ranking, RankingSet
from .outliers import OutlierReport
from .scores import ConsensusReport
from .support import RankingSupport

T = TypeVar("T")

# ---------------------------------------------------------------------------
# parsing

_SPECIALS = ",{}"
# most votes one preflib file may expand to. Scores and flags are held once
# per distinct ranking, but a report still prints one row per vote and its
# text is held twice while it is written. At 200 000 votes over the README's
# 4 rankings at q = N/2, `score` peaks at 79 MB as CSV (7 MB of text) and
# `outliers --remove` at 101 MB (15 MB). As JSON they last measured 458 MB
# (212 MB of text) and 303 MB (121 MB); the parse then took 95 MB more, but
# freed it before the text was built. The JSON of `score` would so need
# about 2.3 GB at this cap
MAX_VOTES = 10**6


def _parse_ranking(text: str, where: str) -> Ranking:
    blocks: list[list[str]] = []
    i = 0
    n = len(text)
    pending_comma = False
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ",":
            raise ParseError(f"{where}: empty item")
        if ch == "}":
            raise ParseError(f"{where}: stray '}}'")
        if ch == "{":
            close = text.find("}", i + 1)
            if close < 0:
                raise ParseError(f"{where}: unclosed '{{'")
            inner = text[i + 1:close]
            if "{" in inner:
                raise ParseError(f"{where}: nested '{{'")
            tokens = [t.strip() for t in inner.split(",")]
            if any(not t for t in tokens):
                raise ParseError(f"{where}: empty item in tie group")
            blocks.append(tokens)
            i = close + 1
        else:
            j = i
            while j < n and text[j] not in _SPECIALS:
                j += 1
            if j < n and text[j] == "{":
                raise ParseError(f"{where}: '{{' must start an item")
            if j < n and text[j] == "}":
                raise ParseError(f"{where}: stray '}}'")
            token = text[i:j].strip()
            if not token:
                raise ParseError(f"{where}: empty item")
            blocks.append([token])
            i = j
        pending_comma = False
        while i < n and text[i].isspace():
            i += 1
        if i < n:
            if text[i] != ",":
                raise ParseError(f"{where}: expected ',' before {text[i]!r}")
            i += 1
            pending_comma = True
    if pending_comma:
        raise ParseError(f"{where}: trailing ','")
    if not blocks:
        raise ParseError(f"{where}: empty ranking")
    try:
        return Ranking(blocks)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _parse_lines(text: str, source: str) -> RankingSet:
    rankings = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rankings.append(_parse_ranking(line, f"{source}:{lineno}"))
    if not rankings:
        raise ParseError(f"{source}: no rankings found")
    return RankingSet(rankings)


def _parse_preflib(text: str, source: str) -> RankingSet:
    names: dict[str, str] = {}
    rankings: list[Ranking] = []
    n_votes = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        where = f"{source}:{lineno}"
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition(":")
            if sep and key.strip().upper().startswith("ALTERNATIVE NAME"):
                index = key.strip()[len("ALTERNATIVE NAME"):].strip()
                names[index] = value.strip()
            continue
        count_text, sep, order_text = line.partition(":")
        if not sep:
            raise ParseError(f"{where}: expected 'count: order'")
        try:
            count = int(count_text.strip())
        except ValueError:
            raise ParseError(f"{where}: vote count {count_text.strip()!r} is not an integer") from None
        if count <= 0:
            raise ParseError(f"{where}: vote count must be positive, got {count}")
        n_votes += count
        if n_votes > MAX_VOTES:
            raise ParseError(f"{where}: vote count {count} brings the file's total "
                             f"to {n_votes}, above the limit of {MAX_VOTES}")
        ranking = _parse_ranking(order_text, where)
        if names:
            try:
                ranking = Ranking(
                    [names.get(t, t) for t in block] for block in ranking.blocks
                )
            except ValueError as exc:
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


def render_rankings(rset: RankingSet) -> str:
    """The ``lines`` representation; parses back to an equal set."""
    out = []
    for r in rset:
        parts = [
            block[0] if len(block) == 1 else "{" + ",".join(block) + "}"
            for block in r.blocks
        ]
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# emission

_FORMATS = ("json", "csv")


def _disp(value: float) -> str:
    return f"{value:.2f}"


def _check_fmt(fmt: str) -> None:
    if fmt not in _FORMATS:
        raise ParameterError(f"unknown output format {fmt!r}; expected one of {list(_FORMATS)}")


def _shared(votes: Iterable[tuple[int, Hashable]],
            render: Callable[[Hashable], T]) -> Iterator[tuple[int, T]]:
    """``(index, render(key))`` for each vote's ``(index, key)``, rendering
    each distinct key once.

    Keys compare by value. Equal floats print alike except 0.0 and -0.0,
    which no score or deviation takes: they are built from sums of
    non-negative weights and from differences, and a difference of equal
    values is +0.0.
    """
    texts: dict[Hashable, T] = {}
    for index, key in votes:
        text = texts.get(key)
        if text is None:
            text = texts[key] = render(key)
        yield index, text


def _by_vote(type_of: Iterable[int], rows: list | tuple) -> list[tuple[int, Hashable]]:
    """``(index, rows[t])`` for each vote ``index`` of type ``t``."""
    return [(index, rows[t]) for index, t in enumerate(type_of)]


@dataclass(frozen=True)
class _Rows:
    """A JSON list of one row per vote: ``{"index": i, **fields(key)}`` for
    each ``(i, key)`` in ``votes``."""

    votes: list[tuple[int, Hashable]]
    fields: Callable[[Hashable], dict]


def _render(value, out: list[str], depth: int = 0) -> None:
    """Append the text of ``json.dumps(value, indent=2)``, as it reads nested
    ``depth`` levels deep, to ``out`` in pieces.

    Dicts are laid out here, so a :class:`_Rows` value in one can encode each
    distinct row once and add four pieces per vote; a list of ints is joined
    directly; anything else is encoded whole by ``json.dumps``. The document
    is copied only when ``out`` is joined.
    """
    pad = "\n" + "  " * depth
    inner = pad + "  "
    sep = inner  # before the first item; "," + inner before the others
    if isinstance(value, _Rows):
        if not value.votes:
            out.append("[]")
            return
        row = "{" + inner + '  "index": '

        def tail(key) -> str:
            # the row after its index, one level deeper than this list
            return "," + json.dumps(value.fields(key), indent=2)[1:].replace("\n", inner)

        out.append("[")
        for index, text in _shared(value.votes, tail):
            out += (sep, row, repr(index), text)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, dict) and value:
        out.append("{")
        for key, item in value.items():
            out += (sep, json.dumps(key), ": ")
            _render(item, out, depth + 1)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, list) and value and all(type(item) is int for item in value):
        # an int prints as json.dumps prints it, without its per-item cost
        out += ("[", inner, ("," + inner).join(map(repr, value)), pad, "]")
    else:
        out.append(json.dumps(value, indent=2).replace("\n", pad))


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


def _sets_payload(report: ConsensusReport) -> dict:
    sets = report.sets
    return {
        "singles": sorted(sets.singles),
        "pairs": [list(p) for p in sorted(sets.pairs)],
        "per_ranking": _Rows(list(enumerate(sets.per_ranking)), _support_fields),
    }


def _support_fields(support: RankingSupport) -> dict:
    return {
        "singles": sorted(support.singles),
        "pairs": [list(p) for p in sorted(support.pairs)],
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


def _consensus_payload(report: ConsensusReport) -> dict:
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
        "per_ranking": _Rows(_by_vote(report.type_of, report.per_type), _score_fields),
    }


_SCORE_COLUMNS = ["index", "m", "kappa1", "kappa2", "v1", "v2", "flagged"]


def _score_table(report: ConsensusReport, outliers: OutlierReport | None) -> str:
    deviations = outliers.per_type if outliers else [None] * len(report.per_type)
    keys = [(m, kappa1, kappa2, dev)
            for (m, _, kappa1, kappa2, _), dev in zip(report.per_type, deviations)]
    votes = _by_vote(report.type_of, keys)

    def tail(key) -> str:
        m, kappa1, kappa2, dev = key
        v1, v2, flagged = ("", "", False) if dev is None else (repr(dev[0]), repr(dev[1]), dev[2])
        return _csv_lines([[m, repr(kappa1), repr(kappa2), v1, v2,
                            "true" if flagged else "false"]])[0]

    return _csv([_SCORE_COLUMNS]) + "".join(f"{i},{text}" for i, text in _shared(votes, tail))


def emit_report(report: ConsensusReport | OutlierReport | PairwiseAverages,
                fmt: str = "json", *, rescored: ConsensusReport | None = None) -> str:
    """Serialise a report. ``rescored`` attaches a post-removal consensus run
    to an outlier report (JSON only; the CSV table keeps its fixed columns)."""
    _check_fmt(fmt)
    if isinstance(report, ConsensusReport):
        if fmt == "csv":
            return _score_table(report, None)
        payload = _consensus_payload(report)
        payload["support"] = _sets_payload(report)
        return _json(payload)
    if isinstance(report, OutlierReport):
        if fmt == "csv":
            return _score_table(report.consensus, report)
        payload = {
            "thresholds": {"eps1": report.eps1, "eps2": report.eps2},
            "consensus": _consensus_payload(report.consensus),
            "per_ranking": _Rows(_by_vote(report.consensus.type_of, report.per_type),
                                 _deviation_fields),
            "flagged_indices": report.flagged_indices,
        }
        if rescored is not None:
            kept = rescored.original_indices
            rescored_payload = _consensus_payload(rescored)
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
    if fmt == "csv":
        sets = report.sets
        head = _csv([
            ["scope", "kind", "first", "second"],
            *(["set", "single", x, ""] for x in sorted(sets.singles)),
            *(["set", "pair", x, y] for x, y in sorted(sets.pairs)),
        ])

        def tails(support: RankingSupport) -> list[str]:
            return _csv_lines([
                *(["single", x, ""] for x in sorted(support.singles)),
                *(["pair", x, y] for x, y in sorted(support.pairs)),
            ])

        per_vote = _shared(enumerate(sets.per_ranking), tails)
        return head + "".join(f"{i},{line}" for i, lines in per_vote for line in lines)
    payload = {"q": report.params.q, "n_rankings": report.n_rankings}
    payload.update(_sets_payload(report))
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
