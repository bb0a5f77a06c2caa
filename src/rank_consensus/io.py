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
output.
"""
from __future__ import annotations

import csv
import io as _io
import json
from pathlib import Path

from .baselines import PairwiseAverages
from .errors import ParameterError, ParseError
from .model import Ranking, RankingSet
from .outliers import OutlierReport
from .scores import ConsensusReport

# ---------------------------------------------------------------------------
# parsing

_SPECIALS = ",{}"
# most votes one preflib file may expand to; every vote is scored and emitted
# on its own (about 1 KB to score, several more as JSON), so this bounds the
# memory of a run
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
    return parse_rankings_text(text, fmt, source=str(path))


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


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _sets_payload(report: ConsensusReport) -> dict:
    sets = report.sets
    return {
        "singles": sorted(sets.singles),
        "pairs": [list(p) for p in sorted(sets.pairs)],
        "per_ranking": [
            {
                "index": i,
                "singles": sorted(ps.singles),
                "pairs": [list(p) for p in sorted(ps.pairs)],
            }
            for i, ps in enumerate(sets.per_ranking)
        ],
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
        "per_ranking": [
            {
                "index": rs.index,
                "m": rs.m,
                "n_pairs": rs.n_pairs,
                "kappa1": rs.kappa1,
                "kappa2": rs.kappa2,
                "kappa1_display": _disp(rs.kappa1),
                "kappa2_display": _disp(rs.kappa2),
                "singleton": rs.singleton,
            }
            for rs in report.per_ranking
        ],
    }


def _score_rows(report: ConsensusReport, outliers: OutlierReport | None):
    rows = []
    deviations = {d.index: d for d in outliers.per_ranking} if outliers else {}
    for rs in report.per_ranking:
        d = deviations.get(rs.index)
        rows.append(
            {
                "index": rs.index,
                "m": rs.m,
                "kappa1": repr(rs.kappa1),
                "kappa2": repr(rs.kappa2),
                "v1": repr(d.v1) if d else "",
                "v2": repr(d.v2) if d else "",
                "flagged": "true" if d and d.flagged else "false",
            }
        )
    return rows


def _csv_table(fieldnames: list[str], rows: list[dict]) -> str:
    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


_SCORE_COLUMNS = ["index", "m", "kappa1", "kappa2", "v1", "v2", "flagged"]


def emit_report(report: ConsensusReport | OutlierReport | PairwiseAverages,
                fmt: str = "json", *, rescored: ConsensusReport | None = None) -> str:
    """Serialise a report. ``rescored`` attaches a post-removal consensus run
    to an outlier report (JSON only; the CSV table keeps its fixed columns)."""
    _check_fmt(fmt)
    if isinstance(report, ConsensusReport):
        if fmt == "csv":
            return _csv_table(_SCORE_COLUMNS, _score_rows(report, None))
        payload = _consensus_payload(report)
        payload["support"] = _sets_payload(report)
        return _json(payload)
    if isinstance(report, OutlierReport):
        if fmt == "csv":
            return _csv_table(_SCORE_COLUMNS, _score_rows(report.consensus, report))
        payload = {
            "thresholds": {"eps1": report.eps1, "eps2": report.eps2},
            "consensus": _consensus_payload(report.consensus),
            "per_ranking": [
                {
                    "index": d.index,
                    "v1": d.v1,
                    "v2": d.v2,
                    "v1_display": _disp(d.v1),
                    "v2_display": _disp(d.v2),
                    "flagged": d.flagged,
                }
                for d in report.per_ranking
            ],
            "flagged_indices": report.flagged_indices,
        }
        if rescored is not None:
            survivors = [d.index for d in report.per_ranking if not d.flagged]
            rescored_payload = _consensus_payload(rescored)
            rescored_payload["original_indices"] = survivors
            payload["rescored"] = rescored_payload
        return _json(payload)
    if isinstance(report, PairwiseAverages):
        if fmt == "csv":
            rows = [
                {"index": str(i), "value": repr(v)}
                for i, v in enumerate(report.per_ranking)
            ]
            rows.append({"index": "overall", "value": repr(report.overall)})
            return _csv_table(["index", "value"], rows)
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
        rows = []
        payload = _sets_payload(report)
        for x in payload["singles"]:
            rows.append({"scope": "set", "kind": "single", "first": x, "second": ""})
        for x, y in payload["pairs"]:
            rows.append({"scope": "set", "kind": "pair", "first": x, "second": y})
        for entry in payload["per_ranking"]:
            scope = str(entry["index"])
            for x in entry["singles"]:
                rows.append({"scope": scope, "kind": "single", "first": x, "second": ""})
            for x, y in entry["pairs"]:
                rows.append({"scope": scope, "kind": "pair", "first": x, "second": y})
        return _csv_table(["scope", "kind", "first", "second"], rows)
    payload = {"q": report.params.q, "n_rankings": report.n_rankings}
    payload.update(_sets_payload(report))
    return _json(payload)


_SWEEP_COLUMNS = ["q", "qOverN", "gamma", "lambda", "kappa1", "kappa2"]


def emit_sweep(rows: list[dict], fmt: str = "csv") -> str:
    """Long-format parameter-sweep output; one row per grid point."""
    _check_fmt(fmt)
    if fmt == "json":
        return _json(rows)
    flat = [
        {
            "q": row["q"],
            "qOverN": row["qOverN"],
            "gamma": repr(float(row["gamma"])),
            "lambda": repr(float(row["lambda"])),
            "kappa1": repr(row["kappa1"]),
            "kappa2": repr(row["kappa2"]),
        }
        for row in rows
    ]
    return _csv_table(_SWEEP_COLUMNS, flat)
