import csv
import io
import json
import re
from dataclasses import dataclass

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import per_vote, ranking_sets_st, rankings_st
from rank_consensus import (
    DegenerateConsensusError,
    ParameterError,
    ParseError,
    Ranking,
    RankingSet,
    ScoreParams,
    TopKParams,
    detect_outliers,
    emit_patterns,
    emit_report,
    emit_sweep,
    pairwise_average,
    parse_rankings,
    remove_and_rescore,
    score,
)
from rank_consensus import io as rc_io
from rank_consensus.io import parse_rankings_text

EXAMPLE_LINES = """\
# worked example
a,b,c,d,e,f
b,c,d,e,f,a

b,d,a,g,h,f  # truncated differently
b,a,c,d,f,e
"""


def test_parse_lines_basic():
    rs = parse_rankings_text(EXAMPLE_LINES)
    assert len(rs) == 4
    assert rs[0] == Ranking.strict("abcdef")
    assert rs[2].position("g") == 4


def test_parse_lines_ties_and_whitespace():
    rs = parse_rankings_text(" b , {c, d} , a \n")
    assert rs[0] == Ranking([["b"], ["c", "d"], ["a"]])
    assert rs[0].position("c") == 2
    assert rs[0].position("d") == 2


def test_parse_lines_comment_only_file_is_empty():
    with pytest.raises(ParseError, match="no rankings"):
        parse_rankings_text("# nothing here\n\n")


def exactly(message: str) -> str:
    """A ``match`` pattern for this whole message and nothing else."""
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize("bad, message", [
    ("a,,b", "empty item"),
    ("a,b,", "trailing"),
    (",a", "empty item"),
    ("{a,b", "unclosed"),
    ("a}b", "stray"),
    ("a,{b,{c}}", "nested"),
    ("{}", "empty item"),
    ("{a,}", "empty item"),
    ("{a}b", "expected ','"),
    ("a{b}", "'{' must start an item"),
    ("a,a", "duplicate"),
    # which fault is reported: the first from the left
    ("{a}{b}", exactly("<string>:1: expected ',' before '{'")),
    ("{a} b", exactly("<string>:1: expected ',' before 'b'")),
    ("{a}}", exactly("<string>:1: expected ',' before '}'")),
    ("{a},", exactly("<string>:1: trailing ','")),
    ("a}{b}", exactly("<string>:1: stray '}'")),
    ("{a},x{b}", exactly("<string>:1: '{' must start an item")),
    (",}", exactly("<string>:1: empty item")),
    ("{a,{b", exactly("<string>:1: unclosed '{'")),
    ("{ , a}", exactly("<string>:1: empty item in tie group")),
])
def test_parse_lines_errors(bad, message):
    with pytest.raises(ParseError, match=message):
        parse_rankings_text(bad + "\n")


def test_parse_errors_carry_source_and_line():
    with pytest.raises(ParseError, match=r"votes.txt:3"):
        parse_rankings_text("a,b\nc,d\na,a\n", source="votes.txt")


@pytest.mark.parametrize("fmt, prefix", [("lines", ""), ("preflib", "1: ")])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_lines_end_only_at_the_line_ends_open_reads(fmt, prefix, end):
    # str.splitlines would also break at each of these
    odd = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
    def text(*lines):
        return "".join(prefix + line + end for line in lines)

    rs = parse_rankings_text(text("a,b", f"b,a{odd}c", f"{odd}b , a{odd}"), fmt)
    assert list(rs) == [Ranking.strict("ab"), Ranking.strict(["b", f"a{odd}c"]),
                        Ranking.strict("ba")]
    with pytest.raises(ParseError, match=exactly("<string>:3: empty item")):
        parse_rankings_text(text("a,b", "\fb,a", "c,,d"), fmt)


def test_parse_rankings_reads_files(tmp_path):
    path = tmp_path / "rankings.txt"
    path.write_text(EXAMPLE_LINES)
    rs = parse_rankings(path)
    assert len(rs) == 4


def test_parse_rankings_missing_file(tmp_path):
    with pytest.raises(OSError):
        parse_rankings(tmp_path / "absent.txt")


def test_parse_rankings_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("a,b\nb,c\u00e9\n".encode("latin-1"))
    with pytest.raises(ParseError, match=r"latin1\.txt: not valid UTF-8 at byte offset 7"):
        parse_rankings(path)


def test_unknown_input_format():
    with pytest.raises(ParameterError, match="unknown input format"):
        parse_rankings_text("a,b\n", fmt="xml")


PREFLIB = """\
# FILE NAME: toy.toc
# TITLE: toy election
# ALTERNATIVE NAME 1: alpha
# ALTERNATIVE NAME 2: beta
# ALTERNATIVE NAME 3: gamma
2: 1,2,3
1: 3,{1,2}
"""


def test_parse_preflib_expands_counts_and_renames():
    rs = parse_rankings_text(PREFLIB, fmt="preflib")
    assert len(rs) == 3
    assert rs[0] == rs[1] == Ranking.strict(["alpha", "beta", "gamma"])
    assert rs[2] == Ranking([["gamma"], ["alpha", "beta"]])


def test_parse_preflib_without_names_keeps_tokens():
    rs = parse_rankings_text("1: 2,1\n", fmt="preflib")
    assert rs[0] == Ranking.strict(["2", "1"])


@pytest.mark.parametrize("bad, message", [
    ("0: 1,2\n", "must be positive"),
    ("-2: 1,2\n", "must be positive"),
    pytest.param("-" + "1" * 5000 + ": 1,2\n", exactly(
        "<string>:1: vote count must be positive, got -1111111111111111111... (5001 characters)"),
        id="minus-5000-digits"),
    pytest.param("3: 1,2\n" + "1" * 5000 + ": 2,1\n", exactly(
        "<string>:2: vote count 11111111111111111111... (5000 characters) is above the limit"
        " of 1000000"), id="5000-digits"),
    pytest.param("9" * 4300 + ": 1,2\n", exactly(
        "<string>:1: vote count 99999999999999999999... (4300 characters) is above the limit"
        " of 1000000"), id="4300-digits"),
    pytest.param("x" * 20 + ": 1,2\n", exactly(
        "<string>:1: vote count 'xxxxxxxxxxxxxxxxxxxx' is not an integer"), id="20-junk"),
    pytest.param("x" * 3000 + ": 1,2\n", exactly(
        "<string>:1: vote count 'xxxxxxxxxxxxxxxxxxxx'... (3000 characters) is not an integer"),
        id="3000-junk"),
    ("x: 1,2\n", "not an integer"),
    ("1_000: 1,2\n", "not an integer"),
    ("+3: 1,2\n", "not an integer"),
    ("\u0663: 1,2\n", "not an integer"),
    ("1,2,3\n", "expected 'count: order'"),
    ("# TITLE: empty\n", "no rankings"),
    ("# ALTERNATIVE NAME 1: x\n1: 1,1\n",
     exactly("<string>:2: duplicate item '1' in ranking")),
    ("# ALTERNATIVE NAME 1: x\n1: 1,x\n",
     exactly("<string>:2: after renaming: duplicate item 'x' in ranking")),
    ("3:   \n", exactly("<string>:1: empty ranking")),
    # a name declared after a vote would split one candidate into two items
    ("2: 1,2\n# ALTERNATIVE NAME 1: x\n# ALTERNATIVE NAME 2: y\n1: 2,1\n",
     exactly("<string>:2: ALTERNATIVE NAME after the first vote")),
])
def test_parse_preflib_errors(bad, message):
    with pytest.raises(ParseError, match=message):
        parse_rankings_text(bad, fmt="preflib")


def test_parse_preflib_caps_the_vote_total(tmp_path):
    path = tmp_path / "huge.soc"
    path.write_text("3: 1,2\n100000000000000000: 2,1\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: vote count 100000000000000000")):
        parse_rankings(path, fmt="preflib")


def test_leading_zeros_do_not_count_towards_the_digits_of_a_count():
    # int() refuses more than 4 300 digits, so a count is read by its
    # significant ones
    rs = parse_rankings_text("0" * 4400 + "1: b,a\n", fmt="preflib")
    assert list(rs) == [Ranking.strict("ba")]


def test_vote_cap_counts_the_whole_file(monkeypatch):
    monkeypatch.setattr(rc_io, "MAX_VOTES", 5)
    assert len(parse_rankings_text("4: 1,2\n1: 2\n", fmt="preflib")) == 5
    with pytest.raises(ParseError, match=r"<string>:2: .* total to 6, above the limit of 5"):
        parse_rankings_text("4: 1,2\n2: 2\n", fmt="preflib")


def test_vote_cap_counts_the_rankings_of_a_lines_file(monkeypatch):
    monkeypatch.setattr(rc_io, "MAX_VOTES", 2)
    assert len(parse_rankings_text("a,b\n# note\n\nb\n")) == 2
    with pytest.raises(ParseError, match=r"<string>:4: .* total to 3, above the limit of 2"):
        parse_rankings_text("a,b\nb\n# note\na\n")


def test_parse_preflib_name_collision():
    text = "# ALTERNATIVE NAME 1: same\n# ALTERNATIVE NAME 2: same\n1: 1,2\n"
    with pytest.raises(ParseError, match=exactly(
            "<string>:2: alternative 2 is named 'same', as alternative 1 is")):
        parse_rankings_text(text, fmt="preflib")


@pytest.mark.parametrize("names, message", [
    # two alternatives that no vote ranks together would merge into one item
    (["1: x", "2: x"], "<string>:2: alternative 2 is named 'x', as alternative 1 is"),
    (["1: x", "3: y", "2:  x "], "<string>:3: alternative 2 is named 'x', as alternative 1 is"),
    (["1: x", "1: y"], "<string>:2: alternative 1 is named twice, first as 'x'"),
    (["1: x", "1: x"], "<string>:2: alternative 1 is named twice, first as 'x'"),
    (["1: x", "2: " + "y" * 30, "2: z"], "<string>:3: alternative 2 is named twice, first as "
     "'yyyyyyyyyyyyyyyyyyyy'... (30 characters)"),
])
def test_parse_preflib_names_each_alternative_once(names, message):
    text = "".join(f"# ALTERNATIVE NAME {entry}\n" for entry in names) + "1: 1,3\n1: 2,3\n"
    with pytest.raises(ParseError, match=exactly(message)):
        parse_rankings_text(text, fmt="preflib")


@pytest.mark.parametrize("text, message", [
    # an empty name failed at the first vote that ranked its alternative
    ("# ALTERNATIVE NAME 1:\n# ALTERNATIVE NAME 2: b\n1: 1,2\n",
     "<string>:1: alternative 1 has an empty name"),
    ("# ALTERNATIVE NAME 2: b\n#  alternative name 1 :  \n1: 2\n",
     "<string>:2: alternative 1 has an empty name"),
    # and a declaration without an index was ignored
    ("# ALTERNATIVE NAME: x\n# ALTERNATIVE NAME 2: b\n1: 1,2\n",
     "<string>:1: ALTERNATIVE NAME without an index"),
    ("# ALTERNATIVE NAME 1: a\n# ALTERNATIVE NAME  :\n1: 1\n",
     "<string>:2: ALTERNATIVE NAME without an index"),
])
def test_parse_preflib_names_need_an_index_and_a_name(text, message):
    with pytest.raises(ParseError, match=exactly(message)):
        parse_rankings_text(text, fmt="preflib")


def test_parse_preflib_keeps_names_the_lines_format_cannot_hold():
    text = ("# ALTERNATIVE NAME 1: Smith, John\n# ALTERNATIVE NAME 2: Doe #2\n"
            "# ALTERNATIVE NAME 3: Lee\n1: 3\n1: 1,2,3\n")
    rset = parse_rankings_text(text, "preflib")
    assert rset[1].items == ("Smith, John", "Doe #2", "Lee")


# --- round trips: the parser reads back what the lines format writes ----------

def render(rset):
    """``rset`` in the lines format: each tie block as its item or as
    ``{x,y}``, one ranking per line."""
    return "".join(
        ",".join(b[0] if len(b) == 1 else "{" + ",".join(b) + "}" for b in r.blocks) + "\n"
        for r in rset)


def test_render_round_trip(example_set):
    assert parse_rankings_text(render(example_set)) == example_set


def test_render_uses_braces_for_ties():
    rs = RankingSet([Ranking([["b"], ["c", "d"], ["a"]])])
    assert render(rs) == "b,{c,d},a\n"


@settings(max_examples=60, deadline=None)
@given(ranking_sets_st())
def test_render_round_trip_random(rset):
    assert parse_rankings_text(render(rset)) == rset


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4, unique=True),
                min_size=1, max_size=3))
def test_render_parses_back_to_an_equal_set_or_refuses(orders):
    rset = RankingSet([Ranking.strict(order) for order in orders])
    # the format splits on ",{}#" and line ends, and strips blanks
    assume(all(x == x.strip() and not set(x) & set(",{}#\r\n") for x in rset.universe))
    assert parse_rankings_text(render(rset)) == rset


# --- emission ----------------------------------------------------------------

def test_consensus_json_payload(example_set):
    rep = score(example_set, ScoreParams(q=3))
    payload = json.loads(emit_report(rep))
    assert payload["params"] == {"q": 3, "gamma": 1.0, "lambda": 1.0}
    assert payload["overall"]["kappa1"] == rep.overall_kappa1
    assert payload["overall"]["kappa1_display"] == "0.92"
    assert payload["overall"]["kappa2_display"] == "0.60"
    assert payload["per_ranking"][2]["kappa2_display"] == "0.33"
    assert payload["support"]["singles"] == list("abcdef")
    assert ["b", "c"] in payload["support"]["pairs"]


def test_consensus_csv_golden(example_set):
    rep = score(example_set, ScoreParams(q=3))
    expected = (
        "index,m,kappa1,kappa2,v1,v2,flagged\n"
        "0,6,1.0,0.6666666666666666,,,false\n"
        "1,6,1.0,0.6666666666666666,,,false\n"
        "2,6,0.6666666666666666,0.3333333333333333,,,false\n"
        "3,6,1.0,0.7333333333333333,,,false\n"
    )
    assert emit_report(rep, "csv") == expected


def test_outlier_csv_fills_deviation_columns(example_set):
    rep = score(example_set, ScoreParams(q=3))
    out = detect_outliers(rep)
    text = emit_report(out, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "index,m,kappa1,kappa2,v1,v2,flagged"
    assert lines[3].startswith("2,6,")
    assert lines[3].endswith(",true")
    assert "-0.4444444444444445" in lines[3]


def test_outlier_json_with_rescore(example_set):
    params = ScoreParams(q=3)
    rep = score(example_set, params)
    out = detect_outliers(rep)
    rescored = remove_and_rescore(example_set, out.flagged_indices, params)
    payload = json.loads(emit_report(out, rescored=rescored))
    assert payload["thresholds"] == {"eps1": 0.4, "eps2": 0.4}
    assert payload["flagged_indices"] == [2]
    assert payload["per_ranking"][2]["flagged"] is True
    assert payload["per_ranking"][2]["v2_display"] == "-0.44"
    assert payload["rescored"]["original_indices"] == [0, 1, 3]
    assert payload["rescored"]["params"]["q"] == 3
    assert payload["rescored"]["n_rankings"] == 3


def test_rescored_json_prints_the_surviving_indices(example_set):
    params = ScoreParams(q=3)
    out = detect_outliers(score(example_set, params))
    assert out.flagged_indices == [2]
    rescored = remove_and_rescore(example_set, [0], params)
    assert rescored.original_indices == (1, 2, 3)
    payload = json.loads(emit_report(out, rescored=rescored))
    assert payload["rescored"]["original_indices"] == [1, 2, 3]
    assert payload["rescored"]["n_rankings"] == 3


@pytest.mark.parametrize("kind, fmt", [("outliers", "csv"), ("score", "json"), ("score", "csv"),
                                       ("correlate", "json"), ("correlate", "csv")])
def test_a_rescored_run_goes_only_with_an_outlier_report_as_json(example_set, kind, fmt):
    params = ScoreParams(q=3)
    rep = score(example_set, params)
    out = detect_outliers(rep)
    rescored = remove_and_rescore(example_set, out.flagged_indices, params)
    report = {"outliers": out, "score": rep,
              "correlate": pairwise_average(example_set, "kendall_topk", TopKParams(k=3))}[kind]
    with pytest.raises(ParameterError, match="rescored"):
        emit_report(report, fmt, rescored=rescored)


def test_patterns_json(example_set):
    rep = score(example_set, ScoreParams(q=3))
    payload = json.loads(emit_patterns(rep))
    assert payload["q"] == 3
    assert payload["singles"] == list("abcdef")
    assert len(payload["pairs"]) == 11
    assert payload["per_ranking"][2]["singles"] == ["a", "b", "d", "f"]


def test_patterns_csv(example_set):
    rep = score(example_set, ScoreParams(q=3))
    lines = emit_patterns(rep, "csv").strip().split("\n")
    assert lines[0] == "scope,kind,first,second"
    assert "set,single,a," in lines
    assert "set,pair,b,c" in lines
    assert "2,pair,a,f" in lines


def test_correlation_emission(example_set):
    avg = pairwise_average(example_set, "kendall_topk", TopKParams(k=3, p=0.5))
    payload = json.loads(emit_report(avg))
    assert payload["measure"] == "kendall_topk"
    assert len(payload["per_ranking"]) == 4
    csv_lines = emit_report(avg, "csv").strip().split("\n")
    assert csv_lines[0] == "index,value"
    assert csv_lines[-1].startswith("overall,")


def test_sweep_emission():
    rows = [
        {"q": 2, "qOverN": "1/2", "gamma": 1.0, "lambda": 0.5,
         "kappa1": 0.75, "kappa2": 0.5},
    ]
    text = emit_sweep(rows, "csv")
    assert text == "q,qOverN,gamma,lambda,kappa1,kappa2\n2,1/2,1.0,0.5,0.75,0.5\n"
    payload = json.loads(emit_sweep(rows, "json"))
    assert payload[0]["qOverN"] == "1/2"


def test_emission_is_deterministic(example_set):
    first = emit_report(score(example_set, ScoreParams(q=3, lam=0.5)))
    second = emit_report(score(example_set, ScoreParams(q=3, lam=0.5)))
    assert first == second


def test_emit_rejects_unknown_format_and_type(example_set):
    rep = score(example_set, ScoreParams(q=3))
    with pytest.raises(ParameterError, match="unknown output format"):
        emit_report(rep, "yaml")
    with pytest.raises(ParameterError, match="cannot emit"):
        emit_report({"not": "a report"})


def test_correlation_and_sweep_json_match_json_dumps(example_set):
    avg = pairwise_average(example_set, "kendall_topk", TopKParams(k=3, p=0.5))
    assert emit_report(avg) == json.dumps({
        "measure": avg.measure,
        "per_ranking": list(avg.per_ranking),
        "overall": avg.overall,
        "overall_display": f"{avg.overall:.2f}",
    }, indent=2) + "\n"
    rows = [{"q": 2, "qOverN": "1/2", "gamma": 1.0, "lambda": 0.5, "kappa1": 0.75,
             "kappa2": 0.5}, {"q": 3, "qOverN": "2/3", "gamma": 0.5, "lambda": 1.0,
                              "kappa1": 1 / 3, "kappa2": 0.0}]
    assert emit_sweep(rows, "json") == json.dumps(rows, indent=2) + "\n"


# --- emission against per-vote reference payloads -----------------------------
#
# The emitter renders each distinct row once. These functions make one payload
# row per vote, as plain dicts for ``json.dumps(indent=2)`` and ``csv``, and
# are the reference its bytes must equal.

def _disp(value):
    return f"{value:.2f}"


def reference_json(payload):
    return json.dumps(payload, indent=2) + "\n"


def reference_csv(fieldnames, rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def reference_sets(report):
    sets = report.sets
    return {
        "singles": sorted(sets.singles),
        "pairs": [list(p) for p in sorted(sets.pairs)],
        "per_ranking": [
            {
                "index": i,
                "singles": sorted(sets.per_type[t].singles),
                "pairs": [list(p) for p in sorted(sets.per_type[t].pairs)],
            }
            for i, t in enumerate(report.type_of)
        ],
    }


def reference_consensus(report):
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
                "index": l,
                "m": m,
                "n_pairs": n_pairs,
                "kappa1": kappa1,
                "kappa2": kappa2,
                "kappa1_display": _disp(kappa1),
                "kappa2_display": _disp(kappa2),
                "singleton": singleton,
            }
            for l, (m, n_pairs, kappa1, kappa2, singleton) in enumerate(per_vote(report))
        ],
    }


def reference_outliers(report, rescored=None):
    payload = {
        "thresholds": {"eps1": report.eps1, "eps2": report.eps2},
        "consensus": reference_consensus(report.consensus),
        "per_ranking": [
            {
                "index": l,
                "v1": v1,
                "v2": v2,
                "v1_display": _disp(v1),
                "v2_display": _disp(v2),
                "flagged": flagged,
            }
            for l, (v1, v2, flagged) in enumerate(per_vote(report))
        ],
        "flagged_indices": report.flagged_indices,
    }
    if rescored is not None:
        rescored_payload = reference_consensus(rescored)
        rescored_payload["original_indices"] = [l for l, (_, _, flagged)
                                                in enumerate(per_vote(report)) if not flagged]
        payload["rescored"] = rescored_payload
    return payload


SCORE_COLUMNS = ["index", "m", "kappa1", "kappa2", "v1", "v2", "flagged"]


def reference_score_rows(report, outliers):
    rows = []
    deviations = per_vote(outliers) if outliers else [None] * report.n_rankings
    for l, ((m, _, kappa1, kappa2, _), d) in enumerate(zip(per_vote(report), deviations)):
        rows.append(
            {
                "index": l,
                "m": m,
                "kappa1": repr(kappa1),
                "kappa2": repr(kappa2),
                "v1": repr(d[0]) if d else "",
                "v2": repr(d[1]) if d else "",
                "flagged": "true" if d and d[2] else "false",
            }
        )
    return rows


def reference_pattern_rows(report):
    payload = reference_sets(report)
    rows = []
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
    return rows


# names that JSON must escape or CSV must quote
AWKWARD = ("a", 'say "hi"', "back\\slash", "caf\u00e9", "\u65e5\u672c", "x,y", "two\nlines", "{b}")


@st.composite
def voted_sets_st(draw):
    """Votes drawn with repetition from a few distinct rankings, so most
    votes repeat one; tie blocks and one-item rankings occur."""
    pool = draw(st.lists(rankings_st(universe=AWKWARD), min_size=1, max_size=4))
    votes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return RankingSet(votes)


def assert_emits_reference(rset, params):
    rep = score(rset, params)
    consensus = reference_consensus(rep)
    consensus["support"] = reference_sets(rep)
    assert emit_report(rep) == reference_json(consensus)
    assert emit_report(rep, "csv") == reference_csv(SCORE_COLUMNS, reference_score_rows(rep, None))
    patterns = {"q": rep.params.q, "n_rankings": rep.n_rankings}
    patterns.update(reference_sets(rep))
    assert emit_patterns(rep) == reference_json(patterns)
    assert emit_patterns(rep, "csv") == reference_csv(["scope", "kind", "first", "second"],
                                                      reference_pattern_rows(rep))
    try:
        out = detect_outliers(rep)
    except DegenerateConsensusError:
        return
    assert emit_report(out) == reference_json(reference_outliers(out))
    assert emit_report(out, "csv") == reference_csv(SCORE_COLUMNS,
                                                    reference_score_rows(rep, out))
    try:
        rescored = remove_and_rescore(rset, out.flagged_indices, params)
    except ParameterError:  # every vote flagged
        return
    assert emit_report(out, rescored=rescored) == reference_json(reference_outliers(out, rescored))


@settings(max_examples=150, deadline=None)
@given(voted_sets_st(), st.data())
@example(RankingSet([Ranking.strict(["caf\u00e9"]), Ranking.strict(["x,y"])] * 3
                    + [Ranking([['say "hi"', "back\\slash"], ["two\nlines"]])]), None)
def test_emission_equals_the_per_vote_reference(rset, data):
    if data is None:
        params = ScoreParams(q=3, gamma=0.5, lam=0.5)
    else:
        params = ScoreParams(
            q=data.draw(st.integers(1, len(rset))),
            gamma=data.draw(st.sampled_from([1.0, 0.5, 0.3])),
            lam=data.draw(st.sampled_from([1.0, 0.7, 0.2])),
        )
    assert_emits_reference(rset, params)


def test_rows_are_rendered_once_per_distinct_ranking(monkeypatch):
    # 200 votes over 3 rankings whose rows differ in every list, interleaved
    kinds = [Ranking.strict("ba"), Ranking.strict("bca"), Ranking([["a", "b"], ["c"]])]
    rset = RankingSet([kinds[i % 5 % 3] for i in range(200)])
    rendered = []

    @dataclass(frozen=True)
    class CountingRows(rc_io._Rows):
        # counts the fields(key) calls of each row list, in the order made
        def __post_init__(self):
            slot = len(rendered)
            rendered.append(0)
            fields = self.fields

            def counted(key):
                rendered[slot] += 1
                return fields(key)

            object.__setattr__(self, "fields", counted)

    monkeypatch.setattr(rc_io, "_Rows", CountingRows)
    params = ScoreParams(q=100)
    rep = score(rset, params)
    out = detect_outliers(rep, eps1=2, eps2=2)  # no vote flagged
    rescored = remove_and_rescore(rset, out.flagged_indices, params)
    text = emit_report(rep)
    for emitted in (emit_report(rep, "csv"), emit_patterns(rep), emit_patterns(rep, "csv"),
                    emit_report(out, rescored=rescored), emit_report(out, "csv")):
        assert emitted
    # score JSON: per-ranking scores and sets; outliers: scores, deviations, rescored
    assert rendered == [3, 3, 3, 3, 3, 3, 3, 3, 3]
    assert len(per_vote(rescored)) == 200
    assert text.count('"index": ') == 400


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-2**200, max_value=2**200),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 5e-324]),
    st.sampled_from(AWKWARD),
    st.text(),
    st.text(st.characters(max_codepoint=0x1f)),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.sampled_from(AWKWARD), st.text()), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
@example([["a", "b"], ("café", "x,y")])
@example([("a", "b"), [], ["c"]])
@example({"rows": [[], [1, 2], (True, None, 2.5)], "": {}})
def test_renderer_lays_out_what_json_dumps_does(value):
    assert rc_io._json(value) == json.dumps(value, indent=2) + "\n"
