import json

import pytest
from hypothesis import given, settings

from conftest import ranking_sets_st
from rank_consensus import (
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
    parse_rankings_text,
    remove_and_rescore,
    render_rankings,
    score,
)

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
])
def test_parse_lines_errors(bad, message):
    with pytest.raises(ParseError, match=message):
        parse_rankings_text(bad + "\n")


def test_parse_errors_carry_source_and_line():
    with pytest.raises(ParseError, match=r"votes.txt:3"):
        parse_rankings_text("a,b\nc,d\na,a\n", source="votes.txt")


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
    ("x: 1,2\n", "not an integer"),
    ("1,2,3\n", "expected 'count: order'"),
    ("# TITLE: empty\n", "no rankings"),
])
def test_parse_preflib_errors(bad, message):
    with pytest.raises(ParseError, match=message):
        parse_rankings_text(bad, fmt="preflib")


def test_parse_preflib_name_collision():
    text = "# ALTERNATIVE NAME 1: same\n# ALTERNATIVE NAME 2: same\n1: 1,2\n"
    with pytest.raises(ParseError, match="after renaming"):
        parse_rankings_text(text, fmt="preflib")


def test_render_round_trip(example_set):
    assert parse_rankings_text(render_rankings(example_set)) == example_set


def test_render_uses_braces_for_ties():
    rs = RankingSet([Ranking([["b"], ["c", "d"], ["a"]])])
    assert render_rankings(rs) == "b,{c,d},a\n"


@settings(max_examples=60, deadline=None)
@given(ranking_sets_st())
def test_render_round_trip_random(rset):
    assert parse_rankings_text(render_rankings(rset)) == rset


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
    rescored = remove_and_rescore(example_set, out, params)
    payload = json.loads(emit_report(out, rescored=rescored))
    assert payload["thresholds"] == {"eps1": 0.4, "eps2": 0.4}
    assert payload["flagged_indices"] == [2]
    assert payload["per_ranking"][2]["flagged"] is True
    assert payload["per_ranking"][2]["v2_display"] == "-0.44"
    assert payload["rescored"]["original_indices"] == [0, 1, 3]
    assert payload["rescored"]["params"]["q"] == 3
    assert payload["rescored"]["n_rankings"] == 3


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
