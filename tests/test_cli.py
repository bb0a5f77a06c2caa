import json
import subprocess
import sys

import pytest

from rank_consensus import cli


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "rankings.txt"
    path.write_text("a,b,c,d,e,f\nb,c,d,e,f,a\nb,d,a,g,h,f\nb,a,c,d,f,e\n")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_score_json(example_file, capsys):
    code, out, err = run(capsys, "score", example_file, "--q", "3")
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["params"]["q"] == 3
    assert payload["overall"]["kappa1_display"] == "0.92"
    assert payload["overall"]["kappa2_display"] == "0.60"


def test_score_default_threshold_is_half(example_file, capsys):
    code, out, _ = run(capsys, "score", example_file)
    assert code == 0
    assert json.loads(out)["params"]["q"] == 2  # ceil(4/2)


def test_score_q_frac(example_file, capsys):
    code, out, _ = run(capsys, "score", example_file, "--q-frac", "2/3")
    assert code == 0
    assert json.loads(out)["params"]["q"] == 3  # ceil(8/3)


def test_score_csv(example_file, capsys):
    code, out, _ = run(capsys, "score", example_file, "--q", "3", "--format", "csv")
    assert code == 0
    assert out.startswith("index,m,kappa1,kappa2,v1,v2,flagged\n")
    assert out.count("\n") == 5


def test_weight_flags(example_file, capsys):
    code, out, _ = run(capsys, "score", example_file, "--q", "3",
                       "--gamma", "0.5", "--lambda", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["gamma"] == 0.5
    assert payload["params"]["lambda"] == 0.5
    assert payload["per_ranking"][0]["kappa1"] == pytest.approx(0.6566690703622281)


def test_patterns_subcommand(example_file, capsys):
    code, out, _ = run(capsys, "patterns", example_file, "--q", "3", "--format", "csv")
    assert code == 0
    assert "set,pair,b,c" in out


def test_outliers_subcommand(example_file, capsys):
    code, out, _ = run(capsys, "outliers", example_file, "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["flagged_indices"] == [2]
    assert "rescored" not in payload


def test_outliers_remove(example_file, capsys):
    code, out, _ = run(capsys, "outliers", example_file, "--q", "3", "--remove")
    assert code == 0
    payload = json.loads(out)
    assert payload["rescored"]["original_indices"] == [0, 1, 3]
    assert payload["rescored"]["params"]["q"] == 3


def test_outliers_custom_epsilons(example_file, capsys):
    code, out, _ = run(capsys, "outliers", example_file, "--q", "3",
                       "--eps1", "5", "--eps2", "5")
    assert code == 0
    assert json.loads(out)["flagged_indices"] == []


def test_sweep_grid(example_file, capsys):
    code, out, _ = run(capsys, "sweep", example_file,
                       "--q-fracs", "0.5,0.75", "--lambdas", "1,0.5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "q,qOverN,gamma,lambda,kappa1,kappa2"
    assert len(lines) == 1 + 2 * 2
    assert lines[1].startswith("2,0.5,1.0,1.0,")


def test_sweep_json(example_file, capsys):
    code, out, _ = run(capsys, "sweep", example_file, "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["qOverN"] == "1/2"


def test_correlate_topk(example_file, capsys):
    code, out, _ = run(capsys, "correlate", example_file,
                       "--measure", "kendall_topk", "--topk", "3", "--penalty", "0.5")
    assert code == 0
    assert json.loads(out)["measure"] == "kendall_topk"


def test_correlate_requires_topk_flag(example_file, capsys):
    code, _, err = run(capsys, "correlate", example_file, "--measure", "spearman_topk")
    assert code == 1
    assert "--topk" in err


def test_correlate_incomparable_universes(example_file, capsys):
    code, _, err = run(capsys, "correlate", example_file, "--measure", "kendall")
    assert code == 1
    assert "(0, 2)" in err


def test_preflib_input(tmp_path, capsys):
    path = tmp_path / "toy.toc"
    path.write_text("# ALTERNATIVE NAME 1: x\n# ALTERNATIVE NAME 2: y\n2: 1,2\n1: 2,1\n")
    code, out, _ = run(capsys, "score", str(path), "--input-format", "preflib", "--q", "2")
    assert code == 0
    assert json.loads(out)["n_rankings"] == 3


def test_missing_file_exits_one(capsys):
    code, out, err = run(capsys, "score", "/no/such/file")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_malformed_input_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("a,{b\n")
    code, _, err = run(capsys, "score", str(path))
    assert code == 1
    assert "bad.txt:1" in err


def test_bad_parameter_exits_one(example_file, capsys):
    code, _, err = run(capsys, "score", example_file, "--q", "99")
    assert code == 1
    assert "q must be in" in err


def test_conflicting_q_flags_exit_one(example_file, capsys):
    code, _, _ = run(capsys, "score", example_file, "--q", "2", "--q-frac", "0.5")
    assert code == 1


def test_unknown_flag_exits_one(example_file, capsys):
    assert cli.main(["score", example_file, "--nope"]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["score", "--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["score", "--q-frac", "abc"],
    ["score", "--q-frac", "nan"],
    ["sweep", "--q-fracs", "1/0"],
])
def test_bad_threshold_text_exits_one(example_file, capsys, argv):
    code, out, err = run(capsys, argv[0], example_file, *argv[1:])
    assert code == 1
    assert out == ""
    assert repr(argv[-1]) in err


def test_non_utf8_file_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"a,b\nb,\xff\n")
    code, out, err = run(capsys, "score", str(path))
    assert code == 1
    assert out == ""
    assert str(path) in err
    assert "byte offset 6" in err


def test_unexpected_failure_exits_two(example_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("surprise")

    monkeypatch.setattr(cli, "score", boom)
    code, _, err = run(capsys, "score", example_file, "--q", "3")
    assert code == 2
    assert "internal error" in err


def test_console_entry_point(example_file):
    proc = subprocess.run(
        [sys.executable, "-m", "rank_consensus.cli", "score", example_file, "--q", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["params"]["q"] == 3
