import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rank_consensus import cli, model, reference, scores


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


@pytest.mark.parametrize("argv", [
    ("--measure", "kendall_topk", "--topk", "0"),
    ("--measure", "kendall_topk", "--topk", "3", "--penalty", "2"),
    ("--measure", "spearman_topk", "--topk", "3", "--ell", "1"),
    ("--measure", "spearman_topk", "--topk", "2", "--ell", str(10**155)),
])
def test_topk_parameter_errors_name_no_ranking_pair(example_file, capsys, argv):
    code, out, err = run(capsys, "correlate", example_file, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "rankings" not in err and "(0, 1)" not in err


@pytest.mark.parametrize("argv, flag", [
    (("correlate", "--measure", "kendall", "--topk", "2"), "--topk"),
    (("correlate", "--measure", "spearman", "--topk", "2"), "--topk"),
    (("correlate", "--penalty", "0.5"), "--penalty"),
    (("correlate", "--measure", "spearman_topk", "--topk", "2", "--penalty", "0"), "--penalty"),
    (("correlate", "--ell", "3"), "--ell"),
    (("correlate", "--measure", "kendall_topk", "--topk", "2", "--ell", "3"), "--ell"),
    (("outliers", "--absolute-q"), "--absolute-q"),
])
def test_a_flag_the_command_would_ignore_exits_one_naming_it(example_file, capsys, argv,
                                                             flag):
    code, out, err = run(capsys, argv[0], example_file, *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1


def test_kendall_topk_penalty_defaults_to_zero(example_file, capsys):
    argv = ("correlate", example_file, "--measure", "kendall_topk", "--topk", "3")
    assert run(capsys, *argv) == run(capsys, *argv, "--penalty", "0")


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
    ["score", "--q-frac", "1e400"],
    ["sweep", "--q-fracs", "1e5000"],
    ["score", "--q-frac", ""],
])
def test_bad_threshold_text_exits_one(example_file, capsys, argv):
    code, out, err = run(capsys, argv[0], example_file, *argv[1:])
    assert code == 1
    assert out == ""
    assert repr(argv[-1]) in err
    assert argv[1] in err
    assert len(err) < 200


@pytest.mark.parametrize("flag", ["--q-fracs", "--gammas", "--lambdas"])
def test_empty_sweep_list_exits_one(example_file, capsys, flag):
    code, out, err = run(capsys, "sweep", example_file, flag, ",")
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} is empty\n"


def test_non_utf8_file_exits_one(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"a,b\nb,\xff\n")
    code, out, err = run(capsys, "score", str(path))
    assert code == 1
    assert out == ""
    assert str(path) in err
    assert "byte offset 6" in err


@pytest.mark.parametrize("fmt, text, argv", [
    ("lines", "a,b\nb,a\n", ["patterns", "--q", "2"]),
    ("preflib", "# ALTERNATIVE NAME 1: a\n# ALTERNATIVE NAME 2: b\n2: 1,2\n1: 2,1\n", ["score"]),
])
def test_byte_order_mark_prints_the_same_bytes(tmp_path, capsys, fmt, text, argv):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    outs = []
    for path in (plain, marked):
        code, out, err = run(capsys, argv[0], str(path), "--input-format", fmt, *argv[1:])
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert '"a"' in outs[1] and "\\ufeff" not in outs[1]


def test_huge_vote_count_exits_one(tmp_path, capsys):
    path = tmp_path / "huge.soc"
    path.write_text("100000000000000000: a,b\n")
    code, out, err = run(capsys, "score", str(path), "--input-format", "preflib")
    assert code == 1
    assert out == ""
    assert f"{path}:1:" in err


def test_all_singleton_outliers_exit_one_naming_the_cause(tmp_path, capsys):
    path = tmp_path / "single.soc"
    path.write_text("1: a\n1: b\n")
    code, out, err = run(capsys, "outliers", str(path), "--input-format", "preflib")
    assert code == 1
    assert out == ""
    assert "every ranking has a single item" in err


COUNTED = "3: a,b,{c,d}\n2: b,a,c\n1: d\n4: c,{a,b}\n"
EXPANDED = "a,b,{c,d}\n" * 3 + "b,a,c\n" * 2 + "d\n" + "c,{a,b}\n" * 4


@pytest.mark.parametrize("argv", [
    ["score", "--gamma", "0.5", "--lambda", "0.7"],
    ["outliers", "--remove"],
    ["sweep", "--q-fracs", "1/2,0.7,1", "--lambdas", "1,0.5"],
])
def test_counted_and_expanded_votes_print_the_same_bytes(tmp_path, capsys, argv):
    counted = tmp_path / "votes.soc"
    counted.write_text(COUNTED)
    expanded = tmp_path / "votes.txt"
    expanded.write_text(EXPANDED)
    outs = []
    for path, fmt in [(counted, "preflib"), (expanded, "lines"), (counted, "preflib")]:
        code, out, err = run(capsys, argv[0], str(path), "--input-format", fmt, *argv[1:])
        assert (code, err) == (0, "")
        outs.append(out.encode("utf-8"))
    assert outs[0] == outs[1] == outs[2]


# --- any input ends in exit 0 or 1 ---------------------------------------------

def run_captured(argv):
    """``cli.main`` with its stdout and stderr captured; hypothesis runs many
    examples per test, which capsys does not reset between."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("property")


# bytes near both grammars, and arbitrary ones
file_bytes = st.one_of(
    st.binary(max_size=80),
    st.text(st.sampled_from("ab1 2,{}#:\n\r\ufeff\u00e9-0"), max_size=60).map(str.encode),
)


@settings(max_examples=150, deadline=None)
@given(data=file_bytes, fmt=st.sampled_from(["lines", "preflib"]),
       command=st.sampled_from(["score", "patterns"]))
def test_any_file_exits_zero_or_one_naming_it(workdir, data, fmt, command):
    path = workdir / "input.txt"
    path.write_bytes(data)
    code, out, err = run_captured([command, str(path), "--input-format", fmt])
    assert code in (0, 1)
    if code:
        assert out == ""
        assert str(path) in err
    else:
        assert out and err == ""


@pytest.mark.parametrize("command", ["score", "patterns", "outliers", "sweep"])
def test_a_pattern_table_over_the_bound_exits_one(example_file, capsys, monkeypatch, command):
    monkeypatch.setattr(model, "MAX_ENTRIES", 83)  # the four 6-item rankings own 84
    code, out, err = run(capsys, command, example_file)
    assert (code, out) == (1, "")
    assert err == (f"error: {example_file}: vote 0 ranks 6 items; the distinct rankings "
                   "would need 84 pattern table entries, above the limit of 83\n")


def test_a_ranking_just_over_the_real_bound_exits_one(tmp_path, capsys):
    # 2449 items own 2449 * 2450 / 2 = 3 000 025 entries, 25 over the limit
    path = tmp_path / "long.txt"
    path.write_text("a,b\n" + ",".join(f"item{i}" for i in range(2449)) + "\n")
    code, out, err = run(capsys, "score", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: vote 1 ranks 2449 items; the distinct rankings would need "
                   "3000028 pattern table entries, above the limit of 3000000\n")


threshold_text = st.one_of(
    st.text(max_size=12),
    st.text(st.sampled_from("0123456789./-+e_ nainf,"), max_size=12),
    st.integers(-10**400, 10**400).map(str),
    st.just("9" * 400),
)


def value_options():
    """``(subcommand, flag)`` of every option that takes a value."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[-1])
            for command, parser in sub.choices.items()
            for action in parser._actions
            if action.option_strings and action.nargs is None]


@settings(max_examples=300, deadline=None)
@given(text=threshold_text, flag=st.sampled_from(value_options()),
       measure=st.sampled_from(["kendall_topk", "spearman_topk"]))
@example(text="--", flag=("score", "--q-frac"), measure="kendall_topk")
@example(text="--", flag=("score", "--gamma"), measure="kendall_topk")
@example(text="--", flag=("outliers", "--lambda"), measure="kendall_topk")
@example(text="--", flag=("sweep", "--q-fracs"), measure="kendall_topk")
@example(text="--", flag=("sweep", "--gammas"), measure="kendall_topk")
@example(text=str(10**100), flag=("correlate", "--ell"), measure="spearman_topk")
@example(text=str(10**155), flag=("correlate", "--ell"), measure="spearman_topk")
@example(text="9" * 400, flag=("correlate", "--ell"), measure="spearman_topk")
def test_any_parameter_text_exits_zero_or_one(workdir, text, flag, measure):
    path = workdir / "rankings.txt"
    path.write_text("a,b,c\nb,a,c\na,c\n")
    command, option = flag
    # a top-k measure needs --topk; a drawn --measure or --topk comes later
    # and so replaces these
    needs = ["--measure", measure, "--topk", "2"] if command == "correlate" else []
    code, out, err = run_captured([command, str(path), *needs, f"{option}={text}"])
    assert code in (0, 1)
    if code:
        assert out == ""
        assert err
    else:
        assert out and err == ""


@pytest.mark.parametrize("command, flag", value_options())
def test_separator_as_an_option_value_exits_one_naming_the_flag(example_file, capsys,
                                                                 command, flag):
    # argparse stores [] for "--flag=--" and never calls the option's type
    code, out, err = run(capsys, command, example_file, f"{flag}=--")
    assert (code, out) == (1, "")
    assert err == f"error: {flag} needs a value, got '--'\n"


@pytest.mark.parametrize("argv", [
    ("score", "--format", "json"),
    ("score", "--format", "csv"),
    ("patterns", "--format", "json"),
    ("patterns", "--format", "csv"),
    ("outliers", "--q", "3", "--remove"),
    ("sweep",),
])
def test_commands_build_no_matrix_and_call_no_oracle(example_file, capsys, monkeypatch, argv):
    command, *options = argv
    want = run(capsys, command, example_file, *options)

    def refuse(*args, **kwargs):
        raise AssertionError("a command built per-vote matrices or called the oracle")

    monkeypatch.setattr(scores, "support_matrices_fast", refuse)
    for name in ("support_sets", "support_matrix_naive"):
        monkeypatch.setattr(reference, name, refuse)
    monkeypatch.setattr(scores, "support_sets", refuse)
    assert run(capsys, command, example_file, *options) == want
    assert want[0] == 0


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


# --- writing the report --------------------------------------------------------

@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_one_with_one_error_line(tmp_path, unbuffered):
    path = tmp_path / "votes.soc"
    path.write_text("3000: a,b,c\n3000: b,a,c\n1: c\n")  # megabytes of JSON, past a pipe's 64 KB
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"  # a raw stdout, which accepts short writes
    with subprocess.Popen(
        [sys.executable, "-m", "rank_consensus.cli", "outliers", str(path),
         "--input-format", "preflib", "--remove"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
    assert err.startswith("error: cannot write the report: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc")
def test_a_failed_write_leaves_no_file_open(example_file, monkeypatch):
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(3):
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert cli.main(["score", example_file]) == 1
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unencodable_report_exits_one_with_one_error_line(tmp_path, fmt):
    path = tmp_path / "rankings.txt"
    path.write_text("é,b\nb,é\n", encoding="utf-8")
    env = {**os.environ, "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(
        [sys.executable, "-m", "rank_consensus.cli", "patterns", str(path), "--q", "1",
         "--format", fmt], capture_output=True, env=env)
    if fmt == "json":  # JSON escapes every non-ASCII character
        assert proc.returncode == 0 and proc.stderr == b""
        assert "é" in json.loads(proc.stdout)["singles"]
        return
    assert proc.returncode == 1
    assert proc.stdout == b""
    err = proc.stderr.decode("ascii")
    assert err.startswith("error: cannot write the report: ") and "ascii" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use, which costs a start-up's worth
    # of time and memory; no command route may call it
    path = tmp_path / "rankings.txt"
    path.write_text("a,{b,c},d\nb,a,c\n{a,d},c\na,b,c,d\nd,c\n")
    script = (
        "import sys\n"
        "from rank_consensus import cli\n"
        f"path = {str(path)!r}\n"
        "weights = ['--gamma', '0.5', '--lambda', '0.3']\n"
        "for argv in (['score', path, *weights], ['patterns', path, *weights],\n"
        "             ['outliers', path, '--remove', *weights],\n"
        "             ['sweep', path, '--gammas', '1,0.5', '--lambdas', '0.3']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy.ma' or m.startswith('numpy.ma.')), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


class Trickle(io.RawIOBase):
    """A raw file that takes at most two bytes per write."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += bytes(b[:2])
        return min(len(b), 2)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", [
    ["score", "--q", "2"],
    ["patterns", "--q", "2"],
    ["outliers", "--q", "2", "--remove"],
    ["sweep", "--q-fracs", "1/2,1", "--lambdas", "1,0.5"],
    ["correlate", "--measure", "spearman"],
])
def test_stdout_is_the_emitted_report_written_in_slices(tmp_path, monkeypatch, argv, fmt,
                                                        unbuffered):
    # the patterns CSV prints the name as it is, two bytes for its last letter
    path = tmp_path / "rankings.txt"
    path.write_text("café,b,c,d\nb,café,c,d\nc,b,café,d\nd,c,b,café\n",
                    encoding="utf-8")
    emitted = []
    for name in ("emit_report", "emit_patterns", "emit_sweep"):
        def record(*args, _emit=getattr(cli, name), **kwargs):
            emitted.append(_emit(*args, **kwargs))
            return emitted[-1]

        monkeypatch.setattr(cli, name, record)
    monkeypatch.setattr(cli, "_SLICE", 3)
    # a byte-order mark starts the stream once, however many slices follow
    for encoding in ("utf-8", "utf-8-sig", "utf-16"):
        emitted.clear()
        if unbuffered:  # python -u's stdout, layered as the process entry layers it
            raw = Trickle()
            unbuffered_stdout = io.TextIOWrapper(raw, encoding=encoding, write_through=True)
            stream = cli._buffered(unbuffered_stdout)
        else:
            raw = io.BytesIO()
            stream = io.TextIOWrapper(raw, encoding=encoding)
        monkeypatch.setattr(sys, "stdout", stream)
        code = cli.main([argv[0], str(path), "--format", fmt, *argv[1:]])
        assert code == 0
        assert len(emitted) == 1
        data = raw.data if unbuffered else raw.getvalue()
        expected = emitted[0].encode(encoding)
        if unbuffered and encoding == "utf-16":
            # Python's text layer starts UTF-16 without a mark on a file it
            # cannot seek, so a buffered stdout writes none to a pipe either
            expected = emitted[0].encode(f"utf-16-{sys.byteorder[0]}e")
        assert bytes(data) == expected, encoding
