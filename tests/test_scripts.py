import importlib.util
import re
import shutil
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dots_analysis_drops_the_votes_of_the_deviant_types(tmp_path, capsys):
    names = "".join(f"# ALTERNATIVE NAME {i}: dots{i}\n" for i in range(1, 5))
    elections = {
        "easy.soc": {"1,2,3,4": 40, "1,3,2,4": 9, "2,1,3,4": 7, "4,3,2,1": 2, "1,2,4,3": 5},
        "hard.soc": {"1,2,3,4": 12, "2,1,3,4": 10, "1,3,2,4": 8, "3,4,1,2": 3,
                     "4,3,1,2": 4, "2,1,4,3": 6},
    }
    for name, votes in elections.items():
        lines = "".join(f"{count}: {order}\n" for order, count in votes.items())
        (tmp_path / name).write_text(names + lines)
    dots = load_script("dots_analysis")
    assert dots.main([str(tmp_path)]) == 0
    sections = capsys.readouterr().out.split("\n=== ")[1:]
    assert len(sections) == len(elections)
    for section, votes in zip(sections, elections.values()):
        n = int(re.search(r": N=(\d+),", section).group(1))
        dropped = [int(v) for v in re.findall(r"  v2=\S+  votes=(\d+)", section)]
        n_left = int(re.search(r"after removal: N'=(\d+),", section).group(1))
        assert n == sum(votes.values())
        assert len(dropped) == 4
        assert n_left == n - sum(dropped)


def test_dots_analysis_exits_one_when_no_pair_is_supported(tmp_path, capsys):
    # every item is in two of the four votes but every pair in only one, so
    # the weighted kappa2 mean at q = 2 is 0 and v2 is undefined
    names = "".join(f"# ALTERNATIVE NAME {i}: dots{i}\n" for i in range(1, 5))
    (tmp_path / "flat.soc").write_text(names + "1: 1,2\n1: 3,4\n1: 1,3\n1: 2,4\n")
    dots = load_script("dots_analysis")
    assert dots.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: relative deviations are undefined")
    assert err.count("\n") == 1


def test_dots_analysis_reports_an_unreadable_file(tmp_path, capsys):
    (tmp_path / "folder.soc").mkdir()  # matches the glob but cannot be read
    dots = load_script("dots_analysis")
    assert dots.main([str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "folder.soc" in err and err.count("\n") == 1


def test_ab_inproc_alternates_two_trees_on_one_workload(capsys):
    src = SCRIPTS.parent / "src"
    ab = load_script("ab_inproc")
    assert ab.main([str(src), str(src), "--workload", "retrieval", "--reps", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "retrieval: 2 reps, seed 1, time per cli.main call"
    assert [line.split(":")[0] for line in out[1:3]] == ["parent", "change"]
    assert re.fullmatch(r"change faster in [0-2] of 2 reps", out[3])
    assert not any(m.startswith(("ab_parent", "ab_change")) for m in sys.modules)


def test_ab_inproc_fails_when_the_outputs_differ(tmp_path, capsys):
    src = SCRIPTS.parent / "src"
    shutil.copytree(src / "rank_consensus", tmp_path / "rank_consensus",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "rank_consensus" / "cli.py"
    cli.write_text(cli.read_text().replace("_write(out)", "_write(out + ' ')"))
    ab = load_script("ab_inproc")
    assert ab.main([str(src), str(tmp_path), "--workload", "retrieval", "--reps", "2"]) == 1
    assert capsys.readouterr().err == "error: outputs differ in rep 0\n"


def test_ab_spawn_alternates_two_trees_in_child_processes(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # as when run from there
    src = SCRIPTS.parent / "src"
    ab = load_script("ab_spawn")
    assert ab.main([str(src), str(src), "--workload", "retrieval", "--reps", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "retrieval: 2 reps, seed 1, one child process per run"
    for line, side in zip(out[1:3], ab.SIDES):
        assert re.fullmatch(rf"{side}: wall median \S+ s, quartiles \[\S+, \S+\]; "
                            r"cpu median \S+ s, quartiles \[\S+, \S+\]", line)
    assert re.fullmatch(r"change faster in [0-2] of 2 reps", out[3])


def test_ab_spawn_fails_when_the_outputs_differ(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    src = SCRIPTS.parent / "src"
    shutil.copytree(src / "rank_consensus", tmp_path / "rank_consensus",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "rank_consensus" / "cli.py"
    cli.write_text(cli.read_text().replace("_write(out)", "_write(out + ' ')"))
    ab = load_script("ab_spawn")
    assert ab.main([str(src), str(tmp_path), "--workload", "retrieval", "--reps", "2"]) == 1
    assert capsys.readouterr().err == "error: outputs differ in rep 0\n"
