import importlib.util
import re
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
