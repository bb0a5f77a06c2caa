import importlib.util
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_weight_sweep_prints_one_row_per_fraction(tmp_path, capsys):
    path = tmp_path / "four.txt"
    path.write_text("a,b,c,d,e,f\nb,c,d,e,f,a\nb,d,a,g,h,f\nb,a,c,d,f,e\n")
    sweep = load_script("weight_sweep")
    assert sweep.main([str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if line.split()[:1] and line.split()[0] in sweep.Q_FRACS]
    assert len(rows) == 6
    for row in rows:
        assert len(re.findall(r"\b[01]\.\d\d/[01]\.\d\d\b", row)) == len(sweep.BASES)
