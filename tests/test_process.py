"""The CLI as a process: how it starts, how it exits, and the bytes it
leaves on stdout."""
import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rank_consensus
from rank_consensus import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rank_consensus"
# the variables OpenBLAS reads its thread count from
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
COMMANDS = [
    ["score", "--q", "2"],
    ["patterns", "--q", "2", "--format", "csv"],
    ["outliers", "--q", "2", "--remove"],
    ["sweep", "--q-fracs", "1/2,1", "--lambdas", "1,0.5"],
    ["correlate", "--measure", "spearman"],
]


@pytest.fixture
def votes(tmp_path) -> str:
    path = tmp_path / "rankings.txt"
    # strict, as the correlations need; the patterns CSV prints the name
    # as it is, two bytes for its last letter
    path.write_text("café,b,c,d\nb,café,c,d\nc,b,café,d\nd,c,b,café\n",
                    encoding="utf-8")
    return str(path)


def child_env(unbuffered: bool = False, **extra: str) -> dict[str, str]:
    """This process's environment without the BLAS thread settings, which
    importing ``cli`` here sets, and with the package's sources on the path."""
    env = {k: v for k, v in os.environ.items()
           if k not in (*THREAD_VARS, "PYTHONUNBUFFERED", "PYTHONIOENCODING")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                      os.environ.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return {**env, **extra}


def in_process(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def python(*args: str, env: dict[str, str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          timeout=120, **kwargs)


# --- start-up ------------------------------------------------------------------

def after_a_run(votes: str, env: dict[str, str]) -> list[str]:
    """A child's BLAS thread setting and its thread count, ``-`` without
    /proc, after a CLI run."""
    # ``python -m rank_consensus.cli`` imports the package, then cli, as here
    script = (
        "import os, sys\n"
        "from rank_consensus import cli\n"
        f"assert cli.main(['score', {votes!r}]) == 0\n"
        "tasks = '/proc/self/task'\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'],\n"
        "      len(os.listdir(tasks)) if os.path.isdir(tasks) else '-', file=sys.stderr)\n"
    )
    proc = python("-c", script, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
def test_a_cli_run_has_one_thread(votes):
    assert after_a_run(votes, child_env()) == ["1", "1"]


def test_the_users_blas_thread_count_is_kept(votes):
    assert after_a_run(votes, child_env(OPENBLAS_NUM_THREADS="2"))[0] == "2"


def test_importing_the_package_loads_no_numpy_and_sets_no_variable():
    script = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import rank_consensus\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
    )
    proc = python("-c", script, env=child_env(), text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\n"


def test_every_public_name_is_its_modules_own_object():
    listed = dir(rank_consensus)
    for name in rank_consensus.__all__:
        value = getattr(rank_consensus, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
        assert name in listed, name
    assert rank_consensus.support_matrix_naive.__module__ == "rank_consensus.reference"
    with pytest.raises(AttributeError, match="no_such_name"):
        rank_consensus.no_such_name  # noqa: B018


def test_no_source_line_calls_blas():
    # why one BLAS thread cannot change a byte: nothing reaches a BLAS routine
    routines = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum", "linalg"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = set()
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names.add("@")
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(part for alias in node.names for part in alias.name.split("."))
            found += [f"{path.name}:{node.lineno}: {n}"
                      for n in sorted(names & (routines | {"@"}))]
    assert found == []


# --- exit ----------------------------------------------------------------------

@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_a_child_prints_what_main_returns_in_process(votes, argv, unbuffered):
    argv = [argv[0], votes, *argv[1:]]
    proc = python("-m", "rank_consensus.cli", *argv,
                  env=child_env(unbuffered, PYTHONIOENCODING="utf-8"))
    assert (proc.returncode, proc.stdout) == in_process(argv)
    assert proc.stderr == b""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_parse_error_exits_one_with_one_error_line(tmp_path, unbuffered):
    path = tmp_path / "rankings.txt"
    path.write_text("a,b\n{a,b\n")
    proc = python("-m", "rank_consensus.cli", "score", str(path),
                  env=child_env(unbuffered), text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_failed_flush_at_exit_exits_one_with_one_error_line(unbuffered):
    # --help leaves its text in stdout's buffer for the exit to flush
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "rank_consensus.cli", "--help"],
                              stdout=write, stderr=subprocess.PIPE,
                              env=child_env(unbuffered), text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write the report: ")
    assert proc.stderr.count("\n") == 1


def test_the_console_script_is_the_process_entry(votes):
    script = re.search(r'^rank-consensus = "(.+)"$', (ROOT / "pyproject.toml").read_text(),
                       re.M).group(1)
    module, _, function = script.partition(":")
    assert (module, function) == ("rank_consensus.cli", "entry_point")
    # teardown runs the atexit handlers; the entry exits without it
    runner = (
        "import atexit, sys\n"
        "atexit.register(print, 'teardown', file=sys.stderr)\n"
        f"from {module} import {function}\n"
        f"sys.argv[1:] = {['outliers', votes, '--remove']!r}\n"
        f"{function}()\n"
    )
    proc = python("-c", runner, env=child_env(PYTHONIOENCODING="utf-8"))
    assert (proc.returncode, proc.stdout) == in_process(["outliers", votes, "--remove"])
    assert proc.stderr == b""


# --- stdout's bytes --------------------------------------------------------------

@pytest.mark.parametrize("to_file", [False, True], ids=["pipe", "file"])
@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16"])
def test_unbuffered_stdout_gets_the_bytes_of_a_buffered_one(votes, tmp_path, encoding,
                                                            to_file):
    outputs = []
    for unbuffered in (False, True):
        argv = ["-m", "rank_consensus.cli", "patterns", votes, "--q", "1", "--format", "csv"]
        env = child_env(unbuffered, PYTHONIOENCODING=encoding)
        if to_file:
            out = tmp_path / f"out-{unbuffered}"
            with open(out, "wb") as f:
                proc = subprocess.run([sys.executable, *argv], stdout=f, env=env,
                                      timeout=120)
            outputs.append(out.read_bytes())
        else:
            proc = python(*argv, env=env)
            outputs.append(proc.stdout)
        assert proc.returncode == 0
    assert outputs[0] and outputs[0] == outputs[1]
