"""Same-process A/B of two source trees on one benchmark workload.

Usage:
    python scripts/ab_inproc.py PARENT_SRC CHANGE_SRC --workload NAME [--reps N]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each one's ``rank_consensus`` package is copied into one temporary
directory under its own name and imported from there, which works because
the package imports its own modules only relatively. The workload's input
is generated at seed 1 by this checkout's ``perfbench/workloads.py``. Every
rep calls both sides' ``cli.main`` on it, the side that goes first swapping
from rep to rep, and the script exits 1 as soon as a call fails or the two
outputs differ. It prints each side's quartiles of the time per call and
the number of reps in which the change was faster.

Separate processes on a shared machine swing by tens of percent between
rounds; two trees alternated in one process see the same load, caches and
interpreter, so a difference of a few milliseconds shows.
"""
import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SIDES = ("parent", "change")
PACKAGES = tuple(f"ab_{side}" for side in SIDES)


def load_workloads():
    name = "ab_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    # its dataclass looks itself up there
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def load_cli(src: Path, name: str, into: Path):
    package = src / "rank_consensus"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: {src} holds no rank_consensus package")
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def call(cli, argv: list[str]) -> tuple[float, str]:
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        status = cli.main(argv)
        elapsed = time.perf_counter() - start
    if status != 0:
        raise SystemExit(f"error: {cli.__name__} exited {status}")
    return elapsed, out.getvalue()


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", choices=sorted(workloads), required=True)
    parser.add_argument("--reps", type=int, default=20, help="timed reps (default: 20)")
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2")
    w = workloads[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        try:
            clis = {side: load_cli(src, name, tmp) for side, name, src
                    in zip(SIDES, PACKAGES, (args.parent_src, args.change_src))}
            path = tmp / f"{w.name}{w.suffix}"
            path.write_text(w.render(w.generate(random.Random(1))))
            cli_argv = [w.args[0], str(path), *w.args[1:]]
            times = {side: [] for side in SIDES}
            for rep in range(args.reps + 1):  # rep 0 warms both sides up
                order = SIDES if rep % 2 else SIDES[::-1]
                outs = {}
                for side in order:
                    elapsed, outs[side] = call(clis[side], cli_argv)
                    if rep:
                        times[side].append(elapsed)
                if outs["parent"] != outs["change"]:
                    print(f"error: outputs differ in rep {rep}", file=sys.stderr)
                    return 1
        finally:
            sys.path.remove(str(tmp))
            for name in [m for m in sys.modules if m.partition(".")[0] in PACKAGES]:
                del sys.modules[name]
    print(f"{w.name}: {args.reps} reps, seed 1, time per cli.main call")
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(times[side], n=4)
        print(f"{side}: median {median:.4f} s, quartiles [{q1:.4f}, {q3:.4f}]")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"change faster in {wins} of {args.reps} reps")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
