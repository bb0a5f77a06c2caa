"""Child-process A/B of two source trees on one benchmark workload.

Usage:
    python scripts/ab_spawn.py PARENT_SRC CHANGE_SRC --workload NAME [--reps N]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
The workload's input is generated at seed 1 by this checkout's
``perfbench/workloads.py``. Every rep runs ``python -m rank_consensus.cli``
once with each side's tree on ``PYTHONPATH``, the side that goes first
swapping from rep to rep, and the script exits 1 as soon as a run fails or
the two runs print different bytes. A run is timed from launch to the end
of its stdout, as the benchmark times it; its CPU time, user and system,
comes from its own ``wait4`` record. The script prints each side's
quartiles of both, the number of reps in which the change was faster, and
the quartiles of each rep's change/parent wall ratio. Side medians drift
with the machine's load between rounds; a rep's two runs share it.

``ab_inproc.py`` times ``cli.main`` inside one process and so cannot see
what a run pays to start and to exit; this script sees all of it, at the
price of the spread between separate processes on a shared machine.
"""
import argparse
import hashlib
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_inproc import SIDES, load_workloads


def spawn(argv: list[str], env: dict[str, str]) -> tuple[int, float, float, str]:
    """Run one child to the end; return its exit code, wall and CPU seconds
    and the sha256 of its stdout."""
    digest = hashlib.sha256()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=env) as proc:
        for chunk in iter(lambda: proc.stdout.read1(1 << 20), b""):
            digest.update(chunk)
        wall = time.perf_counter() - start
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, digest.hexdigest()


def quartiles(values: list[float], unit: str = " s") -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"median {median:.4f}{unit}, quartiles [{q1:.4f}, {q3:.4f}]"


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
    envs = {}
    for side, src in zip(SIDES, (args.parent_src, args.change_src)):
        if not (src / "rank_consensus" / "cli.py").is_file():
            print(f"error: {src} holds no rank_consensus package", file=sys.stderr)
            return 1
        envs[side] = {**{k: v for k, v in os.environ.items()
                         if k not in ("RANK_CONSENSUS_THREADS", "PYTHONHASHSEED")},
                      "PYTHONPATH": str(src.resolve())}
    w = workloads[args.workload]
    walls = {side: [] for side in SIDES}
    cpus = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{w.name}{w.suffix}"
        path.write_text(w.render(w.generate(random.Random(1))))
        cli_argv = [sys.executable, "-m", "rank_consensus.cli", w.args[0], str(path),
                    *w.args[1:]]
        for rep in range(args.reps + 1):  # rep 0 warms both sides up
            order = SIDES if rep % 2 else SIDES[::-1]
            digests = {}
            for side in order:
                code, wall, cpu, digests[side] = spawn(cli_argv, envs[side])
                if code != 0:
                    print(f"error: the {side} run exited {code} in rep {rep}",
                          file=sys.stderr)
                    return 1
                if rep:
                    walls[side].append(wall)
                    cpus[side].append(cpu)
            if digests["parent"] != digests["change"]:
                print(f"error: outputs differ in rep {rep}", file=sys.stderr)
                return 1
    print(f"{w.name}: {args.reps} reps, seed 1, one child process per run")
    for side in SIDES:
        print(f"{side}: wall {quartiles(walls[side])}; cpu {quartiles(cpus[side])}")
    wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
    print(f"change faster in {wins} of {args.reps} reps")
    ratios = [c / p for p, c in zip(walls["parent"], walls["change"])]
    print(f"change/parent wall ratio per rep: {quartiles(ratios, unit='')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
