"""Benchmark of the ``rank-consensus`` CLI on seeded, generated inputs.

    python3 perfbench/run.py --workload election --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there and nowhere else, and the run fails without it. Inputs are
generated from ``--seed`` into ``.perfbench/`` and the CLI receives only
the generated file.

``--trace 0`` measures end to end. The CLI runs as a child process, one at
a time, for ``--seconds``; each invocation is timed from launch to the last
byte on stdout and its peak RSS is read from its own ``wait4`` record.
``setup_s`` is the median wall time of the same command on a one-ranking
input. ``--trace 1`` instead alternates untraced and traced in-process runs
of ``cli.main`` for ``--seconds`` and reports the per-layer metrics of the
traced run with the median total time (see ``spans.py``).

Every output is checked: exit status 0 and the sha256 of stdout equal to
the reference digest. The reference is the digest recorded in
``digests.json`` for this workload and seed when there is one; otherwise it
is the first invocation's digest, after ``check.py`` has verified that
output against the naive oracle (outside the timed loop). ``sweep`` is also
verified on a reduced instance small enough for the oracle to score in full.

The child environment drops ``RANK_CONSENSUS_THREADS`` and
``PYTHONHASHSEED`` and no ``--threads`` flag is passed, so every run is
single-threaded and the digest check also catches hash-order dependence.

The last line of stdout is the result: ``{"correct", "attempted",
"failed", "metrics"}``. The line before it records the environment and the
per-invocation samples.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150.0
SANDBOX = ("shared machine, other tenants' load not controlled; page cache not dropped; "
           "no hardware counters; wall-clock timings")


@dataclass
class Invocation:
    status: int
    wall_s: float
    rss_mb: float
    digest: str
    out: bytes | None


def child_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("RANK_CONSENSUS_THREADS", "PYTHONHASHSEED")}
    env["PYTHONPATH"] = str(src)
    return env


def invoke(argv: list[str], env: dict[str, str], cwd: Path, stderr_path: Path,
           keep: bool = False) -> Invocation:
    """Run one child to completion; stdout is hashed as it streams in."""
    digest = hashlib.sha256()
    chunks = []
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
        try:
            fd = proc.stdout.fileno()
            while True:
                if not select.select([fd], [], [], CHILD_TIMEOUT_S)[0]:
                    raise TimeoutError(f"no output for {CHILD_TIMEOUT_S} s")
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                digest.update(chunk)
                if keep:
                    chunks.append(chunk)
            wall = time.perf_counter() - start
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return Invocation(proc.returncode, wall, usage.ru_maxrss / 1024,
                      digest.hexdigest(), b"".join(chunks) if keep else None)


def recorded_digest(workload: str, seed: int) -> str | None:
    table = json.loads((HERE / "digests.json").read_text())
    return table.get(workload, {}).get(str(seed))


def failures(invocations: list, reference: str | None) -> int:
    """Invocations that exited non-zero or printed other bytes than the reference."""
    return sum(1 for inv in invocations if inv.status != 0 or inv.digest != reference)


def checked_reference(first, rankings, args, seed: int, expected: str | None):
    """Verify the first output with the oracle; return (digest, pair work),
    digest ``None`` when the output is wrong."""
    # imported here: check.py imports rank_consensus, which must come from
    # the checkout's src/ that main() puts on the path
    from check import CheckError, check_output, ranking_set

    if first.status != 0 or (expected is not None and first.digest != expected):
        return None, 0
    try:
        work = check_output(first.out, ranking_set(rankings), args, seed)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return None, 0
    return first.digest, work


def environment(root: Path) -> dict:
    return {
        "commit": _commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "sandbox": SANDBOX,
    }


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown: {name}"


def prepare(w: Workload, seed: int, work: Path):
    """Generate the workload's input and its one-ranking variant."""
    rankings = w.generate(random.Random(seed))
    path = work / f"{w.name}{w.suffix}"
    one = work / f"{w.name}-one{w.suffix}"
    path.write_text(w.render(rankings))
    one.write_text(w.render(rankings[:1]))
    return rankings, path, one


def end_to_end(w: Workload, seed: int, seconds: float, root: Path, work: Path):
    rankings, path, one = prepare(w, seed, work)
    env = child_env(root / "src")
    err = work / "stderr.txt"

    def argv(p: Path) -> list[str]:
        return [sys.executable, "-m", "rank_consensus.cli", w.args[0], str(p), *w.args[1:]]

    # set-up time: the first call warms the bytecode cache and is not timed
    setup = [invoke(argv(one), env, root, err, keep=i == 0) for i in range(SETUP_REPEATS + 1)]
    ref, _ = checked_reference(setup[0], w.cli_view(rankings[:1]), w.args, seed, None)
    failed = failures(setup, ref)
    invocations = list(setup)
    if w.reduced is not None:
        small = w.reduced(random.Random(seed))
        small_path = work / f"{w.name}-reduced{w.suffix}"
        small_path.write_text(w.render(small))
        inv = invoke(argv(small_path), env, root, err, keep=True)
        failed += checked_reference(inv, w.cli_view(small), w.args, seed, None)[0] is None
        invocations.append(inv)

    timed = []
    start = time.perf_counter()
    # stop before an invocation that would likely end past the deadline
    while (len(timed) < MIN_INVOCATIONS
           or time.perf_counter() - start + timed[-1].wall_s <= seconds):
        timed.append(invoke(argv(path), env, root, err, keep=not timed))
    ref, pairs = checked_reference(timed[0], w.cli_view(rankings), w.args, seed,
                                   recorded_digest(w.name, seed))
    failed += failures(timed, ref)
    invocations += timed

    walls = [inv.wall_s for inv in timed]
    wall = statistics.median(walls)
    setup_s = statistics.median(inv.wall_s for inv in setup[1:])
    metrics = {
        "wall_s": (wall, "s"),
        "pairs_per_s": (pairs / wall, "1/s"),
        "peak_rss_mb": (statistics.median(inv.rss_mb for inv in timed), "MB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {
        "invocations": len(timed),
        "wall_s_samples": walls,
        "wall_s_quartiles": statistics.quantiles(walls, n=4),
        "rss_mb_samples": [inv.rss_mb for inv in timed],
        "setup_s_samples": [inv.wall_s for inv in setup[1:]],
        "pairs_per_invocation": pairs,
        "digest": ref,
        "error_rate": failed / len(invocations),
    }
    return len(invocations), failed, metrics, detail


def traced(w: Workload, seed: int, seconds: float, root: Path, work: Path):
    from spans import Tracer, layer_metrics, run_cli

    rankings, path, _ = prepare(w, seed, work)
    os.environ.pop("RANK_CONSENSUS_THREADS", None)
    argv = [w.args[0], str(path), *w.args[1:]]

    plain, runs, layers = [], [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start + plain[-1].total_s + runs[-1].total_s <= seconds:
        plain.append(run_cli(argv))
        if len(plain) > 1:
            plain[-1].out = None  # only the first output is checked in full
        run = run_cli(argv, Tracer())
        layers.append(layer_metrics(run))
        run.out = run.tracer = None  # release what the counts were read from
        runs.append(run)
    ref, _ = checked_reference(plain[0], w.cli_view(rankings), w.args, seed,
                               recorded_digest(w.name, seed))
    failed = failures(plain + runs, ref)

    # every layer figure comes from one run, so self times add up to its total
    median = sorted(range(len(runs)), key=lambda i: runs[i].total_s)[(len(runs) - 1) // 2]
    metrics = layers[median]
    untraced = statistics.median(r.total_s for r in plain)
    metrics["trace.overhead_s"] = (runs[median].total_s - untraced, "s")
    detail = {
        "traced_runs": len(runs),
        "untraced_runs": len(plain),
        "traced_total_s_samples": [r.total_s for r in runs],
        "untraced_total_s_samples": [r.total_s for r in plain],
        "digest": ref,
    }
    return len(plain) + len(runs), failed, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "rank_consensus" / "cli.py").is_file():
        print(f"error: no rank_consensus sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import rank_consensus

    if Path(rank_consensus.__file__).resolve().parent != (src / "rank_consensus").resolve():
        print(f"error: imported {rank_consensus.__file__}, not the checkout's", file=sys.stderr)
        return 2

    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    run = traced if args.trace else end_to_end
    attempted, failed, metrics, detail = run(w, args.seed, args.seconds, root, work)
    print(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                      "why": w.why, "environment": environment(root), "detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
