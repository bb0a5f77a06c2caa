"""Run the benchmark over several seeds and summarise each workload.

    python3 perfbench/collect.py --seeds 101-110 [--workloads election,sweep] [--trace 1]

Runs ``run.py`` once per workload and seed, one at a time, from the current
directory, and writes ``perfbench/results/BENCH_<workload>.json`` (or
``TRACE_<workload>.json`` with ``--trace 1``): every run's metrics, and per
metric the median, the quartiles and the spread, which is the interquartile
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"] + SPEC["per_layer"]}

    ok = True
    for workload in args.workloads.split(","):
        runs, context = [], None
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            context = json.loads(lines[-2])
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result, "detail": context["detail"]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
            ok &= result["correct"]
        names = list(runs[0]["metrics"])
        summary = {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   **summarise([r["metrics"][name]["value"] for r in runs], bounds.get(name))}
            for name in names
        }
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and s["spread"] is not None and name != "setup_s":
                flag = "ok" if s["spread"] <= s["bound"] / 3 else "SPREAD ABOVE BOUND/3"
            print(f"  {name:28s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)} {flag}")
        out = HERE / "results" / f"{'TRACE' if args.trace else 'BENCH'}_{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "workload": workload,
            "why": context["why"],
            "seconds": SPEC["run_seconds"],
            "environment": context["environment"],
            "summary": summary,
            "runs": runs,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
