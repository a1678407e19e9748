"""Run workloads over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads arma-chain,simulate]
        [--seconds 30] [--trace] [--record perfbench/baseline.json]

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; for every
end-to-end metric, setup_s included, it is compared with the metric's bound
in BENCHMARK.json.  ``--record`` writes the medians of the workloads run into
the ``baseline`` section of the given file and keeps everything else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary, worst = {}, 0.0
    for name in args.workloads.split(","):
        values, details, walls = {}, {}, []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print(f"{name} seed={seed} wall={walls[-1]:.0f}s correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            for k, v in json.loads(lines[-2]).items():
                if v is not None:
                    details.setdefault(k, []).append(v)
        stats = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            bound = bounds.get(k)
            flag = ""
            if bound is not None:
                worst = max(worst, share / bound)
                flag = "  OVER BOUND" if share > bound else ("  over bound/3" if share > bound / 3 else "")
            print(f"  {name:14s} {k:50s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {share:.4f}{flag}")
            stats[k] = {"median": med, "q1": q1, "q3": q3, "spread": share}
        summary[name] = {
            "metrics": stats,
            "detail_medians": {k: statistics.median(v) for k, v in details.items()},
            "run_wall_s": statistics.median(walls),
        }
    print(f"largest spread / bound: {worst:.3f}")
    if args.record:
        doc = json.loads(args.record.read_text()) if args.record.exists() else {}
        section = doc.setdefault("baseline", {})
        entry = section.setdefault("per_layer" if args.trace else "end_to_end", {"workloads": {}})
        entry.update(seeds=args.seeds, seconds=args.seconds)
        entry["workloads"].update(summary)
        args.record.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
