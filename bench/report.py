"""Run workloads untraced and traced and print their metrics, one row per workload.

    python3 bench/report.py --seed 1 --seconds 20 [--workloads learn query]

Each workload runs twice in fresh processes through ``bench/run.py``:
``--trace 0`` for the end-to-end metrics and ``--trace 1`` for the
per-layer ones.  Every metric is named with its unit and, for end-to-end
metrics, the direction that is better.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("learn", "restore", "query", "loo")
COLUMNS_PER_BLOCK = 6


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(title, specs, results):
    """One row per workload; metric columns in blocks so lines stay readable."""
    print(title)
    for start in range(0, len(specs), COLUMNS_PER_BLOCK):
        block = specs[start:start + COLUMNS_PER_BLOCK]
        heads = [f"{s['name']} [{s['unit']}" + (f", {s['better']}]" if "bound" in s else "]") for s in block]
        widths = [max(len(h), 12) for h in heads]
        print("  " + "workload".ljust(10) + "  ".join(h.rjust(w) for h, w in zip(heads, widths)))
        for workload, res in results.items():
            cells = [f"{res['metrics'][s['name']]['value']:.6g}".rjust(w) for s, w in zip(block, widths)]
            print("  " + workload.ljust(10) + "  ".join(cells))
        print()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    plain, traced = {}, {}
    for w in args.workloads:
        plain[w] = run(w, args.seed, args.seconds, 0)
        traced[w] = run(w, args.seed, args.seconds, 1)
    status = ", ".join(f"{w}: {r['failed']}/{r['attempted']} failed" for w, r in plain.items())
    print(f"seed {args.seed}, {args.seconds:g} s per run; {status}\n")
    table("End-to-end metrics (untraced runs)", spec["end_to_end"], plain)
    table("Per-layer metrics (traced runs)", spec["per_layer"], traced)
    return 0 if all(r["correct"] for r in list(plain.values()) + list(traced.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
