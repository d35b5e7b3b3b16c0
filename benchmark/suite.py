#!/usr/bin/env python3
"""Runs byz-benchmark over every workload and collects the results.

Called by run.sh (which builds first). Each run is its own child process:
a fresh allocator and its own peak RSS. Workloads run one after another,
all measured runs before all traced ones. Prints every metric as
`workload name value unit`, writes out/results.json, and with --repeat 2
compares two back-to-back sets against the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(args, workload, trace):
    """One child run; returns its result object (the last stdout line)."""
    command = [args.bin, "--out", args.out, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.quick:
        command.append("--quick")
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=args.env)
    lines = child.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload} --trace {trace}: no result line (exit code {child.returncode})")
    result = json.loads(lines[-1])
    result["self_time"] = [l.split()[1:] for l in lines if l.startswith("self_time ")]

    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in expected if m["name"] not in result["metrics"]]
    extra = sorted(set(result["metrics"]) - {m["name"] for m in expected})
    if missing or extra:
        sys.exit(f"{workload} --trace {trace}: BENCHMARK.json disagrees with the run: "
                 f"missing {missing}, unlisted {extra}")
    for name, m in result["metrics"].items():
        print(workload, name, m["value"], m["unit"])
    if child.returncode != 0 or not result["correct"]:
        args.failed.append(f"{workload} --trace {trace}")
    return result


def run_set(args):
    results = {w: {} for w in args.workloads}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in args.workloads:
            print(f"# {workload} --trace {trace}", flush=True)
            results[workload][key] = run_once(args, workload, trace)
    return results


def worsening(metric, first, second):
    """Relative change from first to second, positive when worse."""
    change = (second - first) / abs(first)
    return -change if metric["better"] == "higher" else change


def compare(sets):
    """Two sets of one commit: every end-to-end metric must agree within
    its bound, else the benchmark cannot resolve a regression of that size."""
    print("# set 1 vs set 2: workload metric first second worse_by bound verdict")
    unresolved = 0
    for workload in sets[0]:
        first, second = (s[workload]["end_to_end"]["metrics"] for s in sets[:2])
        for metric in CONTRACT["end_to_end"]:
            a, b = (m[metric["name"]]["value"] for m in (first, second))
            worse_by = worsening(metric, a, b)
            ok = abs(worse_by) <= metric["bound"]
            unresolved += not ok
            print(workload, metric["name"], a, b, f"{worse_by:+.4f}", metric["bound"],
                  "within" if ok else "unresolved")
    return unresolved


def environment(args):
    def output(*command):
        try:
            return subprocess.run(command, capture_output=True, text=True, cwd=ROOT,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "BYZ_KERNEL_THREADS": args.env["BYZ_KERNEL_THREADS"],
        "commit": output("git", "rev-parse", "HEAD"),
        "rustc": output("rustc", "--version"),
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
    }


def main():
    names = [w["name"] for w in CONTRACT["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bin", required=True, help="the built byz-benchmark")
    parser.add_argument("--out", required=True, help="directory for results.json and traces")
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=CONTRACT["run_seconds"])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    args.workloads = [args.workload] if args.workload else names
    args.failed = []
    # Recorded, so set here rather than left to the binary's default.
    args.env = dict(os.environ)
    args.env.setdefault("BYZ_KERNEL_THREADS", str(min(os.cpu_count() or 1, 4)))

    sets = [run_set(args) for _ in range(args.repeat)]
    os.makedirs(args.out, exist_ok=True)
    path = pathlib.Path(args.out) / "results.json"
    path.write_text(json.dumps({"env": environment(args), "sets": sets}, indent=1) + "\n")
    print(f"# wrote {path}")

    unresolved = compare(sets) if args.repeat >= 2 else 0
    if unresolved:
        print(f"# {unresolved} metric x workload pairs differ by more than their bound")
    if args.failed:
        sys.exit(f"correctness checks failed in: {', '.join(args.failed)}")


if __name__ == "__main__":
    main()
