"""End-to-end campaign benchmark: four default-engine workloads.

Usage, from the repository root::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
        [--trace [0|1]] [--json OUT.jsonl] [--quick]
    python benchmarks/e2e/run.py --compare PARENT.jsonl CHANGE.jsonl

With ``--workload`` one workload runs in this process; without it each
of the four runs in its own child process, one after another.  Every
metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` (for a single workload).  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced pass
(spans are written under ``.e2e-work/``).  The exit status is 0 only
when every outcome matched the pinned reference.  ``--json`` appends
each run's full result to a JSON-lines file that ``--compare`` reads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".e2e-work")
WORKLOAD_NAMES = ("adpcm_transient", "g721_permanent", "stress_transient",
                  "service_overlap")


def _format(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def run_one(args):
    """Measure one workload in this process; returns the exit status."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write("no program sources at %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import suite  # noqa: E402 - needs the program on the path

    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        workload = suite.build_workloads(work_dir)[args.workload]
        spans_path = None
        if args.trace:
            spans_path = os.path.join(WORK_DIR, "spans-%s-%d.jsonl"
                                      % (args.workload, args.seed))
        try:
            entries = suite.pools.load(workload.pool)
        except (OSError, ValueError) as exc:
            sys.stderr.write("%s: no usable reference: %s\n"
                             % (args.workload, exc))
            return 2
        result = suite.run_workload(workload, entries, args.seed,
                                    args.seconds, args.trace, args.quick,
                                    spans_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = suite.PER_LAYER if args.trace else suite.END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    print("%s seed=%d trace=%d: %d experiments, %d failed"
          % (args.workload, args.seed, args.trace, result["attempted"],
             result["failed"]))
    for name, metric in metrics.items():
        print("  %-28s %14s %s" % (name, _format(metric["value"]),
                                   metric["unit"]))
    for name, value in sorted(result["extras"].items()):
        print("  (%s) %s" % (name, _format(value)))
    if result["failed_ids"]:
        print("  mismatched or failed: %s" % ", ".join(result["failed_ids"]))
    if args.json:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "metrics": metrics, "correct": result["correct"],
                  "attempted": result["attempted"],
                  "failed": result["failed"], "extras": result["extras"]}
        with open(args.json, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own child process, one after another."""
    status = 0
    summary = []
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.json:
            command += ["--json", os.path.abspath(args.json)]
        if args.quick:
            command.append("--quick")
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
        lines = child.stdout.strip().splitlines()
        try:
            final = json.loads(lines[-1])
        except (IndexError, ValueError):
            final = None
        if child.returncode != 0 or final is None:
            status = max(status, child.returncode or 1)
        summary.append((name, child.returncode, final))
    print("summary:")
    for name, code, final in summary:
        if final is None:
            print("  %-18s exit %d, no result" % (name, code))
            continue
        print("  %-18s exit %d, %d/%d failed" % (name, code, final["failed"],
                                                  final["attempted"]))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end campaign benchmark (see README.md).")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", metavar="OUT.jsonl")
    parser.add_argument("--quick", action="store_true",
                        help="one setup, one chunk or cycle (smoke test)")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT.jsonl", "CHANGE.jsonl"))
    args = parser.parse_args(argv)
    if args.compare:
        sys.path.insert(0, HERE)
        import compare

        print(compare.report(*args.compare))
        return 0
    if args.quick:
        args.seconds = 0.0
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
