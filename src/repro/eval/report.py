"""Full paper-vs-measured report: every table and figure in one run.

Usage::

    python -m repro.eval.report [--experiments N]

This is the generator behind EXPERIMENTS.md.
"""

import argparse
import sys
import time

from repro.area.baselines import format_comparison
from repro.eval.detectors import format_attribution
from repro.eval.false_positives import format_false_positives, run_false_positive_suite
from repro.eval.figures import run_figures
from repro.eval.latency import format_latency, latency_by_group
from repro.eval.table1 import format_table1, run_table1
from repro.eval.table2 import format_table2
from repro.faults.model import PERMANENT, TRANSIENT


def generate_report(experiments=800, seed=0, stream=sys.stdout,
                    workloads=None, telemetry=None, workers=None):
    """Run the complete evaluation; writes the report to ``stream``.

    ``workers`` fans the Table 1 campaigns and the Figure 5-7
    measurements out across processes; ``workers=None`` runs the Table 1
    plans in-process, with the same results.  ``telemetry`` takes a
    :mod:`repro.runner.telemetry` sink.
    """
    def emit(text=""):
        print(text, file=stream)

    start = time.time()

    emit("=" * 72)
    emit("Argus-1 reproduction: paper-vs-measured report")
    emit("=" * 72)

    emit("\n--- Table 1: error injection (%d experiments per row) ---" % experiments)
    rows, summaries = run_table1(experiments=experiments, seed=seed,
                                 telemetry=telemetry, workers=workers)
    emit(format_table1(rows))

    emit("\n--- Sec 4.1.1: detection attribution (transient campaign) ---")
    emit(format_attribution(summaries[TRANSIENT]))
    emit("\n(permanent campaign)")
    emit(format_attribution(summaries[PERMANENT]))

    emit("\n--- Sec 4.2: detection latency ---")
    all_results = summaries[TRANSIENT].results + summaries[PERMANENT].results
    emit(format_latency(latency_by_group(all_results)))

    emit("\n--- Sec 4.1.2: false positives ---")
    emit(format_false_positives(run_false_positive_suite(workloads=workloads)))

    emit("\n--- Table 2: area (mm^2, VTVT 0.25um-calibrated model) ---")
    emit(format_table2())

    emit("\n--- Figures 5-7: MediaBench-like overheads ---")
    for series in run_figures(workloads=workloads, workers=workers):
        emit(series.formatted())
        emit("")

    emit("--- Extension: power overhead (the paper's future work) ---")
    from repro.area.power import estimate_suite
    from repro.workloads import ALL_WORKLOADS
    power_targets = workloads if workloads is not None else ALL_WORKLOADS
    estimates, average = estimate_suite(power_targets)
    for estimate in estimates:
        emit("  %-10s %5.1f%%" % (estimate.workload, 100 * estimate.overhead))
    emit("  average power overhead: %.1f%% (area overhead: 17.0%%)"
         % (100 * average))

    emit("\n--- Extension: per-signal coverage matrix (Sec 4.1.1 structure) ---")
    from repro.eval.coverage_matrix import (
        build_coverage_matrix, format_matrix, verify_matrix)
    matrix = build_coverage_matrix(probes_per_signal=3)
    emit(format_matrix(matrix))
    emit("structural mismatches: %d" % len(verify_matrix(matrix)))

    emit("\n--- Sec 5: related-work comparison ---")
    emit(format_comparison())

    emit("\nreport generated in %.0f seconds" % (time.time() - start))


def main(argv=None):
    from repro.runner.telemetry import LegacyPrintTelemetry

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiments", type=int, default=800,
                        help="fault-injection experiments per error type")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="campaign worker processes (0 = one per CPU)")
    args = parser.parse_args(argv)
    generate_report(experiments=args.experiments, seed=args.seed,
                    telemetry=LegacyPrintTelemetry(max(args.experiments // 4, 1)),
                    workers=args.workers)


if __name__ == "__main__":
    main()
