"""Compare two sets of benchmark runs (``run.py --compare``).

Reads two JSON-lines files written by ``run.py --json`` - the parent
commit's runs and the change's, made with identical settings - and, for
every workload and end-to-end metric, reports each side's median and
quartiles, the spread (quartile distance over the median), the
fraction of pairs the change wins, and a verdict against the metric's
bound from ``BENCHMARK.json``:

* **improved** - the change wins at least nine tenths of the pairs and
  the medians differ, in its favour, by more than the parent's own
  quartile distance;
* **unresolved** - a side's quartile distance exceeds the allowance,
  unless every run of the change reads better than every run of the
  parent;
* **worse** - the change's median is worse than the parent's by more
  than the allowance;
* **no-worse** - otherwise.

The allowance is the bound times the parent's median, but never less
than the metric's absolute floor (``FLOORS``), so that a time of a few
milliseconds is not judged on its jitter.  The raw values of the
host-scaled metrics, and the job latencies that ``service_overlap``
prints as extras, are compared the same way.

Runs pair up by seed where both sides ran it, otherwise in file order.
The report never gates: it always exits 0.
"""

import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Absolute floors under the relative bounds, in each metric's unit.
FLOORS = {"setup_s": 0.05, "raw_setup_s": 0.05, "job_p50_ms": 10.0,
          "job_p90_ms": 10.0}

#: Extras compared like end-to-end metrics on the workloads that print
#: them.  BENCHMARK.json cannot list them: every end-to-end metric there
#: must exist on every workload.
EXTRA_METRICS = (
    {"name": "job_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "job_p90_ms", "unit": "ms", "better": "lower", "bound": 0.1},
)

#: Host-scaled metrics whose raw values are compared too, under the same
#: bound: they show how much of a difference the host's drift explains.
RAW_OF = ("setup_s", "exp_per_s")


def load_runs(path):
    """``{workload: [run record, ...]}`` of the end-to-end runs in ``path``."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record.get("trace"):
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _pairs(parent, change):
    by_seed = {run["seed"]: run for run in parent}
    paired = [(by_seed[run["seed"]], run) for run in change
              if run["seed"] in by_seed]
    if paired:
        return paired
    return list(zip(parent, change))


def verdict(metric, parent_values, change_values, wins):
    """One metric's verdict (see the module docstring)."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    floor = FLOORS.get(metric["name"], 0.0)
    p_q1, p_med, p_q3 = quartiles(parent_values)
    c_q1, c_med, c_q3 = quartiles(change_values)
    gain = sign * (c_med - p_med)
    if wins >= 0.9 and gain > p_q3 - p_q1:
        return "improved"
    if (p_q3 - p_q1 > max(metric["bound"] * abs(p_med), floor)
            or c_q3 - c_q1 > max(metric["bound"] * abs(c_med), floor)):
        if all(sign * (c - p) > 0 for c in change_values for p in parent_values):
            return "improved"
        return "unresolved"
    if -gain > max(metric["bound"] * abs(p_med), floor):
        return "worse"
    return "no-worse"


def _value(run, name):
    metric = run["metrics"].get(name)
    return metric["value"] if metric else run["extras"].get(name)


def report(parent_path, change_path, benchmark_path=None):
    with open(benchmark_path or os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]
    metrics += [dict(metric, name="raw_" + metric["name"])
                for metric in metrics if metric["name"] in RAW_OF]
    metrics += EXTRA_METRICS
    parent = load_runs(parent_path)
    change = load_runs(change_path)
    lines = ["%-18s %-12s %-33s %-33s %6s %s" % (
        "workload", "metric", "parent median [q1, q3] spread",
        "change median [q1, q3] spread", "wins", "verdict")]
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            lines.append("%-18s (runs on one side only)" % workload)
            continue
        pairs = _pairs(parent[workload], change[workload])
        for metric in metrics:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            p_values = [_value(run, name) for run in parent[workload]]
            c_values = [_value(run, name) for run in change[workload]]
            if None in p_values or None in c_values:
                continue
            decided = [sign * (_value(c, name) - _value(p, name))
                       for p, c in pairs]
            wins = (sum(1 for d in decided if d > 0) / len(decided)
                    if decided else 0.0)
            cells = []
            for values in (p_values, c_values):
                q1, med, q3 = quartiles(values)
                cells.append("%.4g [%.4g, %.4g] %.1f%%" % (
                    med, q1, q3, 100.0 * (q3 - q1) / abs(med) if med else 0.0))
            lines.append("%-18s %-12s %-33s %-33s %5.0f%% %s" % (
                workload, name, cells[0], cells[1], 100.0 * wins,
                verdict(metric, p_values, c_values, wins)))
    return "\n".join(lines)
