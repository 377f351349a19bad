"""Table 1 regeneration: error-injection result quadrants."""

from dataclasses import dataclass

from repro.eval import paper
from repro.faults.campaign import Campaign
from repro.faults.model import PERMANENT, TRANSIENT


@dataclass
class Table1Row:
    """One row (error type) of Table 1, measured vs paper."""

    error_type: str
    measured: dict  # quadrant -> fraction
    reference: dict

    def formatted(self):
        cells = []
        for key in ("unmasked_undetected", "unmasked_detected",
                    "masked_undetected", "masked_detected"):
            cells.append("%6.2f%% (paper %5.2f%%)" % (
                100 * self.measured[key], 100 * self.reference[key]))
        return "%-10s %s" % (self.error_type, "  ".join(cells))


def run_table1(experiments=1000, seed=0, telemetry=None, workers=None,
               journal=None, resume=False):
    """Run both campaigns; returns (rows, summaries).

    Each row is the seed's plan (:meth:`Campaign.run`): ``workers=None``
    runs it in-process, ``workers`` > 1 across worker processes, with
    the same results; ``journal``/``resume`` make it crash-safe and
    ``telemetry`` takes a :mod:`repro.runner.telemetry` sink.
    """
    campaign = Campaign(seed=seed)
    summaries = campaign.run_both(experiments=experiments,
                                  telemetry=telemetry, workers=workers,
                                  journal=journal, resume=resume)
    rows = []
    for duration in (TRANSIENT, PERMANENT):
        rows.append(Table1Row(
            error_type=duration,
            measured=summaries[duration].fractions(),
            reference=paper.TABLE1[duration],
        ))
    return rows, summaries


def format_table1(rows):
    header = ("%-10s %-24s  %-24s  %-24s  %-24s" % (
        "type", "silent (unm/undet)", "unmasked, detected",
        "masked, undetected", "masked, detected (DME)"))
    return "\n".join([header] + [row.formatted() for row in rows])
