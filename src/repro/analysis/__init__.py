"""Result analysis: text box plots, paper reference data, comparison,
and the EXPERIMENTS.md report generator.

* :mod:`repro.analysis.paperdata` — the paper's quoted numbers
* :mod:`repro.analysis.boxplot` — terminal box-and-whiskers rendering
* :mod:`repro.analysis.compare` — paper-vs-measured extraction
* :mod:`repro.analysis.report` — full report generation (CLI:
  ``python -m repro.analysis.report``).  The package does not import
  it, so ``python -m`` runs it as a fresh module.
"""

from .boxplot import render_box_line, render_boxes
from .compare import ComparisonRow, compare_experiment
from .paperdata import PAPER, PaperAnchor, anchors_for
from .throughput import ThroughputEstimate, estimate_throughput

__all__ = [
    "ComparisonRow",
    "PAPER",
    "PaperAnchor",
    "anchors_for",
    "compare_experiment",
    "render_box_line",
    "render_boxes",
    "ThroughputEstimate",
    "estimate_throughput",
]
