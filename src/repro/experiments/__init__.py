"""Experiment harness: regenerates every table and figure of the
paper's evaluation (§IV).

* :mod:`repro.experiments.table1` — Table I: motion-estimation speedup,
  PSNR loss and compression loss vs TZ search across uniform tilings.
* :mod:`repro.experiments.fig3` — Fig. 3: tile structure and per-tile
  CPU time, proposed vs Khan et al. [19].
* :mod:`repro.experiments.table2` — Table II: PSNR, bitrate, number of
  users served under a saturated queue.
* :mod:`repro.experiments.fig4` — Fig. 4: power savings vs number of
  users, and their DVFS decomposition.
* :mod:`repro.experiments.report` — all four into one markdown report.

Every table module exposes ``run_*`` (programmatic) and ``main()``
(CLI) entry points; ``python -m repro.experiments.<name>`` prints the
paper-format rows.  ``tests/test_experiments.py`` asserts the paper's
shape on the same ``run_*`` functions, at miniature sizes in tier 1
and at the sizes EXPERIMENTS.md quotes in the slow tier.
"""

from repro.experiments.common import (
    medical_corpus,
    encode_cpu_seconds,
    EncodeOutcome,
    encode_with_search,
    encode_with_proposed_policy,
)

__all__ = [
    "medical_corpus",
    "encode_cpu_seconds",
    "EncodeOutcome",
    "encode_with_search",
    "encode_with_proposed_policy",
]
