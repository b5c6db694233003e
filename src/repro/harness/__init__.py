"""Experiment harness: one regenerator per evaluation table/figure.

Command line::

    python -m repro.harness table1
    python -m repro.harness fig8 --system cichlid
    python -m repro.harness fig9 --system ricc --nodes 1,2,4,8
    python -m repro.harness fig10
    python -m repro.harness fig4
    python -m repro.harness all
    python -m repro.harness serve --root .repro_service   # daemon
    python -m repro.harness submit bandwidth --socket ... --specs grid.json
    python -m repro.harness status --socket ...

Each runner prints the same rows/series the paper reports (virtual-time
measurements from the simulated cluster) and returns structured results
for the benchmark suite and EXPERIMENTS.md.
"""

from repro.harness.cache import ResultCache, code_version
from repro.harness.fig10 import run_fig10
from repro.harness.fig8 import run_fig8
from repro.harness.fig9 import run_fig9
from repro.harness.parallel import sweep
from repro.harness.report import Table, format_table
from repro.harness.table1 import run_table1
from repro.harness.timeline import run_fig4

__all__ = ["Table", "format_table", "run_table1", "run_fig8", "run_fig9",
           "run_fig10", "run_fig4", "ResultCache", "code_version",
           "sweep"]
