"""repro.eval — reports and helpers for the paper's tables/figures.

The Table 3 and Figure 5 results are computed by the registry grids
(``Client().table3(...)`` / ``Client().figure5(...)``); their
``.report()`` returns the classes defined here.
"""

from .figure5 import (
    PAPER_CCR_GAINS,
    VARIANTS,
    Figure5Report,
    Figure5Result,
    variant_config,
)
from .table3 import (
    DEFAULT_FLOW_TIMEOUT_S,
    Table3Report,
    Table3Row,
)
from .tables import fmt_or_na, render_bars, render_markdown_table, render_table
from .timeout import TimedResult, Timeout, run_with_timeout
from .zhang import ZhangReport, ZhangRow, run_candidate_list_comparison

__all__ = [
    "DEFAULT_FLOW_TIMEOUT_S",
    "Figure5Report",
    "Figure5Result",
    "PAPER_CCR_GAINS",
    "Table3Report",
    "Table3Row",
    "TimedResult",
    "Timeout",
    "VARIANTS",
    "ZhangReport",
    "ZhangRow",
    "run_candidate_list_comparison",
    "fmt_or_na",
    "render_bars",
    "render_markdown_table",
    "render_table",
    "run_with_timeout",
    "variant_config",
]
