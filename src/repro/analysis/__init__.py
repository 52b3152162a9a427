"""Result containers and terminal rendering for experiment outputs.

Each name imports its submodule on first use (:mod:`repro._lazy`), so
reading a journal or computing a bootstrap interval does not load the
renderers, and the trend tracker's statistics do not load the reports.
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(
    __name__,
    {
        "ascii_chart": ("line_chart", "render_figure", "render_table"),
        "curves": ("Curve", "FigureResult", "TableResult"),
        "obs_report": (
            "journal_to_trace",
            "read_journal",
            "render_obs_summary",
            "validate_journal",
        ),
        "validation": (
            "BiasVerdict",
            "BootstrapCI",
            "bias_test",
            "bootstrap_mean_ci",
            "detect_convergence",
            "variance_ratio_test",
        ),
        "trend_report": ("render_check_report", "render_comparison", "render_trend_report"),
    },
)
