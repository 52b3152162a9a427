"""Experiment harness: one callable per paper figure/table, plus ablations.

See DESIGN.md §4 for the experiment index.  Every function takes
``scale=`` (``"small" | "default" | "paper"`` or a
:class:`~repro.experiments.config.Scale`) and ``seed=``, and returns a
:class:`~repro.analysis.curves.FigureResult` or
:class:`~repro.analysis.curves.TableResult`.  :data:`FIGURES` and
:data:`TABLES` (:mod:`~repro.experiments.catalog`) key them by target
name.  Each name imports its module on first use (:mod:`repro._lazy`).
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.lazy_exports(
    __name__,
    {
        "catalog": ("FIGURES", "TABLES"),
        "config": ("SCALES", "ExperimentConfig", "Scale", "resolve_scale"),
        "ablations": (
            "sc_cost_vs_l",
            "hops_oracle_bias",
            "random_tour_gap",
            "hops_min_reporting_sweep",
            "topology_comparison",
        ),
        "delay": ("delay_comparison",),
        "idspace_exp": ("idspace_comparison",),
        "repair_exp": ("repair_comparison",),
        "timer_exp": ("sc_timer_sweep",),
        "overhead": ("analytic_overhead_models", "table1_overhead"),
        "static": (
            "fig01_sample_collide_100k",
            "fig02_sample_collide_1m",
            "fig03_hops_sampling_100k",
            "fig04_hops_sampling_1m",
            "fig05_aggregation_100k",
            "fig06_aggregation_1m",
            "fig18_sample_collide_l10",
        ),
        "scale_free_exp": ("fig07_scale_free_degrees", "fig08_scale_free_comparison"),
        "dynamic": (
            "fig09_sc_catastrophic",
            "fig10_sc_growing",
            "fig11_sc_shrinking",
            "fig12_hops_catastrophic",
            "fig13_hops_growing",
            "fig14_hops_shrinking",
            "fig15_agg_failures",
            "fig16_agg_growing",
            "fig17_agg_shrinking",
        ),
    },
)
