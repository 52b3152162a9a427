"""The experiment catalogue: every figure and table the CLI runs, by name.

:data:`FIGURES` and :data:`TABLES` map a target name to its experiment
function.  They hold function names only and import an experiment's
module when its target is looked up, so listing the catalogue or
parsing a command line imports no experiment code.
"""

from __future__ import annotations

import importlib
from collections.abc import Mapping
from typing import Callable, Iterator

__all__ = ["FIGURES", "TABLES", "Catalogue"]


class Catalogue(Mapping):
    """Read-only ``target name -> experiment function`` mapping.

    A lookup reads the function from :mod:`repro.experiments`, which
    imports the one module that defines it.
    """

    def __init__(self, functions: Mapping[str, str]) -> None:
        self._functions = dict(functions)

    def __getitem__(self, name: str) -> Callable:
        return getattr(importlib.import_module(__package__), self._functions[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._functions)

    def __len__(self) -> int:
        return len(self._functions)


#: All figure functions keyed by their paper id (used by the CLI).
FIGURES = Catalogue(
    {
        "fig1": "fig01_sample_collide_100k",
        "fig2": "fig02_sample_collide_1m",
        "fig3": "fig03_hops_sampling_100k",
        "fig4": "fig04_hops_sampling_1m",
        "fig5": "fig05_aggregation_100k",
        "fig6": "fig06_aggregation_1m",
        "fig7": "fig07_scale_free_degrees",
        "fig8": "fig08_scale_free_comparison",
        "fig9": "fig09_sc_catastrophic",
        "fig10": "fig10_sc_growing",
        "fig11": "fig11_sc_shrinking",
        "fig12": "fig12_hops_catastrophic",
        "fig13": "fig13_hops_growing",
        "fig14": "fig14_hops_shrinking",
        "fig15": "fig15_agg_failures",
        "fig16": "fig16_agg_growing",
        "fig17": "fig17_agg_shrinking",
        "fig18": "fig18_sample_collide_l10",
    }
)

#: All table/ablation functions keyed by name (used by the CLI).
TABLES = Catalogue(
    {
        "table1": "table1_overhead",
        "ablation_sc_l": "sc_cost_vs_l",
        "ablation_hops_oracle": "hops_oracle_bias",
        "ablation_random_tour": "random_tour_gap",
        "ablation_min_hops": "hops_min_reporting_sweep",
        "ablation_topology": "topology_comparison",
        "ablation_delay": "delay_comparison",
        "ablation_repair": "repair_comparison",
        "ablation_idspace": "idspace_comparison",
        "ablation_sc_timer": "sc_timer_sweep",
    }
)
