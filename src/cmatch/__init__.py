"""Online matching on bipartite configuration models.

The package samples configuration-model graphs as an online stream, runs
matching policies (greedy, ranking, and lookahead baselines) with optional
per-vertex capacities, computes exact offline optima, and solves the
fluid-limit ODEs whose curves predict greedy's asymptotic performance.

The offline optima live in :mod:`cmatch.offline`, which is not imported
here: it needs scipy.sparse, which no other module uses.
"""

from .degrees import DegreePMF, dominates, explicit, poisson, regular
from .stream import (DegreeSequencePair, Multigraph, build_full_graph,
                     pair_half_edges, sample_degree_sequences, write_edge_list)
from .matching import (BIASED_GREEDY, GREEDY, HIGHEST, POLICIES, RANKING,
                       SMALLEST, Trajectory, choice_events,
                       final_matched_counts, histograms_at,
                       matched_fraction_at, run_policy, write_trajectory_csv)
from .fluid import (UNIT_CAPACITY, CapacityProfile, CharacteristicsReport,
                    FluidCurve, ModelComparison, SystemTrajectory,
                    closed_form_2regular, closed_form_er, compare_models,
                    solve_G_capless, solve_G_fixed_capacity,
                    solve_G_general_capacity, solve_full_system,
                    sup_deviation, verify_characteristics, write_fluid_csv)

__all__ = [
    "DegreePMF", "regular", "poisson", "explicit", "dominates",
    "DegreeSequencePair", "Multigraph", "sample_degree_sequences",
    "pair_half_edges", "build_full_graph", "write_edge_list",
    "GREEDY", "RANKING", "SMALLEST", "HIGHEST", "BIASED_GREEDY", "POLICIES",
    "Trajectory", "run_policy", "final_matched_counts", "matched_fraction_at",
    "histograms_at", "choice_events", "write_trajectory_csv",
    "FluidCurve", "CapacityProfile", "UNIT_CAPACITY", "SystemTrajectory",
    "CharacteristicsReport", "ModelComparison",
    "solve_G_capless", "solve_G_fixed_capacity", "solve_G_general_capacity",
    "solve_full_system", "verify_characteristics", "closed_form_2regular",
    "closed_form_er", "compare_models", "sup_deviation", "write_fluid_csv",
]
