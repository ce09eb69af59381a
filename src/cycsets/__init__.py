"""cycsets: cyclic vertex subsets of regular graphs.

A subset S of V(G) is cyclic when G[S] has a Hamilton cycle.  This
package builds the relevant graph families, counts and estimates cyclic
subsets, certifies Hamiltonicity constructively, and verifies the
supporting binomial/normal-window estimates numerically.
"""

from .bitgraph import Cut, Graph, VertexSet, from_graph6, to_graph6
from .counting import (
    CycReport,
    EstimateReport,
    cyc_count_exact,
    edge_concentration_experiment,
    estimate_h,
    good_cut_probability,
    p_exact_extremal,
    p_exact_knn,
)
from .errors import BudgetExceededError, PreconditionError, VerificationError
from .families import (
    CompetitorGraph,
    ExtremalGraph,
    build_competitor,
    build_extremal,
    build_knn,
    build_star_augmented,
    enumerate_regular_complements,
)
from .hamilton import (
    HamCycleCert,
    HamPathCert,
    NotHamCert,
    decide_hamiltonian_auto,
    dirac_stability_witness,
    gn_criterion,
    ham_cycle_near_bipartite,
    ham_cycle_two_cliques,
    ham_path_bipartite,
    ham_path_dirac,
    is_hamiltonian_exact,
    refute_toughness,
)
from .analysis import (
    AnalysisParams,
    balanced_cut_cover_product,
    check_bidense,
    classify,
    cross_matching_floor,
    random_regular_graph,
)
from .numerics import (
    binom_tail,
    bindiff_check,
    chernoff_check,
    emit_f_alpha_curve,
    f_alpha,
    fn_second_estimate_check,
    g_roots,
    normal_I,
    pn_expansion_check,
    window_m1_m2,
)

__version__ = "0.1.0"
