"""Computations on finite metric graphs.

Shortest-path metric and path machinery, epsilon-smoothings (Reeb quotients
of the basepoint distance), merge trees, minimal cycle bases and the
persistence sequence, Vietoris-Rips H1 barcodes, hyperbolicity, and
two-sided Gromov-Hausdorff estimates, plus a seeded verification harness
that checks the library's inequalities against each other.
"""

from .gh_bounds import (
    BoundReport,
    Correspondence,
    brute_force_dgh,
    delta_n_bounds,
    dgh_bounds,
    dgh_lower,
    dghl_bounds,
    hyp_graph,
    hyperbolicity,
    r_extension,
)
from .gromov_tree import (
    MergeTree,
    TreeDistortionResult,
    TreeNode,
    bottleneck_m,
    build_merge_tree,
    gromov_product,
    t_p,
    tree_distortion,
)
from .harness import (
    EnsembleSpec,
    ReportRow,
    VerificationReport,
    default_eps_grid,
    load_graph,
    random_graph,
    save_graph,
    verify,
)
from .metric_graph import (
    Edge,
    EdgePath,
    GraphPoint,
    MetricGraph,
    diameter,
    distance,
    epsilon_net,
    f_values,
    f_variation,
    finite_metric,
    graph_from_json_obj,
    graph_to_json_obj,
    is_simple_path,
    monotone_decomposition,
    monotone_subdivision,
    path_length,
    point_from_json_obj,
    point_to_json_obj,
    points_equal,
    shortest_path,
)
from .persistence import (
    Barcode,
    PersistenceSequence,
    bottleneck_distance,
    minimal_cycle_basis,
    persistence_sequence,
    seq_distance,
    vr_h1_barcode,
)
from .reeb_smoothing import (
    SmoothedGraph,
    betti_after_smoothing,
    epsilon_smoothing,
    quotient_correspondence,
    smoothed_distance,
)

__version__ = "0.1.0"

# The kernels have one (numpy) implementation; perfbench/run.py still
# records this name in every run record.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "__version__",
    "Barcode",
    "BoundReport",
    "Correspondence",
    "Edge",
    "EdgePath",
    "EnsembleSpec",
    "GraphPoint",
    "MergeTree",
    "MetricGraph",
    "PersistenceSequence",
    "ReportRow",
    "SmoothedGraph",
    "TreeDistortionResult",
    "TreeNode",
    "VerificationReport",
    "betti_after_smoothing",
    "bottleneck_distance",
    "bottleneck_m",
    "brute_force_dgh",
    "build_merge_tree",
    "default_eps_grid",
    "delta_n_bounds",
    "dgh_bounds",
    "dgh_lower",
    "dghl_bounds",
    "diameter",
    "distance",
    "epsilon_net",
    "epsilon_smoothing",
    "f_values",
    "f_variation",
    "finite_metric",
    "graph_from_json_obj",
    "graph_to_json_obj",
    "gromov_product",
    "hyp_graph",
    "hyperbolicity",
    "is_simple_path",
    "load_graph",
    "minimal_cycle_basis",
    "monotone_decomposition",
    "monotone_subdivision",
    "path_length",
    "persistence_sequence",
    "point_from_json_obj",
    "point_to_json_obj",
    "points_equal",
    "quotient_correspondence",
    "r_extension",
    "random_graph",
    "save_graph",
    "seq_distance",
    "shortest_path",
    "smoothed_distance",
    "t_p",
    "tree_distortion",
    "verify",
    "vr_h1_barcode",
]
