"""Graph substrate: storage, shortest paths, 2-hop cover, Steiner trees.

Everything in this package is implemented from scratch (no third-party
graph library at runtime); it is the foundation the team-discovery
algorithms in :mod:`repro.core` are built on.
"""

from .adjacency import Graph, GraphError, Node
from .articulation import articulation_points, bridges
from .centrality import betweenness_centrality
from .components import (
    bfs_order,
    connected_components,
    is_connected,
    is_tree,
    largest_component,
    prune_leaves,
)
from .dijkstra import (
    dijkstra,
    dijkstra_with_node_costs,
    reconstruct_path,
    shortest_path,
    shortest_path_length,
)
from .distance import DijkstraOracle, DistanceOracle, build_oracle
from .generators import (
    assign_random_weights,
    barabasi_albert,
    erdos_renyi,
    gnm_random_graph,
    planted_partition,
    random_tree,
    watts_strogatz,
)
from .metrics import (
    approximate_average_distance,
    average_clustering,
    average_degree,
    degree_histogram,
    density,
    local_clustering,
)
from .pll import PrunedLandmarkLabeling, pll_build_count
from .steiner import (
    MAX_DW_TERMINALS,
    dreyfus_wagner,
    minimum_spanning_tree,
    mst_steiner_tree,
)
from .unionfind import UnionFind

__all__ = [
    "Graph",
    "GraphError",
    "Node",
    "betweenness_centrality",
    "articulation_points",
    "bridges",
    "bfs_order",
    "connected_components",
    "is_connected",
    "is_tree",
    "largest_component",
    "prune_leaves",
    "dijkstra",
    "dijkstra_with_node_costs",
    "reconstruct_path",
    "shortest_path",
    "shortest_path_length",
    "DistanceOracle",
    "DijkstraOracle",
    "build_oracle",
    "PrunedLandmarkLabeling",
    "pll_build_count",
    "approximate_average_distance",
    "average_clustering",
    "average_degree",
    "degree_histogram",
    "density",
    "local_clustering",
    "assign_random_weights",
    "barabasi_albert",
    "erdos_renyi",
    "gnm_random_graph",
    "planted_partition",
    "random_tree",
    "watts_strogatz",
    "minimum_spanning_tree",
    "mst_steiner_tree",
    "dreyfus_wagner",
    "MAX_DW_TERMINALS",
    "UnionFind",
]
