"""Graph construction from tabular data (survey Sec. 4.2).

Four families, matching the taxonomy:

* **Intrinsic structure** (Sec. 4.2.1): :mod:`repro.construction.intrinsic` —
  bipartite / heterogeneous / multiplex / hypergraph builders that use the
  table's own row-column-value structure.
* **Rule-based** (Sec. 4.2.2): :mod:`repro.construction.rules` — kNN,
  thresholding, fully-connected and same-feature-value edge criteria over a
  choice of similarity measures (Table 3's grid).
* **Learning-based** (Sec. 4.2.3): :mod:`repro.construction.learned` —
  metric-based, neural and direct graph structure learners (Table 4).
* **Other** (Sec. 4.2.4): retrieval-based neighbor pooling
  (:mod:`repro.construction.retrieval` — :class:`PoolIndex` links rows
  into a frozen pool by an exact scan or an IVF index) and
  knowledge-based feature graphs.
"""

from repro.construction.rules import (
    SIMILARITIES,
    fully_connected_graph,
    knn_edges,
    knn_graph,
    pairwise_distances,
    pairwise_similarity,
    same_value_graph,
    threshold_graph,
)
from repro.construction.intrinsic import (
    HypergraphSpec,
    bipartite_from_dataset,
    feature_graph_from_correlation,
    feature_graph_from_knowledge,
    hetero_from_dataset,
    hypergraph_from_dataset,
    hypergraph_spec_from_dataset,
    multiplex_from_dataset,
)
from repro.construction.learned import (
    DirectGraphLearner,
    MetricGraphLearner,
    NeuralGraphLearner,
    dense_gcn_norm,
    topk_sparsify,
)
from repro.construction.retrieval import PoolIndex, retrieval_augmented_graph

__all__ = [
    "SIMILARITIES",
    "fully_connected_graph",
    "knn_edges",
    "knn_graph",
    "pairwise_distances",
    "pairwise_similarity",
    "same_value_graph",
    "threshold_graph",
    "bipartite_from_dataset",
    "feature_graph_from_correlation",
    "feature_graph_from_knowledge",
    "hetero_from_dataset",
    "HypergraphSpec",
    "hypergraph_from_dataset",
    "hypergraph_spec_from_dataset",
    "multiplex_from_dataset",
    "DirectGraphLearner",
    "MetricGraphLearner",
    "NeuralGraphLearner",
    "dense_gcn_norm",
    "topk_sparsify",
    "PoolIndex",
    "retrieval_augmented_graph",
]
