"""The survey taxonomy (Figure 2) as an executable registry.

Every leaf of the taxonomy maps to the library object implementing it, so
benchmarks can *verify* coverage (Table 1 / Figure 2 reproduction) instead
of merely claiming it: each leaf is instantiable and runnable.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List


@dataclasses.dataclass(frozen=True)
class TaxonomyLeaf:
    """One leaf of the Figure 2 taxonomy."""

    name: str
    phase: str
    category: str
    implementation: str  # dotted path inside the repro package
    survey_examples: str


def _leaf(name, phase, category, implementation, examples) -> TaxonomyLeaf:
    return TaxonomyLeaf(name, phase, category, implementation, examples)


TAXONOMY: List[TaxonomyLeaf] = [
    # ----- Phase 1: Graph Formulation -------------------------------------
    # Pipeline-dispatched formulations point at their registered
    # repro.formulations classes (the Formulation protocol); the remaining
    # leaves point at their intrinsic graph builders.
    _leaf("instance graph", "formulation", "homogeneous",
          "repro.formulations.instance.InstanceFormulation",
          "LUNAR, SLAPS, IDGL, TabGSL"),
    _leaf("feature graph", "formulation", "homogeneous",
          "repro.formulations.feature.FeatureFormulation",
          "FI-GNN, T2G-Former, Table2Graph"),
    _leaf("bipartite graph", "formulation", "heterogeneous",
          "repro.construction.intrinsic.bipartite_from_dataset",
          "GRAPE, FATE, IGRM, PET"),
    _leaf("general heterogeneous graph", "formulation", "heterogeneous",
          "repro.formulations.hetero.HeteroFormulation",
          "GCT, HSGNN, xFraud, GraphFC"),
    _leaf("multiplex / multi-relational graph", "formulation", "heterogeneous",
          "repro.formulations.multiplex.MultiplexFormulation",
          "TabGNN, AMG, GCondNet"),
    _leaf("knowledge graph", "formulation", "heterogeneous",
          "repro.construction.intrinsic.feature_graph_from_knowledge", "PLATO, JenTab"),
    _leaf("hypergraph", "formulation", "hypergraph",
          "repro.formulations.hypergraph.HypergraphFormulation",
          "HCL, HyTrel, PET"),
    # ----- Phase 2: Graph Construction ------------------------------------
    _leaf("intrinsic structure", "construction", "intrinsic",
          "repro.construction.intrinsic.bipartite_from_dataset",
          "GRAPE, MedGraph, FATE, RelBench"),
    _leaf("k-nearest neighbors", "construction", "rule-based",
          "repro.construction.rules.knn_graph", "LUNAR, GNN4MV, LSTM-GNN, CCNS"),
    _leaf("thresholding", "construction", "rule-based",
          "repro.construction.rules.threshold_graph", "GINN, GAEOD, GEDI"),
    _leaf("fully-connected", "construction", "rule-based",
          "repro.construction.rules.fully_connected_graph",
          "Fi-GNN, SGANM, IAGNN, FinGAT"),
    _leaf("same feature value", "construction", "rule-based",
          "repro.construction.rules.same_value_graph", "TabGNN, WPN"),
    _leaf("metric-based learning", "construction", "learning-based",
          "repro.construction.learned.MetricGraphLearner",
          "IDGL, DGM, EGG-GAE, HES-GSL"),
    _leaf("neural learning", "construction", "learning-based",
          "repro.construction.learned.NeuralGraphLearner",
          "SLAPS, SUBLIME, TabGSL, T2G-Former"),
    _leaf("direct learning", "construction", "learning-based",
          "repro.construction.learned.DirectGraphLearner",
          "LDS, ALLG, Table2Graph, Causal-GNN"),
    _leaf("retrieval-based", "construction", "other",
          "repro.construction.retrieval.retrieval_augmented_graph", "PET, FIVES"),
    _leaf("knowledge-based", "construction", "other",
          "repro.construction.intrinsic.feature_graph_from_knowledge",
          "PLATO, TabularNet"),
    # ----- Phase 3: Representation Learning --------------------------------
    _leaf("GCN", "representation", "homogeneous GNNs",
          "repro.gnn.networks.GCN", "GINN, IDGL, SLAPS, SUBLIME, TabGSL"),
    _leaf("GraphSAGE", "representation", "homogeneous GNNs",
          "repro.gnn.networks.GraphSAGE", "LSTM-GNN, GRAPE, GNNDP, IGRM"),
    _leaf("GAT", "representation", "homogeneous GNNs",
          "repro.gnn.networks.GAT", "GATE, WPN, FinGAT, FT-GAT"),
    _leaf("GIN", "representation", "homogeneous GNNs",
          "repro.gnn.networks.GIN", "DRSA-Net"),
    _leaf("gated GNN", "representation", "homogeneous GNNs",
          "repro.gnn.networks.GatedGNN", "Fi-GNN, Causal-GNN"),
    _leaf("graph autoencoder", "representation", "homogeneous GNNs",
          "repro.gnn.autoencoder.GraphAutoencoder", "MST-GRA, GAEOD"),
    _leaf("dense GCN (learned structure)", "representation", "homogeneous GNNs",
          "repro.gnn.dense.DenseGNN", "IDGL, SLAPS, LDS"),
    _leaf("RGCN", "representation", "heterogeneous GNNs",
          "repro.gnn.hetero.RGCNConv", "TabGNN substrate, AMG-DP"),
    _leaf("typed hetero GNN", "representation", "heterogeneous GNNs",
          "repro.gnn.hetero.HeteroGNN", "HSGNN (HAN), xFraud (HGT), GraphFC"),
    _leaf("hypergraph GNN", "representation", "hypergraph GNNs",
          "repro.gnn.hyper.HypergraphGNN", "HCL, HyTrel, PET"),
    _leaf("specialized: multiplex fusion", "representation", "specialized GNNs",
          "repro.models.tabgnn.TabGNN", "TabGNN"),
    _leaf("specialized: bipartite value messages", "representation", "specialized GNNs",
          "repro.models.grape.GRAPE", "GRAPE, IGRM"),
    _leaf("specialized: distance preservation", "representation", "specialized GNNs",
          "repro.models.lunar.LUNAR", "LUNAR"),
    _leaf("specialized: feature interaction", "representation", "specialized GNNs",
          "repro.models.fignn.FiGNN", "Fi-GNN"),
    _leaf("specialized: feature selection graph", "representation", "specialized GNNs",
          "repro.models.feature_graph.FeatureGraphClassifier", "T2G-Former, GRC"),
    _leaf("specialized: permutation invariance", "representation", "specialized GNNs",
          "repro.models.fate.FATE", "FATE"),
    _leaf("specialized: neighbor sampling", "representation", "specialized GNNs",
          "repro.models.care.CAREGNN", "CARE-GNN, RioGNN, PC-GNN, C-FATH"),
    _leaf("specialized: label adjustment", "representation", "specialized GNNs",
          "repro.models.pet.PET", "PET, SGANM"),
    _leaf("scalable mini-batch sampling", "representation", "homogeneous GNNs",
          "repro.gnn.sampling.train_sampled", "GraphSAGE, GraphSAINT (Sec. 6 scaling)"),
    # ----- Phase 4: Training Plans -----------------------------------------
    _leaf("feature reconstruction", "training", "learning tasks",
          "repro.training.tasks.FeatureReconstructionTask",
          "GINN, GEDI, EGG-GAE, GRAPE"),
    _leaf("denoising autoencoder", "training", "learning tasks",
          "repro.training.tasks.DenoisingAutoencoderTask", "SLAPS, HES-GSL"),
    _leaf("contrastive learning", "training", "learning tasks",
          "repro.training.tasks.ContrastiveTask", "SUBLIME, TabGSL, SSGNet"),
    _leaf("graph regularization", "training", "learning tasks",
          "repro.training.tasks.smoothness_regularizer",
          "IDGL, MST-GRA, GraphFC, ALLG"),
    _leaf("sparsity regularization", "training", "learning tasks",
          "repro.training.tasks.sparsity_regularizer", "Table2Graph"),
    _leaf("graph completion SSL", "training", "learning tasks",
          "repro.training.ssl.GraphCompletionTask", "Sec. 6 proposal (c)"),
    _leaf("neighborhood prediction SSL", "training", "learning tasks",
          "repro.training.ssl.NeighborhoodPredictionTask", "Sec. 6 proposal (d)"),
    _leaf("graph clustering SSL", "training", "learning tasks",
          "repro.training.ssl.GraphClusteringTask", "Sec. 6 proposal (b)"),
    _leaf("explanation preservation", "training", "learning tasks",
          "repro.explain.GNNExplainer", "xFraud (GNNExplainer)"),
    _leaf("end-to-end", "training", "strategies",
          "repro.training.strategies.train_end_to_end",
          "TabGSL, T2G-Former, LUNAR, TabGNN, PET, DGM, Fi-GNN"),
    _leaf("two-stage", "training", "strategies",
          "repro.training.strategies.train_two_stage",
          "SUBLIME, GRAPE, GINN, MedGraph"),
    _leaf("pretrain-finetune", "training", "strategies",
          "repro.training.strategies.train_pretrain_finetune", "ALLG, GraphFC"),
    _leaf("alternating", "training", "strategies",
          "repro.training.strategies.train_alternating", "GEDI"),
    _leaf("adversarial", "training", "strategies",
          "repro.training.strategies.train_adversarial_reconstruction", "GINN"),
    _leaf("bi-level", "training", "strategies",
          "repro.training.strategies.train_bilevel", "LDS, FIVES, FATE"),
]

# Table 1 scope axes claimed by the survey for itself.
SCOPE_AXES = {
    "TDP": "tabular data prediction — repro.models, repro.pipeline",
    "GRL": "graph representation learning — repro.gnn",
    "GSL": "graph structure learning — repro.construction.learned",
    "SSL": "self-supervised learning — repro.training.tasks",
    "TS": "training strategies — repro.training.strategies",
    "AT": "auxiliary tasks — repro.training.tasks",
    "App": "applications — repro.applications, examples/",
}


def resolve(dotted: str):
    """Import and return the object at a dotted path like 'repro.gnn.GCN'."""
    import importlib

    module_path, _, attr = dotted.rpartition(".")
    module = importlib.import_module(module_path)
    return getattr(module, attr)


def phases() -> List[str]:
    seen: List[str] = []
    for leaf in TAXONOMY:
        if leaf.phase not in seen:
            seen.append(leaf.phase)
    return seen


def leaves_by_phase() -> Dict[str, List[TaxonomyLeaf]]:
    grouped: Dict[str, List[TaxonomyLeaf]] = {}
    for leaf in TAXONOMY:
        grouped.setdefault(leaf.phase, []).append(leaf)
    return grouped


def taxonomy_tree() -> str:
    """Render the Figure 2 taxonomy as an ASCII tree."""
    lines = ["GNN4TDL"]
    for phase, leaves in leaves_by_phase().items():
        lines.append(f"├── {phase}")
        categories: Dict[str, List[TaxonomyLeaf]] = {}
        for leaf in leaves:
            categories.setdefault(leaf.category, []).append(leaf)
        for category, members in categories.items():
            lines.append(f"│   ├── {category}")
            for member in members:
                lines.append(f"│   │   ├── {member.name}  [{member.survey_examples}]")
    return "\n".join(lines)


def verify_all_leaves() -> Dict[str, bool]:
    """Check that every taxonomy leaf resolves to a real library object."""
    return {leaf.name: resolve(leaf.implementation) is not None for leaf in TAXONOMY}
