"""General heterogeneous graphs with typed nodes and typed edges (Sec. 4.1.2).

The canonical tabular use is *feature values as nodes*: each categorical
value becomes a typed node connected to the instances possessing it (GCT,
HSGNN, xFraud, GraphFC style).  Relational-database rows-as-typed-nodes also
fit this class (GNNDB/RelBench style).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

EdgeType = Tuple[str, str, str]  # (source node type, relation name, destination node type)


class HeteroGraph:
    """A heterogeneous graph: node sets per type, edge indexes per edge type.

    Parameters
    ----------
    node_counts:
        Mapping node-type name → number of nodes of that type.
    """

    def __init__(self, node_counts: Dict[str, int]) -> None:
        if not node_counts:
            raise ValueError("a heterogeneous graph needs at least one node type")
        self.node_counts: Dict[str, int] = {k: int(v) for k, v in node_counts.items()}
        self.edge_indexes: Dict[EdgeType, np.ndarray] = {}
        self.node_features: Dict[str, np.ndarray] = {}
        self.y: Optional[np.ndarray] = None
        self.target_type: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def node_types(self) -> List[str]:
        return list(self.node_counts)

    @property
    def edge_types(self) -> List[EdgeType]:
        return list(self.edge_indexes)

    @property
    def num_nodes_total(self) -> int:
        return sum(self.node_counts.values())

    def num_edges(self, edge_type: Optional[EdgeType] = None) -> int:
        if edge_type is not None:
            return int(self.edge_indexes[edge_type].shape[1])
        return int(sum(e.shape[1] for e in self.edge_indexes.values()))

    # ------------------------------------------------------------------
    def add_edges(self, edge_type: EdgeType, edge_index: np.ndarray) -> None:
        """Register edges of a given (src_type, relation, dst_type)."""
        src_type, _, dst_type = edge_type
        for t in (src_type, dst_type):
            if t not in self.node_counts:
                raise KeyError(f"unknown node type {t!r}")
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError("edge_index must have shape (2, E)")
        if edge_index.size:
            if edge_index[0].max() >= self.node_counts[src_type] or edge_index[0].min() < 0:
                raise ValueError(f"source ids out of range for type {src_type!r}")
            if edge_index[1].max() >= self.node_counts[dst_type] or edge_index[1].min() < 0:
                raise ValueError(f"destination ids out of range for type {dst_type!r}")
        if edge_type in self.edge_indexes:
            edge_index = np.concatenate([self.edge_indexes[edge_type], edge_index], axis=1)
        self.edge_indexes[edge_type] = edge_index

    def set_features(self, node_type: str, x: np.ndarray) -> None:
        if node_type not in self.node_counts:
            raise KeyError(f"unknown node type {node_type!r}")
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.node_counts[node_type]:
            raise ValueError(
                f"features for {node_type!r} must have {self.node_counts[node_type]} rows"
            )
        self.node_features[node_type] = x

    def set_labels(self, node_type: str, y: np.ndarray) -> None:
        if node_type not in self.node_counts:
            raise KeyError(f"unknown node type {node_type!r}")
        y = np.asarray(y)
        if y.shape[0] != self.node_counts[node_type]:
            raise ValueError("labels must cover every node of the target type")
        self.y = y
        self.target_type = node_type

    # ------------------------------------------------------------------
    def mean_operator(self, edge_type: EdgeType) -> sp.csr_matrix:
        """Row-normalized (dst × src) aggregation operator for one edge type."""
        src_type, _, dst_type = edge_type
        edge_index = self.edge_indexes[edge_type]
        matrix = sp.csr_matrix(
            (np.ones(edge_index.shape[1]), (edge_index[1], edge_index[0])),
            shape=(self.node_counts[dst_type], self.node_counts[src_type]),
        )
        degrees = np.asarray(matrix.sum(axis=1)).reshape(-1)
        from repro.graph.utils import safe_reciprocal

        return (sp.diags(safe_reciprocal(degrees)) @ matrix).tocsr()

    def reverse(self, edge_type: EdgeType) -> EdgeType:
        """The canonical reversed edge type."""
        src, rel, dst = edge_type
        return (dst, f"rev_{rel}", src)

    def add_reverse_edges(self) -> None:
        """Add a reversed copy of every edge type (for bidirectional message flow)."""
        for edge_type in list(self.edge_indexes):
            rev_type = self.reverse(edge_type)
            if rev_type not in self.edge_indexes:
                self.edge_indexes[rev_type] = self.edge_indexes[edge_type][::-1].copy()

    def with_queries(
        self, x: np.ndarray, sources: Dict[str, np.ndarray]
    ) -> "HeteroGraph":
        """Copy with B receive-only target-type nodes appended.

        ``x`` is the ``(B, d)`` feature block of the new target nodes and
        ``sources[src_type]`` each new node's one source node of that type
        (``-1``: no edge).  The new nodes get only ``src_type → target``
        edges, so no message leaves them and every other node's state is
        exactly this graph's.  This is the serving oracle for hetero
        artifacts, the typed analogue of
        :meth:`~repro.graph.Hypergraph.with_hyperedges`.
        """
        target = self.target_type
        x = np.asarray(x, dtype=np.float64)
        base = self.node_counts[target]
        counts = dict(self.node_counts)
        counts[target] = base + x.shape[0]
        graph = HeteroGraph(counts)
        for edge_type, edge_index in self.edge_indexes.items():
            graph.add_edges(edge_type, edge_index)
            src_type, _, dst_type = edge_type
            if dst_type == target and src_type != target:
                ids = np.asarray(sources[src_type], dtype=np.int64)
                rows = np.flatnonzero(ids >= 0)
                graph.add_edges(edge_type, np.stack([ids[rows], base + rows]))
        for node_type, features in self.node_features.items():
            if node_type == target:
                features = np.concatenate([features, x])
            graph.set_features(node_type, features)
        graph.target_type = target
        return graph

    # ------------------------------------------------------------------
    def state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """(arrays, json-safe meta) pair for artifact serialization.

        Edge types are flattened to ``src|rel|dst`` keys; the meta block
        records node counts, the key order (dict order is semantic for
        rebuilt models — layer parameters are matched positionally), the
        target type, and which node types carry explicit features.
        """
        arrays: Dict[str, np.ndarray] = {}
        for i, (edge_type, edge_index) in enumerate(self.edge_indexes.items()):
            arrays[f"edges::{i}"] = edge_index
        for node_type, x in self.node_features.items():
            arrays[f"features::{node_type}"] = x
        meta = {
            "node_types": list(self.node_counts),
            "node_counts": [int(self.node_counts[t]) for t in self.node_counts],
            "edge_types": ["|".join(et) for et in self.edge_indexes],
            "feature_types": list(self.node_features),
            "target_type": self.target_type,
        }
        return arrays, meta

    @classmethod
    def from_state(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "HeteroGraph":
        """Rebuild a graph saved by :meth:`state` (labels are not restored)."""
        graph = cls(dict(zip(meta["node_types"], meta["node_counts"])))
        for i, key in enumerate(meta["edge_types"]):
            src, rel, dst = str(key).split("|")
            graph.add_edges((src, rel, dst), arrays[f"edges::{i}"])
        for node_type in meta["feature_types"]:
            graph.set_features(str(node_type), arrays[f"features::{node_type}"])
        if meta.get("target_type"):
            graph.target_type = str(meta["target_type"])
        return graph

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"HeteroGraph(node_types={self.node_counts}, "
            f"edge_types={[et[1] for et in self.edge_types]})"
        )
