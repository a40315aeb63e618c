"""Hypergraphs for tabular data (survey Sec. 4.1.3, HCL [10] / PET [27]).

Nodes are distinct feature values; every table row becomes one hyperedge
joining the values it contains.  The incidence matrix ``H`` (nodes ×
hyperedges) drives HGNN-style convolution:

    X' = Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2} X Θ
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.utils import safe_reciprocal


class Hypergraph:
    """A hypergraph stored as a sparse incidence matrix.

    Parameters
    ----------
    incidence:
        ``(num_nodes, num_hyperedges)`` sparse 0/1 matrix; ``H[v, e] = 1``
        iff node ``v`` belongs to hyperedge ``e``.
    x:
        Optional node features.
    y:
        Optional *hyperedge* labels (rows are hyperedges in the tabular
        formulation, so classification is hyperedge-level — "Edge" task in
        the survey's Table 2 for HCL).
    """

    def __init__(
        self,
        incidence: sp.spmatrix,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> None:
        self.incidence = sp.csr_matrix(incidence)
        if (self.incidence.data < 0).any():
            raise ValueError("incidence entries must be nonnegative")
        self.x = None if x is None else np.asarray(x, dtype=np.float64)
        if self.x is not None and self.x.shape[0] != self.num_nodes:
            raise ValueError("x must have one row per node")
        self.y = None if y is None else np.asarray(y)
        if self.y is not None and self.y.shape[0] != self.num_hyperedges:
            raise ValueError("y must have one entry per hyperedge")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.incidence.shape[0])

    @property
    def num_hyperedges(self) -> int:
        return int(self.incidence.shape[1])

    def node_degrees(self) -> np.ndarray:
        return np.asarray(self.incidence.sum(axis=1)).reshape(-1)

    def hyperedge_degrees(self) -> np.ndarray:
        return np.asarray(self.incidence.sum(axis=0)).reshape(-1)

    # ------------------------------------------------------------------
    def hgnn_operator(self) -> sp.csr_matrix:
        """The normalized clique-expansion operator of HGNN (node → node)."""
        h = self.incidence
        dv = self.node_degrees()
        de = self.hyperedge_degrees()
        dv_inv_sqrt = sp.diags(safe_reciprocal(dv, power=0.5))
        de_inv = sp.diags(safe_reciprocal(de))
        return (dv_inv_sqrt @ h @ de_inv @ h.T @ dv_inv_sqrt).tocsr()

    def node_to_edge_operator(self) -> sp.csr_matrix:
        """Mean-aggregate node states into hyperedge states (edges × nodes)."""
        de = self.hyperedge_degrees()
        return (sp.diags(safe_reciprocal(de)) @ self.incidence.T).tocsr()

    def edge_to_node_operator(self) -> sp.csr_matrix:
        """Mean-aggregate hyperedge states back into nodes (nodes × edges)."""
        dv = self.node_degrees()
        return (sp.diags(safe_reciprocal(dv)) @ self.incidence).tocsr()

    # ------------------------------------------------------------------
    # serving: the attached-query oracle and state serialization
    # ------------------------------------------------------------------
    @staticmethod
    def _memberships(member_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
        """Deduplicated ``(node, hyperedge)`` membership pairs from an id table.

        ``member_ids[b, c]`` is the global value-node id row ``b`` takes in
        membership column ``c``; negatives mark missing/UNK cells and create
        no membership — exactly :meth:`from_value_table`'s convention.
        """
        member_ids = np.asarray(member_ids, dtype=np.int64)
        if member_ids.ndim != 2:
            raise ValueError("member_ids must be a 2-D (B, columns) table")
        rows, cols = np.nonzero(member_ids >= 0)
        nodes = member_ids[rows, cols]
        pairs = np.unique(np.stack([rows, nodes], axis=1), axis=0)
        return pairs[:, 1], pairs[:, 0], int(member_ids.shape[0])

    def with_hyperedges(self, member_ids: np.ndarray) -> "Hypergraph":
        """Copy with B query hyperedges appended as new incidence columns.

        The attach is *directed*: the node→node :meth:`hgnn_operator` (node
        degrees and the ``H De^-1 H^T`` mixing) is still computed from the
        original columns only, so value-node states are exactly those of the
        frozen hypergraph, while the :meth:`node_to_edge_operator` readout
        covers the appended columns with their own degrees.  This is the
        hypergraph serving oracle (``compiled=False``) the compiled plan is
        tested against: ``forward()`` on the attached copy reproduces
        training-hyperedge logits bit-for-bit and scores the queries through
        the model's ordinary spmm path.  A query with no memberships (all
        cells missing/UNK) reads out the zero state, the same fallback an
        all-missing training row has.
        """
        src, dst, n_queries = self._memberships(member_ids)
        if src.size and int(src.max()) >= self.num_nodes:
            raise ValueError("member id exceeds the frozen value-node count")
        extra = sp.csr_matrix(
            (np.ones(src.shape[0]), (src, dst)),
            shape=(self.num_nodes, n_queries),
        )
        incidence = sp.hstack([self.incidence, extra], format="csr")
        return _AttachedHypergraph(incidence, base_hyperedges=self.num_hyperedges)

    def state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """(arrays, json-safe meta) serialization of the incidence structure.

        Only the frozen structure is persisted — features and labels are
        training-side state a serving artifact does not need.
        """
        arrays = {
            "indptr": self.incidence.indptr.astype(np.int64),
            "indices": self.incidence.indices.astype(np.int64),
            "data": self.incidence.data.astype(np.float64),
        }
        meta = {
            "num_nodes": self.num_nodes,
            "num_hyperedges": self.num_hyperedges,
        }
        return arrays, meta

    @classmethod
    def from_state(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "Hypergraph":
        """Rebuild a hypergraph serialized by :meth:`state`."""
        incidence = sp.csr_matrix(
            (
                np.asarray(arrays["data"], dtype=np.float64),
                np.asarray(arrays["indices"], dtype=np.int64),
                np.asarray(arrays["indptr"], dtype=np.int64),
            ),
            shape=(int(meta["num_nodes"]), int(meta["num_hyperedges"])),
        )
        return cls(incidence)

    # ------------------------------------------------------------------
    @classmethod
    def from_value_table(
        cls,
        value_ids: np.ndarray,
        num_values: Optional[int] = None,
        y: Optional[np.ndarray] = None,
    ) -> "Hypergraph":
        """Build the rows-as-hyperedges hypergraph from a categorical table.

        ``value_ids[i, j]`` is the *global* id of the value that row ``i``
        takes in column ``j`` (use
        :class:`~repro.datasets.preprocessing.OrdinalEncoder` with global
        offsets).  Negative ids mark missing cells and create no membership.
        """
        value_ids = np.asarray(value_ids, dtype=np.int64)
        if value_ids.ndim != 2:
            raise ValueError("value_ids must be a 2-D table")
        n_rows, _ = value_ids.shape
        if num_values is None:
            num_values = int(value_ids.max()) + 1
        rows, cols = np.nonzero(value_ids >= 0)
        nodes = value_ids[rows, cols]
        incidence = sp.csr_matrix(
            (np.ones(len(nodes)), (nodes, rows)), shape=(num_values, n_rows)
        )
        incidence.data = np.minimum(incidence.data, 1.0)  # dedupe repeated values
        return cls(incidence, y=y)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Hypergraph(num_nodes={self.num_nodes}, "
            f"num_hyperedges={self.num_hyperedges})"
        )


class _AttachedHypergraph(Hypergraph):
    """A hypergraph with query columns appended under directed semantics.

    Produced by :meth:`Hypergraph.with_hyperedges`; the node→node operator
    sees only the first ``base_hyperedges`` columns so attached queries
    cannot perturb the frozen value-node states.
    """

    def __init__(self, incidence: sp.spmatrix, base_hyperedges: int) -> None:
        super().__init__(incidence)
        self.base_hyperedges = int(base_hyperedges)

    def hgnn_operator(self) -> sp.csr_matrix:
        base = Hypergraph(self.incidence[:, : self.base_hyperedges])
        return base.hgnn_operator()
