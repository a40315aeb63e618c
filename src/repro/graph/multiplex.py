"""Multiplex / multi-relational graphs (survey Sec. 4.1.2, TabGNN [51]).

All layers share one node set (the data instances); each layer is a
homogeneous graph built from one relation — typically "shares the value of
categorical feature f" (the Same-Feature-Value rule of Sec. 4.2.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.homogeneous import Graph


def group_mean_operators(
    codes: np.ndarray, receive_only: int = 0
) -> Tuple[sp.csr_matrix, sp.csr_matrix]:
    """``(members, means)``: ``members @ (means @ z)`` is each row's group mean.

    ``members`` is the ``(n, G)`` 0/1 membership matrix of the rows sharing
    a code and ``means = diag(1/|g|) @ members.T``; a missing code (-1)
    forms its own one-row group.  This equals GCN over the value cliques
    with self loops (every entry of a group's block is ``1/|g|``) with
    ``n`` nonzeros per matrix instead of ``|g|²`` per group.

    The last ``receive_only`` rows read a group mean without joining it:
    a row whose code matches an earlier row's reads the mean of those
    earlier rows only, and any other row (missing or unmatched code) is
    its own one-row group.  The earlier rows' operators are exactly the
    ones ``codes[:-receive_only]`` alone would give.
    """
    codes = np.asarray(codes, dtype=np.int64).reshape(-1)
    n = codes.shape[0] - int(receive_only)
    keys = np.where(codes[:n] >= 0, codes[:n], -1 - np.arange(n))
    uniq, group, sizes = np.unique(keys, return_inverse=True, return_counts=True)
    members = sp.csr_matrix((np.ones(n), group, np.arange(n + 1)), shape=(n, sizes.size))
    means = (sp.diags(1.0 / sizes) @ members.T).tocsr()
    if not receive_only:
        return members, means
    queries = codes[n:]
    group = np.searchsorted(uniq, queries)
    own = np.flatnonzero((queries < 0) | ~np.isin(queries, uniq))
    group[own] = sizes.size + np.arange(own.size)
    members.resize(n, sizes.size + own.size)
    means.resize(sizes.size, codes.size)
    members = sp.vstack([members, sp.csr_matrix(
        (np.ones(queries.size), group, np.arange(queries.size + 1)),
        shape=(queries.size, members.shape[1]),
    )], format="csr")
    means = sp.vstack([means, sp.csr_matrix(
        (np.ones(own.size), n + own, np.arange(own.size + 1)),
        shape=(own.size, codes.size),
    )], format="csr")
    return members, means


class MultiplexGraph:
    """A layered graph: one homogeneous layer per relation, shared nodes.

    A relation may also be held as a value layer (:meth:`add_value_layer`):
    one value code per node, which TabGNN aggregates by group mean.  The
    last :attr:`receive_only` nodes read group means without joining them
    (:meth:`with_queries`).

    Parameters
    ----------
    num_nodes:
        Size of the shared node set.
    x, y:
        Shared node features / labels (layers carry structure only).
    """

    def __init__(
        self,
        num_nodes: int,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.x = None if x is None else np.asarray(x, dtype=np.float64)
        if self.x is not None and self.x.shape[0] != num_nodes:
            raise ValueError("x must have one row per node")
        self.y = None if y is None else np.asarray(y)
        if self.y is not None and self.y.shape[0] != num_nodes:
            raise ValueError("y must have one entry per node")
        self._layers: Dict[str, Graph] = {}
        self._codes: Dict[str, np.ndarray] = {}
        self.receive_only = 0

    # ------------------------------------------------------------------
    @property
    def relations(self) -> List[str]:
        return list(self._layers)

    def add_layer(self, relation: str, edge_index: np.ndarray,
                  edge_weight: Optional[np.ndarray] = None) -> None:
        """Add one relation layer; node features/labels are shared."""
        if relation in self._layers:
            raise KeyError(f"relation {relation!r} already exists")
        self._layers[relation] = Graph(
            self.num_nodes, edge_index, x=self.x, y=self.y, edge_weight=edge_weight
        )

    def layer(self, relation: str) -> Graph:
        return self._layers[relation]

    def add_value_layer(self, relation: str, codes: np.ndarray) -> None:
        """Add one relation as per-node value codes (``-1`` = missing)."""
        if relation in self._codes:
            raise KeyError(f"value layer {relation!r} already exists")
        codes = np.asarray(codes, dtype=np.int64).reshape(-1)
        if codes.shape[0] != self.num_nodes:
            raise ValueError("codes must have one entry per node")
        self._codes[relation] = codes

    @property
    def value_layers(self) -> Dict[str, np.ndarray]:
        """Relation name → value codes, in insertion order."""
        return dict(self._codes)

    def with_queries(
        self, x: np.ndarray, codes: Sequence[np.ndarray]
    ) -> "MultiplexGraph":
        """Copy with B receive-only query rows appended to every value layer.

        ``x`` is the ``(B, d)`` query feature block and ``codes[r]`` the B
        value codes of the r-th value layer.  A query whose code some node
        of this graph holds reads that group's mean without moving it; any
        other query is its own one-row group.  This is the serving oracle
        for multiplex artifacts: TabGNN's forward on the copy scores the
        queries and leaves every original node's output unchanged.
        """
        x = np.asarray(x, dtype=np.float64)
        if len(codes) != len(self._codes):
            raise ValueError(
                f"expected {len(self._codes)} code arrays, got {len(codes)}"
            )
        graph = MultiplexGraph(
            self.num_nodes + x.shape[0], x=np.concatenate([self.x, x])
        )
        for (relation, pool), query in zip(self._codes.items(), codes):
            graph.add_value_layer(relation, np.concatenate([pool, query]))
        graph.receive_only = x.shape[0]
        return graph

    def flatten(self) -> Graph:
        """Merge all layers into a single multi-relational homogeneous graph.

        This is the "multi-relational graph" variant the survey contrasts
        with the layered multiplex view: all relations in one structure.
        """
        if not self._layers:
            return Graph(self.num_nodes, np.zeros((2, 0), dtype=np.int64), x=self.x, y=self.y)
        edge_index = np.concatenate([g.edge_index for g in self._layers.values()], axis=1)
        merged = Graph(self.num_nodes, edge_index, x=self.x, y=self.y)
        coalesced = merged.symmetrize()
        return coalesced

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"MultiplexGraph(num_nodes={self.num_nodes}, relations={self.relations})"
        )
