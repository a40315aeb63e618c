"""Intrinsic-structure graph construction (survey Sec. 4.2.1).

Builders that use only the table's own row/column/value structure:
bipartite instance-feature graphs (GRAPE/FATE), heterogeneous graphs with
feature values as typed nodes (GCT/HSGNN/GraphFC), multiplex graphs with one
layer per categorical column (TabGNN), hypergraphs with rows as hyperedges
(HCL/PET), and feature graphs from correlation or external knowledge.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.preprocessing import KBinsDiscretizer, StandardScaler, bin_codes
from repro.datasets.tabular import TabularDataset
from repro.graph.bipartite import BipartiteGraph
from repro.graph.heterogeneous import HeteroGraph
from repro.graph.homogeneous import Graph
from repro.graph.hypergraph import Hypergraph
from repro.graph.multiplex import MultiplexGraph
from repro.construction.rules import same_value_graph


@dataclasses.dataclass(frozen=True)
class ValueColumnSpec:
    """One value-node column of a hetero/multiplex construction.

    The same-feature-value rule and the value-typed-node rule both view the
    table as a list of code columns: every categorical column directly, and
    (optionally) every numerical column after quantile binning.  The spec
    freezes what a serving artifact needs to re-derive a query row's codes
    with training-time boundaries: the source column index, the code
    cardinality, and — for binned columns — the fitted quantile edges.
    """

    name: str
    kind: str  # "categorical" | "binned"
    source: int  # index into dataset.categorical / dataset.numerical
    cardinality: int
    codes: np.ndarray  # (n,) training codes; -1 = missing
    bin_edges: Optional[np.ndarray] = None

    def encode(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        """Codes for raw query rows using the frozen training boundaries."""
        if self.kind == "categorical":
            return np.asarray(categorical[:, self.source], dtype=np.int64)
        return bin_codes(numerical[:, self.source], self.bin_edges)

    def to_meta(self) -> Dict[str, object]:
        """JSON-safe column description for artifact sidecars."""
        return {
            "name": self.name,
            "kind": self.kind,
            "source": int(self.source),
            "cardinality": int(self.cardinality),
        }

    @classmethod
    def from_meta(
        cls, meta: Dict[str, object], bin_edges: Optional[np.ndarray] = None
    ) -> "ValueColumnSpec":
        """Rebuild a serve-side spec from :meth:`to_meta` output.

        Training codes are not persisted (serve-time state lives in the
        formulation's vocabularies/graph), so ``codes`` comes back empty.
        """
        return cls(
            str(meta["name"]),
            str(meta["kind"]),
            int(meta["source"]),
            int(meta["cardinality"]),
            codes=np.zeros(0, np.int64),
            bin_edges=None if bin_edges is None else np.asarray(bin_edges),
        )


def value_column_specs(
    dataset: TabularDataset,
    n_bins: int = 5,
    include_numerical_bins: bool = False,
) -> List[ValueColumnSpec]:
    """The ordered code columns hetero/multiplex constructions are built from."""
    specs: List[ValueColumnSpec] = []
    for j, name in enumerate(dataset.categorical_names):
        specs.append(ValueColumnSpec(
            name, "categorical", j, dataset.cardinalities[j], dataset.categorical[:, j]
        ))
    if include_numerical_bins and dataset.num_numerical:
        disc = KBinsDiscretizer(n_bins).fit(dataset.numerical)
        binned = disc.transform(dataset.numerical)
        for j, name in enumerate(dataset.numerical_names):
            specs.append(ValueColumnSpec(
                f"{name}_bin", "binned", j, n_bins, binned[:, j], disc.edges_[j]
            ))
    return specs


def bipartite_from_dataset(dataset: TabularDataset) -> BipartiteGraph:
    """Instances × (numerical features ∪ one-hot categorical values) bipartite graph.

    Numerical cells become weighted edges carrying the z-scored value;
    categorical cells become weight-1 edges to the (column=value) feature
    node.  NaN / missing cells create no edge — GRAPE's formulation.
    """
    blocks = []
    if dataset.num_numerical:
        scaled = StandardScaler().fit_transform(dataset.numerical)
        blocks.append(scaled)
    if dataset.num_categorical:
        onehot = np.zeros((dataset.num_instances, dataset.num_category_values))
        value_ids = dataset.global_value_ids()
        rows, cols = np.nonzero(value_ids >= 0)
        onehot[rows, value_ids[rows, cols]] = 1.0
        onehot[onehot == 0.0] = np.nan  # absent one-hot cells are "no edge"
        blocks.append(onehot)
    if not blocks:
        raise ValueError("dataset has no features")
    table = np.concatenate(blocks, axis=1)
    return BipartiteGraph.from_table(table, y=dataset.y)


def hetero_from_dataset(
    dataset: TabularDataset,
    n_bins: int = 5,
    include_numerical_bins: bool = False,
    specs: Optional[List[ValueColumnSpec]] = None,
) -> HeteroGraph:
    """Heterogeneous graph: instance nodes + one node type per categorical column.

    Each categorical column ``c`` contributes nodes for its distinct values
    and a ``has_c`` edge type from instances to their value — the GCT /
    HSGNN / GraphFC formulation.  Optionally numerical columns are
    quantile-binned into value nodes too.
    """
    counts: Dict[str, int] = {"instance": dataset.num_instances}
    if specs is None:
        specs = value_column_specs(dataset, n_bins, include_numerical_bins)
    if not specs:
        raise ValueError(
            "hetero formulation needs categorical columns "
            "(or include_numerical_bins=True)"
        )
    for spec in specs:
        counts[spec.name] = spec.cardinality
    graph = HeteroGraph(counts)
    for spec in specs:
        observed = np.nonzero(spec.codes >= 0)[0]
        edge_index = np.stack([observed, spec.codes[observed]]).astype(np.int64)
        graph.add_edges(("instance", f"has_{spec.name}", spec.name), edge_index)
    graph.add_reverse_edges()
    if dataset.num_numerical:
        graph.set_features("instance", StandardScaler().fit_transform(
            np.nan_to_num(dataset.numerical, nan=0.0)
        ))
    else:
        graph.set_features("instance", np.ones((dataset.num_instances, 1)))
    graph.set_labels("instance", dataset.y)
    return graph


def multiplex_from_dataset(
    dataset: TabularDataset,
    n_bins: int = 5,
    include_numerical_bins: bool = False,
    max_group_degree: Optional[int] = 30,
    rng: Optional[np.random.Generator] = None,
) -> MultiplexGraph:
    """Multiplex instance graph: one Same-Feature-Value layer per column (TabGNN)."""
    x = dataset.to_matrix()
    graph = MultiplexGraph(dataset.num_instances, x=x, y=dataset.y)
    rng = rng or np.random.default_rng(0)
    for spec in value_column_specs(dataset, n_bins, include_numerical_bins):
        layer = same_value_graph(
            spec.codes, max_group_degree=max_group_degree, rng=rng
        )
        graph.add_layer(spec.name, layer.edge_index)
        graph.add_value_layer(spec.name, spec.codes)
    if not graph.relations:
        raise ValueError(
            "multiplex formulation needs categorical columns "
            "(or include_numerical_bins=True)"
        )
    return graph


@dataclasses.dataclass(frozen=True)
class HypergraphSpec:
    """Frozen row → value-node membership map of a rows-as-hyperedges build.

    The hypergraph construction turns every (column, value) pair into one
    value node; a row's hyperedge is the set of nodes its cells hit.  This
    spec freezes everything a serving artifact needs to re-derive that
    membership for *query* rows with training-time semantics: the global id
    offsets per column, the categorical cardinalities (ids at or beyond a
    column's training cardinality are never-seen values → no membership,
    the UNK fallback), which numerical columns were treated as binary
    membership flags, and the fitted quantile edges for the binned ones.

    ``encode`` reproduces the training incidence exactly when fed the
    training table, which is what makes served training rows match their
    transductive logits.
    """

    cat_cardinalities: np.ndarray  # (n_cat,) training cardinalities
    cat_offsets: np.ndarray  # (n_cat,) global value-id offset per column
    binary_cols: np.ndarray  # numerical column indices with 0/1 semantics
    binary_offsets: np.ndarray  # (n_binary,) value id of each membership node
    continuous_cols: np.ndarray  # numerical column indices, quantile-binned
    cont_offsets: np.ndarray  # (n_cont,) first value id of each column's bins
    bin_edges: np.ndarray  # (n_cont, n_bins - 1) fitted quantile edges
    num_values: int  # total value-node count (fixed at fit time)

    @property
    def num_member_columns(self) -> int:
        """Membership columns per row (categorical + binary + binned)."""
        return int(
            self.cat_offsets.size
            + self.binary_offsets.size
            + self.cont_offsets.size
        )

    def encode(
        self,
        numerical: np.ndarray,
        categorical: np.ndarray,
        stats: Optional[Dict[str, int]] = None,
    ) -> np.ndarray:
        """Global value-node ids ``(B, num_member_columns)``; ``-1`` = none.

        Missing cells (NaN numericals, ``-1`` categorical codes) and
        never-seen categorical codes both yield ``-1`` — no membership, the
        same zero-message fallback an all-missing training row gets.  When
        ``stats`` is given, never-seen codes increment ``stats["unk_values"]``
        (missing cells do not: absent is not unknown).
        """
        numerical = np.asarray(numerical, dtype=np.float64)
        categorical = np.asarray(categorical, dtype=np.int64)
        n = numerical.shape[0] if numerical.ndim == 2 else categorical.shape[0]
        blocks: List[np.ndarray] = []
        if self.cat_offsets.size:
            codes = categorical[:, : self.cat_offsets.size]
            seen = (codes >= 0) & (codes < self.cat_cardinalities[None, :])
            if stats is not None:
                stats["unk_values"] += int(
                    np.count_nonzero(codes >= self.cat_cardinalities[None, :])
                )
            blocks.append(np.where(seen, codes + self.cat_offsets[None, :], -1))
        if self.binary_cols.size:
            values = numerical[:, self.binary_cols]
            member = ~np.isnan(values) & (values == 1.0)
            blocks.append(np.where(member, self.binary_offsets[None, :], -1))
        if self.continuous_cols.size:
            binned = np.stack(
                [
                    bin_codes(numerical[:, col], self.bin_edges[i])
                    for i, col in enumerate(self.continuous_cols)
                ],
                axis=1,
            )
            blocks.append(
                np.where(binned >= 0, binned + self.cont_offsets[None, :], -1)
            )
        if not blocks:
            return np.full((n, 0), -1, dtype=np.int64)
        return np.concatenate(blocks, axis=1).astype(np.int64)

    def state(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """(arrays, json-safe meta) for artifact serialization."""
        arrays = {
            "cat_cardinalities": self.cat_cardinalities,
            "cat_offsets": self.cat_offsets,
            "binary_cols": self.binary_cols,
            "binary_offsets": self.binary_offsets,
            "continuous_cols": self.continuous_cols,
            "cont_offsets": self.cont_offsets,
            "bin_edges": self.bin_edges,
        }
        return arrays, {"num_values": int(self.num_values)}

    @classmethod
    def from_state(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "HypergraphSpec":
        def _ints(name: str) -> np.ndarray:
            return np.asarray(arrays[name], dtype=np.int64).reshape(-1)

        n_cont = _ints("continuous_cols").size
        bin_edges = np.asarray(arrays["bin_edges"], dtype=np.float64)
        # reshape(0, -1) is ill-defined for the empty array a dataset with
        # no binned columns persists; keep its (0, k) shape explicitly.
        bin_edges = (
            bin_edges.reshape(n_cont, -1) if n_cont else bin_edges.reshape(0, 0)
        )
        return cls(
            cat_cardinalities=_ints("cat_cardinalities"),
            cat_offsets=_ints("cat_offsets"),
            binary_cols=_ints("binary_cols"),
            binary_offsets=_ints("binary_offsets"),
            continuous_cols=_ints("continuous_cols"),
            cont_offsets=_ints("cont_offsets"),
            bin_edges=bin_edges,
            num_values=int(meta["num_values"]),
        )


def hypergraph_spec_from_dataset(
    dataset: TabularDataset,
    n_bins: int = 5,
    include_numerical_bins: bool = True,
) -> HypergraphSpec:
    """Fit the frozen :class:`HypergraphSpec` the hypergraph build uses.

    Categorical values become nodes directly.  Numerical columns are
    quantile-binned into value nodes — except *binary* (0/1) columns such as
    EHR multi-hot code indicators, which become a single membership node
    joined exactly when the value is 1 (binning a mostly-constant column
    would collapse all rows into one degenerate bin).
    """
    offset = 0
    if dataset.num_categorical:
        cardinalities = np.asarray(dataset.cardinalities, dtype=np.int64)
        cat_offsets = np.cumsum(np.concatenate([[0], cardinalities[:-1]]))
        offset = int(cardinalities.sum())
    else:
        cardinalities = cat_offsets = np.zeros(0, dtype=np.int64)
    binary_cols = continuous_cols = np.zeros(0, dtype=np.int64)
    binary_offsets = cont_offsets = np.zeros(0, dtype=np.int64)
    bin_edges = np.zeros((0, max(n_bins - 1, 0)))
    if include_numerical_bins and dataset.num_numerical:
        numerical = dataset.numerical
        observed = ~np.isnan(numerical)
        is_binary = np.array([
            bool(np.isin(numerical[observed[:, j], j], (0.0, 1.0)).all())
            for j in range(dataset.num_numerical)
        ])
        binary_cols = np.nonzero(is_binary)[0].astype(np.int64)
        binary_offsets = offset + np.arange(binary_cols.size, dtype=np.int64)
        offset += int(binary_cols.size)
        continuous_cols = np.nonzero(~is_binary)[0].astype(np.int64)
        if continuous_cols.size:
            disc = KBinsDiscretizer(n_bins).fit(numerical[:, continuous_cols])
            bin_edges = np.stack(disc.edges_)
            cont_offsets = offset + n_bins * np.arange(
                continuous_cols.size, dtype=np.int64
            )
            offset += int(continuous_cols.size) * n_bins
    if offset == 0:
        raise ValueError("hypergraph formulation needs at least one value column")
    return HypergraphSpec(
        cat_cardinalities=cardinalities,
        cat_offsets=cat_offsets,
        binary_cols=binary_cols,
        binary_offsets=binary_offsets,
        continuous_cols=continuous_cols,
        cont_offsets=cont_offsets,
        bin_edges=bin_edges,
        num_values=offset,
    )


def hypergraph_from_dataset(
    dataset: TabularDataset,
    n_bins: int = 5,
    include_numerical_bins: bool = True,
    spec: Optional[HypergraphSpec] = None,
) -> Hypergraph:
    """Rows-as-hyperedges hypergraph over feature-value nodes (HCL/PET).

    See :func:`hypergraph_spec_from_dataset` for how cells map to value
    nodes; pass an already-fitted ``spec`` to reuse its frozen encoder (the
    servable formulation does, so the persisted spec and the training
    incidence can never drift apart).
    """
    if spec is None:
        spec = hypergraph_spec_from_dataset(
            dataset, n_bins=n_bins, include_numerical_bins=include_numerical_bins
        )
    value_ids = spec.encode(dataset.numerical, dataset.categorical)
    return Hypergraph.from_value_table(
        value_ids, num_values=spec.num_values, y=dataset.y
    )


def feature_graph_from_correlation(
    x: np.ndarray,
    threshold: float = 0.3,
    weighted: bool = True,
) -> Graph:
    """Feature graph with edges between |Pearson|-correlated columns.

    A rule/knowledge hybrid used as the default feature-graph construction
    when no external knowledge graph is available (IGNNet uses Pearson
    correlation for exactly this).
    """
    x = np.nan_to_num(np.asarray(x, dtype=np.float64), nan=0.0)
    d = x.shape[1]
    if d == 0:
        raise ValueError("need at least one feature column")
    std = x.std(axis=0)
    safe = np.where(std > 0, std, 1.0)
    normed = (x - x.mean(axis=0)) / safe
    corr = (normed.T @ normed) / max(1, x.shape[0])
    corr[np.abs(corr) < threshold] = 0.0
    np.fill_diagonal(corr, 0.0)
    src, dst = np.nonzero(corr)
    edge_index = np.stack([src, dst]).astype(np.int64) if src.size else np.zeros((2, 0), np.int64)
    weight = np.abs(corr[src, dst]) if (weighted and src.size) else None
    return Graph(d, edge_index, edge_weight=weight)


def feature_graph_from_knowledge(
    num_features: int,
    edges: Sequence[Tuple[int, int]],
    symmetric: bool = True,
) -> Graph:
    """Feature graph from an expert-provided relation list (PLATO-style).

    ``edges`` are (feature_i, feature_j) pairs from domain knowledge
    (protein maps, clinical variable dependencies, ...).
    """
    if not edges:
        raise ValueError("knowledge edge list is empty")
    edge_index = np.array(edges, dtype=np.int64).T
    if symmetric:
        from repro.graph.utils import symmetrize_edge_index

        edge_index, _ = symmetrize_edge_index(edge_index)
    return Graph(num_features, edge_index)
