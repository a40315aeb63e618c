"""Multiplex formulation: one same-feature-value layer per column (TabGNN).

Phases 1+2: every categorical column (and, optionally, every quantile-
binned numerical column) contributes one relation layer connecting
instances that share a value; :class:`~repro.models.TabGNN` encodes each
relation with a GCN and fuses them by attention.

Serving — value-node vocabularies with an UNK bucket
----------------------------------------------------
The fitted formulation freezes, per relation, the **vocabulary** mapping
each observed value to the pool rows possessing it (plus, for binned
columns, the quantile edges that map raw numbers to values).  An unseen
row's value is looked up in the frozen vocabulary and the query aggregates
the cached pool-side conv messages of that group; a *never-seen* value
falls into the UNK bucket — no pool group, the query's own transformed
state flows through instead (exactly the one-row group a missing value
forms in training) — so out-of-vocabulary values yield valid predictions
without growing the vocabulary.  TabGNN trains on the same exact group
means (GCN over a value clique with self loops *is* the group mean, and
the clique is never built), so training-table rows served this way always
reproduce their transductive logits to round-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro import nn
from repro.construction.intrinsic import ValueColumnSpec, value_column_specs
from repro.datasets.preprocessing import TabularPreprocessor
from repro.formulations.base import FittedFormulation, Formulation, RowScorer
from repro.graph.multiplex import MultiplexGraph
from repro.models import TabGNN

Vocabulary = Dict[int, np.ndarray]  # value code -> pool member row indices


def _build_vocabularies(specs: List[ValueColumnSpec]) -> List[Vocabulary]:
    vocabs: List[Vocabulary] = []
    for spec in specs:
        vocab: Vocabulary = {}
        for value in np.unique(spec.codes):
            if value < 0:
                continue
            vocab[int(value)] = np.nonzero(spec.codes == value)[0].astype(np.int64)
        vocabs.append(vocab)
    return vocabs


class MultiplexScorer(RowScorer):
    """Vocabulary-lookup scoring against cached pool relation messages."""

    incremental = True

    def __init__(
        self,
        artifact,
        fitted: "FittedMultiplex",
        incremental: Optional[bool],
        stats: Dict[str, int],
    ) -> None:
        if incremental is False:
            raise ValueError(
                "multiplex artifacts serve through frozen value-node "
                "vocabularies; there is no full-graph oracle path "
                "(incremental=False)"
            )
        self._artifact = artifact
        self._fitted = fitted
        self._stats = stats
        stats.setdefault("unk_values", 0)
        stats.setdefault("attach_edges", 0)
        self.model = artifact.build_model()
        self.pool_messages = self.model.pool_message_states()
        self._n_pool = fitted.graph.num_nodes

    def _member_operator(
        self, codes: np.ndarray, vocab: Vocabulary
    ) -> sp.csr_matrix:
        """(B, n_pool) row-mean operator over each query's value group."""
        indptr = [0]
        indices: List[np.ndarray] = []
        data: List[np.ndarray] = []
        total = 0
        for code in codes:
            members = vocab.get(int(code)) if code >= 0 else None
            if code >= 0 and members is None:
                self._stats["unk_values"] += 1
            if members is not None:
                indices.append(members)
                data.append(np.full(members.shape[0], 1.0 / members.shape[0]))
                total += members.shape[0]
            indptr.append(total)
        return sp.csr_matrix(
            (
                np.concatenate(data) if data else np.zeros(0),
                np.concatenate(indices) if indices else np.zeros(0, np.int64),
                np.asarray(indptr, dtype=np.int64),
            ),
            shape=(codes.shape[0], self._n_pool),
        )

    def score(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        with self.stage("encode"):
            features = self._artifact.preprocessor.transform(numerical, categorical)
        if self._compiled is not None:
            # Compiled path skips the sparse-operator build entirely: the
            # executor resolves raw value codes against its vocabulary
            # lookups (keeping unk/attach accounting identical) and feeds
            # the plan precomputed group means.
            with self.stage("attach"):
                codes = [
                    spec.encode(numerical, categorical)
                    for spec in self._fitted.specs
                ]
            with self.stage("plan_execute"):
                return self._compiled.run(features, codes, self._stats)
        with self.stage("attach"):
            operators = [
                self._member_operator(spec.encode(numerical, categorical), vocab)
                for spec, vocab in zip(self._fitted.specs, self._fitted.vocabularies)
            ]
            self._stats["attach_edges"] += int(sum(op.nnz for op in operators))
        with self.stage("propagate"):
            return self.model.propagate_queries(
                features, operators, self.pool_messages
            )

    def compile_plan(self):
        from repro.serving.compiled import compile_multiplex

        return compile_multiplex(
            self.model, self._fitted.vocabularies, self.pool_messages
        )


class FittedMultiplex(FittedFormulation):
    name = "multiplex"

    def __init__(
        self,
        graph: MultiplexGraph,
        specs: List[ValueColumnSpec],
        vocabularies: List[Vocabulary],
        preprocessor: TabularPreprocessor,
        config: Dict[str, object],
    ) -> None:
        super().__init__(config, preprocessor)
        self.graph = graph
        self.specs = list(specs)
        self.vocabularies = list(vocabularies)

    def build_model(self, rng, graph=None) -> nn.Module:
        return TabGNN(
            self.graph if graph is None else graph,
            int(self.config["hidden_dim"]),
            int(self.config["out_dim"]),
            rng,
            num_layers=int(self.config.get("num_layers", 2)),
        )

    @property
    def model_builder(self) -> str:
        return "tabgnn"

    @property
    def pool_rows(self) -> Optional[int]:
        return int(self.graph.num_nodes)

    def artifact_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        arrays: Dict[str, np.ndarray] = {
            "x": np.asarray(self.graph.x, dtype=np.float64)
        }
        columns: List[Dict[str, object]] = []
        for i, (spec, vocab) in enumerate(zip(self.specs, self.vocabularies)):
            keys = np.array(sorted(vocab), dtype=np.int64)
            members = [vocab[int(k)] for k in keys]
            arrays[f"rel{i}::vocab_keys"] = keys
            arrays[f"rel{i}::vocab_offsets"] = np.cumsum(
                [0] + [m.shape[0] for m in members]
            ).astype(np.int64)
            arrays[f"rel{i}::vocab_members"] = (
                np.concatenate(members) if members else np.zeros(0, np.int64)
            )
            if spec.bin_edges is not None:
                arrays[f"rel{i}::bin_edges"] = np.asarray(
                    spec.bin_edges, dtype=np.float64
                )
            columns.append(spec.to_meta())
        meta = {
            "pool_rows": int(self.graph.num_nodes),
            "columns": columns,
        }
        return arrays, meta

    @classmethod
    def from_payload(cls, arrays, meta, config, preprocessor) -> "FittedMultiplex":
        x = np.asarray(arrays["x"], dtype=np.float64)
        graph = MultiplexGraph(x.shape[0], x=x)
        specs: List[ValueColumnSpec] = []
        vocabularies: List[Vocabulary] = []
        for i, column in enumerate(meta["columns"]):
            specs.append(ValueColumnSpec.from_meta(
                column, bin_edges=arrays.get(f"rel{i}::bin_edges")
            ))
            keys = arrays[f"rel{i}::vocab_keys"]
            offsets = arrays[f"rel{i}::vocab_offsets"]
            members = arrays[f"rel{i}::vocab_members"].astype(np.int64)
            vocabularies.append({
                int(key): members[offsets[j]:offsets[j + 1]]
                for j, key in enumerate(keys)
            })
            # Members take their key; every other row was missing (-1).
            codes = np.full(x.shape[0], -1, dtype=np.int64)
            codes[members] = np.repeat(keys, np.diff(offsets))
            graph.add_value_layer(str(column["name"]), codes)
        return cls(graph, specs, vocabularies, preprocessor, config)

    def make_scorer(self, artifact, incremental, stats) -> MultiplexScorer:
        return MultiplexScorer(artifact, self, incremental, stats)


class MultiplexFormulation(Formulation):
    name = "multiplex"
    fitted_cls = FittedMultiplex

    def fit(self, dataset, train_mask, config) -> FittedMultiplex:
        n_bins = int(config.get("n_bins", 5))
        include_bins = bool(config.get("include_numerical_bins", True))
        specs = value_column_specs(
            dataset, n_bins=n_bins, include_numerical_bins=include_bins
        )
        graph = MultiplexGraph(
            dataset.num_instances, x=dataset.to_matrix(), y=dataset.y
        )
        for spec in specs:
            graph.add_value_layer(spec.name, spec.codes)
        # The node features are dataset.to_matrix(); an unmasked onehot fit
        # reproduces that transform exactly for serve-time rows.
        preprocessor = TabularPreprocessor(mode="onehot").fit(dataset)
        return self.fitted_cls(
            graph, specs, _build_vocabularies(specs), preprocessor, config
        )
