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
row's value is looked up in the frozen vocabulary and the query reads the
mean of that group's pool-side conv messages without joining it; a
*never-seen* value falls into the UNK bucket — no pool group, the query's
own transformed state flows through instead (exactly the one-row group a
missing value forms in training) — so out-of-vocabulary values yield
valid predictions without growing the vocabulary.  TabGNN trains on the
same exact group means (GCN over a value clique with self loops *is* the
group mean, and the clique is never built), so training-table rows served
this way always reproduce their transductive logits to round-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

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
    """Vocabulary-lookup scoring against the pool's value-group means.

    The compiled plan gathers each query's precomputed group means; without
    it the scorer is the autograd oracle, TabGNN's forward over the pool
    with the queries appended as receive-only rows
    (:meth:`~repro.graph.MultiplexGraph.with_queries`).
    """

    def __init__(
        self,
        artifact,
        fitted: "FittedMultiplex",
        stats: Dict[str, int],
    ) -> None:
        self._artifact = artifact
        self._fitted = fitted
        self._stats = stats
        stats.setdefault("unk_values", 0)
        stats.setdefault("attach_edges", 0)
        # Sorted vocabulary keys per relation: a query's group index is its
        # code's position here, the row order of the plan's mean tables.
        self._keys = [
            np.array(sorted(vocab), dtype=np.int64) for vocab in fitted.vocabularies
        ]
        self._sizes = [
            np.array([vocab[key].shape[0] for key in keys], dtype=np.int64)
            for keys, vocab in zip(self._keys, fitted.vocabularies)
        ]

    def _lookup(self, numerical: np.ndarray, categorical: np.ndarray) -> list:
        """Per relation ``(codes, group, matched)`` for the query rows.

        ``group`` is each code's index into the sorted vocabulary (0 where
        ``matched`` is false).  A non-missing code the vocabulary lacks
        counts one ``unk_values``; a matched group adds its pool members to
        ``attach_edges``.
        """
        lookups = []
        unk = attached = 0
        for spec, keys, sizes in zip(self._fitted.specs, self._keys, self._sizes):
            codes = spec.encode(numerical, categorical)
            group = np.searchsorted(keys, codes)
            matched = group < keys.size
            matched[matched] = keys[group[matched]] == codes[matched]
            group[~matched] = 0
            unk += int(np.count_nonzero((codes >= 0) & ~matched))
            attached += int(sizes[group[matched]].sum())
            lookups.append((codes, group, matched))
        self._stats["unk_values"] += unk
        self._stats["attach_edges"] += attached
        return lookups

    def score(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        with self.stage("encode"):
            features = self._artifact.preprocessor.transform(numerical, categorical)
        with self.stage("attach"):
            lookups = self._lookup(numerical, categorical)
        if self.plan is not None:
            with self.stage("plan_execute"):
                feeds = {"x": features}
                for rel, (_, group, matched) in enumerate(lookups):
                    feeds[f"idx{rel}"] = group
                    feeds[f"mask{rel}"] = matched
                return self.plan.run(feeds)
        graph = self._fitted.graph.with_queries(
            features, [codes for codes, _, _ in lookups]
        )
        model = self._artifact.build_model(graph=graph)
        return model().data[self._fitted.graph.num_nodes:]

    def compile_plan(self):
        from repro.serving.compiled import compile_multiplex

        return compile_multiplex(self._artifact.build_model())


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

    def make_scorer(self, artifact, stats) -> MultiplexScorer:
        return MultiplexScorer(artifact, self, stats)


class MultiplexFormulation(Formulation):
    name = "multiplex"
    fitted_cls = FittedMultiplex

    def fit(self, dataset, train_mask, config) -> FittedMultiplex:
        n_bins = int(config.get("n_bins", 5))
        include_bins = bool(config.get("include_numerical_bins", True))
        specs = value_column_specs(
            dataset, n_bins=n_bins, include_numerical_bins=include_bins
        )
        # Node features and serve-time rows go through one unmasked onehot
        # fit, so a served training row sees its training features exactly.
        preprocessor = TabularPreprocessor(mode="onehot").fit(dataset)
        graph = MultiplexGraph(
            dataset.num_instances,
            x=preprocessor.transform_dataset(dataset),
            y=dataset.y,
        )
        for spec in specs:
            graph.add_value_layer(spec.name, spec.codes)
        return self.fitted_cls(
            graph, specs, _build_vocabularies(specs), preprocessor, config
        )
