"""Table 9 — three ways to use features: nodes vs edges vs initial vectors.

The paper's Table 9 discusses pros/cons of using features (a) as feature
nodes, (b) to create edges, (c) as initial node vectors.  This benchmark
renders the same table-of-ways but with a measured column: the same mixed
tabular dataset under the three usages with matched budgets.
"""

import numpy as np
from _harness import once, record_table

from repro import nn
from repro.construction.intrinsic import bipartite_from_dataset, multiplex_from_dataset
from repro.construction.rules import knn_graph
from repro.datasets import make_fraud, train_val_test_masks
from repro.gnn.networks import GCN
from repro.metrics import accuracy, roc_auc
from repro.models import GRAPE, TabGNN
from repro.training.trainer import Trainer


def _auc(logits, y, mask):
    scores = logits[:, 1] - logits[:, 0]
    return roc_auc(y[mask], scores[mask])

EPOCHS = 100
ROWS = []


def _setup():
    ds = make_fraud(n=400, seed=0)
    rng = np.random.default_rng(0)
    train, val, test = train_val_test_masks(400, 0.6, 0.2, rng, stratify=ds.y)
    return ds, train, val, test


def _fit(model, forward, y, train, val):
    import numpy as _np

    counts = _np.bincount(y[train], minlength=2).astype(float)
    weights = counts.sum() / (2 * _np.maximum(counts, 1.0))
    opt = nn.Adam(model.parameters(), lr=0.01, weight_decay=5e-4)
    trainer = Trainer(model, opt, max_epochs=EPOCHS, patience=25)
    trainer.fit(
        lambda: nn.cross_entropy(forward(), y, mask=train, class_weights=weights),
        lambda: _auc(forward().data, y, val),
    )


def test_features_as_nodes(benchmark):
    ds, train, val, test = _setup()

    def run():
        graph = bipartite_from_dataset(ds)
        model = GRAPE(graph, 32, 2, np.random.default_rng(0), instance_init="ones")
        _fit(model, model, ds.y, train, val)
        return _auc(model().data, ds.y, test)

    acc = once(benchmark, run)
    ROWS.append((
        "as feature nodes", "bipartite + GRAPE", acc,
        "explicit instance-feature interactions; handles missing cells natively",
        "instance-instance paths are 2 hops; needs tailored message passing",
    ))
    assert acc > 0.55


def test_features_as_edges(benchmark):
    ds, train, val, test = _setup()

    def run():
        graph = multiplex_from_dataset(ds)
        # Features used ONLY to create edges: node inputs are one-hot node
        # ids, which carry no feature content.  Constant inputs would not
        # do: every group mean of identical rows is the same vector, so the
        # scores would differ by round-off alone.
        graph.x = np.eye(ds.num_instances)
        model = TabGNN(graph, 32, 2, np.random.default_rng(0))
        _fit(model, model, ds.y, train, val)
        logits = model().data
        scores = logits[test, 1] - logits[test, 0]
        return _auc(logits, ds.y, test), np.ptp(scores)

    acc, spread = once(benchmark, run)
    ROWS.append((
        "to create edges", "same-value multiplex + TabGNN (node-id inputs)", acc,
        "captures higher-order instance relationships via shared values",
        "edge-defining features can no longer be aggregated as content",
    ))
    assert spread > 1e-6
    assert acc > 0.45


def test_features_as_initial_vectors(benchmark):
    ds, train, val, test = _setup()

    def run():
        x = ds.to_matrix()
        graph = knn_graph(x, k=8, y=ds.y)
        model = GCN(graph, (32,), 2, np.random.default_rng(0))
        _fit(model, model, ds.y, train, val)
        return _auc(model().data, ds.y, test)

    acc = once(benchmark, run)
    ROWS.append((
        "as initial vectors", "kNN instance graph + GCN", acc,
        "direct content signal; compatible with any GNN",
        "feature-level relations stay implicit; less interpretable",
    ))
    assert acc > 0.55


def test_combined_usage(benchmark):
    """The survey's open question: combining usages (edges + initial vectors)."""
    ds, train, val, test = _setup()

    def run():
        graph = multiplex_from_dataset(ds)  # keeps features as node inputs too
        model = TabGNN(graph, 32, 2, np.random.default_rng(0))
        _fit(model, model, ds.y, train, val)
        return _auc(model().data, ds.y, test)

    acc = once(benchmark, run)
    ROWS.append((
        "edges + initial vectors", "multiplex + TabGNN (full)", acc,
        "relations for structure, raw features for content",
        "requires choosing which features define relations",
    ))
    assert acc > 0.55


def test_zzz_render_table9(benchmark):
    def render():
        return record_table(
            "table9_feature_usage",
            "Table 9 (reproduced): three feature usages, measured on one dataset",
            ["usage", "realization", "test AUC", "pro (survey)", "con (survey)"],
            ROWS,
            note=("Expected shape: combining usages wins; edges-only loses"
                  " the content signal; the other two are competitive."),
        )

    once(benchmark, render)
    assert len(ROWS) == 4
    by_usage = {r[0]: r[2] for r in ROWS}
    assert by_usage["edges + initial vectors"] >= by_usage["to create edges"] - 0.02
