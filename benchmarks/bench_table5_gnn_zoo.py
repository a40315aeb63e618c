"""Table 5 — the GNN model zoo for tabular representation learning.

The paper's Table 5 maps GNN architectures to the works that use them.
This benchmark runs every architecture family on matched data: homogeneous
convolutions share one kNN instance graph over a balanced, cluster-
structured table; the heterogeneous and hypergraph variants consume their
native value-node formulations of the same table; the (unsupervised) graph
autoencoder is evaluated on its native anomaly-scoring task.
"""

import numpy as np
from _harness import once, record_table

from repro import nn
from repro.construction.rules import knn_graph
from repro.datasets import make_anomaly, make_correlated_instances, train_val_test_masks
from repro.gnn import GraphAutoencoder
from repro.gnn.networks import build_network
from repro.metrics import accuracy, roc_auc
from repro.models import HeteroTabClassifier, HypergraphClassifier
from repro.tensor import Tensor
from repro.training.trainer import Trainer

EPOCHS = 100
ROWS = []


def _setup():
    ds = make_correlated_instances(n=400, cluster_strength=1.5, seed=0)
    rng = np.random.default_rng(0)
    train, val, test = train_val_test_masks(400, 0.3, 0.2, rng, stratify=ds.y)
    return ds, ds.to_matrix(), train, val, test


def _fit(model, forward, y, train, val):
    opt = nn.Adam(model.parameters(), lr=0.01, weight_decay=5e-4)
    trainer = Trainer(model, opt, max_epochs=EPOCHS, patience=25)
    trainer.fit(
        lambda: nn.cross_entropy(forward(), y, mask=train),
        lambda: accuracy(y[val], forward().data.argmax(1)[val]),
    )


def test_homogeneous_zoo(benchmark):
    ds, x, train, val, test = _setup()

    def run():
        graph = knn_graph(x, k=8, y=ds.y)
        out = {}
        for name in ("gcn", "sage", "gat", "gin", "gated"):
            model = build_network(name, graph, 32, ds.num_classes,
                                  np.random.default_rng(0))
            _fit(model, model, ds.y, train, val)
            out[name] = accuracy(ds.y[test], model().data.argmax(1)[test])
        return out

    results = once(benchmark, run)
    citations = {
        "gcn": "GINN, IDGL, SLAPS, SUBLIME",
        "sage": "LSTM-GNN, GRAPE, IGRM",
        "gat": "GATE, WPN, FinGAT",
        "gin": "DRSA-Net",
        "gated": "Fi-GNN, Causal-GNN",
    }
    for name, acc in results.items():
        ROWS.append((name.upper(), "homogeneous (kNN instance graph)",
                     citations[name], acc))
    # Mean aggregators are the reliable default on homophilic kNN graphs;
    # GAT's attention-weighted mean belongs with them, and so does GIN's
    # sum once its MLP normalizes the degree-scaled aggregate.
    assert results["gcn"] > 0.75 and results["sage"] > 0.75
    assert results["gat"] > 0.75 and results["gin"] > 0.75


def test_heterogeneous(benchmark):
    ds, x, train, val, test = _setup()

    def run():
        model = HeteroTabClassifier(
            ds, np.random.default_rng(0), hidden_dim=32,
            include_numerical_bins=True,
        )
        _fit(model, model, ds.y, train, val)
        return accuracy(ds.y[test], model().data.argmax(1)[test])

    acc = once(benchmark, run)
    ROWS.append(("HeteroGNN", "heterogeneous (binned value nodes)",
                 "HSGNN (HAN), xFraud (HGT), GraphFC", acc))
    assert acc > 0.5


def test_hypergraph(benchmark):
    ds, x, train, val, test = _setup()

    def run():
        model = HypergraphClassifier(ds, np.random.default_rng(0), hidden_dim=32)
        _fit(model, model, ds.y, train, val)
        return accuracy(ds.y[test], model().data.argmax(1)[test])

    acc = once(benchmark, run)
    ROWS.append(("HGNN", "hypergraph (rows as hyperedges)", "HCL, HyTrel, PET", acc))
    assert acc > 0.5


def test_graph_autoencoder_unsupervised(benchmark):
    anomaly_ds = make_anomaly(n_inliers=350, n_outliers=35, seed=0)
    x = anomaly_ds.to_matrix()

    def run():
        graph = knn_graph(x, k=8)
        model = GraphAutoencoder(x.shape[1], (32,), 16, np.random.default_rng(0))
        opt = nn.Adam(model.parameters(), lr=0.01)
        loss_rng = np.random.default_rng(1)
        features = Tensor(x)
        for _ in range(EPOCHS):
            loss = model.reconstruction_loss(features, graph, loss_rng)
            opt.zero_grad()
            loss.backward()
            opt.step()
        scores = model.anomaly_scores(features, graph)
        return roc_auc(anomaly_ds.y, scores)

    auc = once(benchmark, run)
    ROWS.append(("GAE (unsup. anomaly AUC)", "homogeneous autoencoder",
                 "MST-GRA, GAEOD", auc))
    assert auc > 0.7


def test_zzz_render_table5(benchmark):
    def render():
        return record_table(
            "table5_gnn_zoo",
            "Table 5 (reproduced): GNN architectures on matched tabular data",
            ["architecture", "graph type", "survey examples", "measured"],
            ROWS,
            note=("Classification rows: test accuracy (3 balanced classes,"
                  " 30% labels). GAE row: unsupervised anomaly ROC-AUC on its"
                  " native task. The mean-aggregating convs (GCN/SAGE/GAT/"
                  "Gated) and sum-aggregating GIN, whose MLP layer-normalizes"
                  " the degree-scaled neighbor sum, all learn the shared kNN"
                  " graph; GCN, SAGE, GAT and GIN are each held above 0.75."),
        )

    once(benchmark, render)
    assert len(ROWS) >= 8
