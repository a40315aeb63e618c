"""Table 8 — training strategies, measured on one shared problem.

The paper's Table 8 catalogues training strategies.  This benchmark trains
the same GCN-on-kNN-graph model under every strategy and reports the final
test accuracy (plus reconstruction error for the adversarial arm, whose
objective is imputation realism rather than classification).
"""

import numpy as np
from _harness import once, record_table

from repro import nn
from repro.construction.learned import DirectGraphLearner
from repro.construction.rules import knn_edges, knn_graph
from repro.datasets import make_correlated_instances, train_val_test_masks
from repro.gnn.dense import DenseGNN
from repro.gnn.networks import GCN
from repro.metrics import accuracy
from repro.tensor import Tensor
from repro.training import (
    FeatureReconstructionTask,
    Trainer,
    train_adversarial_reconstruction,
    train_alternating,
    train_bilevel,
    train_end_to_end,
    train_pretrain_finetune,
    train_two_stage,
)

EPOCHS = 120
ROWS = []


def _setup(seed=0):
    ds = make_correlated_instances(n=300, cluster_strength=1.2, seed=seed)
    x = ds.to_matrix()
    rng = np.random.default_rng(seed)
    train, val, test = train_val_test_masks(300, 0.15, 0.15, rng, stratify=ds.y)
    graph = knn_graph(x, k=8, y=ds.y)
    return ds, x, graph, train, val, test


def test_end_to_end(benchmark):
    ds, x, graph, train, val, test = _setup()

    def run():
        model = GCN(graph, (32,), ds.num_classes, np.random.default_rng(0))
        train_end_to_end(
            model,
            lambda: nn.cross_entropy(model(), ds.y, mask=train),
            lambda: accuracy(ds.y[val], model().data.argmax(1)[val]),
            max_epochs=EPOCHS,
        )
        return accuracy(ds.y[test], model().data.argmax(1)[test])

    acc = once(benchmark, run)
    ROWS.append(("end-to-end", "TabGSL, LUNAR, TabGNN, Fi-GNN", acc))
    assert acc > 0.6


def test_two_stage(benchmark):
    ds, x, graph, train, val, test = _setup()

    def run():
        # Stage 1: unsupervised reconstruction pretrains representations;
        # stage 2: a fresh head is trained on the frozen embeddings.
        def stage1():
            model = GCN(graph, (32,), 32, np.random.default_rng(0))
            task = FeatureReconstructionTask(32, x.shape[1], np.random.default_rng(1),
                                             target=x)
            opt = nn.Adam(model.parameters() + task.parameters(), lr=0.01)
            for _ in range(EPOCHS // 2):
                loss = task.loss(model.embed())
                opt.zero_grad()
                loss.backward()
                opt.step()
            model.eval()
            return model.embed().data

        def stage2(embeddings):
            head = nn.MLP(embeddings.shape[1], (16,), ds.num_classes,
                          np.random.default_rng(2))
            opt = nn.Adam(head.parameters(), lr=0.01)
            feats = Tensor(embeddings)
            trainer = Trainer(head, opt, max_epochs=EPOCHS, patience=25)
            trainer.fit(
                lambda: nn.cross_entropy(head(feats), ds.y, mask=train),
                lambda: accuracy(ds.y[val], head(feats).data.argmax(1)[val]),
            )
            return accuracy(ds.y[test], head(feats).data.argmax(1)[test])

        _, acc = train_two_stage(stage1, stage2)
        return acc

    acc = once(benchmark, run)
    ROWS.append(("two-stage", "SUBLIME, GRAPE, GINN, MedGraph", acc))
    assert acc > 0.5


def test_pretrain_finetune(benchmark):
    ds, x, graph, train, val, test = _setup()

    def run():
        model = GCN(graph, (32,), ds.num_classes, np.random.default_rng(0))
        task = FeatureReconstructionTask(32, x.shape[1], np.random.default_rng(1),
                                         target=x)
        train_pretrain_finetune(
            model,
            pretrain_loss_fn=lambda: task.loss(model.embed()),
            finetune_loss_fn=lambda: nn.cross_entropy(model(), ds.y, mask=train),
            val_score_fn=lambda: accuracy(ds.y[val], model().data.argmax(1)[val]),
            pretrain_epochs=EPOCHS // 2,
            finetune_epochs=EPOCHS,
        )
        return accuracy(ds.y[test], model().data.argmax(1)[test])

    acc = once(benchmark, run)
    ROWS.append(("pretrain-finetune", "ALLG, GraphFC", acc))
    assert acc > 0.6


def test_alternating(benchmark):
    ds, x, graph, train, val, test = _setup()

    def run():
        model = GCN(graph, (32,), ds.num_classes, np.random.default_rng(0))
        task = FeatureReconstructionTask(32, x.shape[1], np.random.default_rng(1),
                                         target=x)
        train_alternating(
            model,
            main_loss_fn=lambda: nn.cross_entropy(model(), ds.y, mask=train),
            aux_loss_fn=lambda: task.loss(model.embed()),
            val_score_fn=lambda: accuracy(ds.y[val], model().data.argmax(1)[val]),
            max_epochs=EPOCHS,
            adapt_every=15,
        )
        return accuracy(ds.y[test], model().data.argmax(1)[test])

    acc = once(benchmark, run)
    ROWS.append(("alternating (GEDI)", "GEDI", acc))
    assert acc > 0.6


def test_bilevel(benchmark):
    ds, x, graph, train, val, test = _setup()

    def run():
        n = x.shape[0]
        prior = np.zeros((n, n))
        edges = knn_edges(x, k=8)
        prior[edges[1], edges[0]] = 1.0
        prior = np.maximum(prior, prior.T)
        learner = DirectGraphLearner(n, np.random.default_rng(0),
                                     init_adjacency=prior, init_scale=4.0)
        gnn = DenseGNN(x.shape[1], (32,), ds.num_classes, np.random.default_rng(1))
        features = Tensor(x)

        def loss_on(mask):
            return nn.cross_entropy(gnn(features, learner()), ds.y, mask=mask)

        train_bilevel(learner.parameters(), gnn.parameters(),
                      loss_fn=lambda: loss_on(train),
                      val_loss_fn=lambda: loss_on(val),
                      outer_steps=EPOCHS // 5, inner_steps=5)
        gnn.eval()
        return accuracy(ds.y[test], gnn(features, learner()).data.argmax(1)[test])

    acc = once(benchmark, run)
    ROWS.append(("bi-level", "LDS, FIVES, FATE", acc))
    assert acc > 0.6


def test_adversarial(benchmark):
    """GINN-style: adversarial term improves reconstruction realism.

    Measured as reconstruction RMSE of held-out corrupted cells with and
    without the adversarial discriminator (lower is better)."""
    ds, x, graph, train, val, test = _setup()
    rng = np.random.default_rng(0)
    corrupt = rng.random(x.shape) < 0.2
    corrupted = np.where(corrupt, 0.0, x)

    def run_variant(adv_weight):
        generator = nn.MLP(x.shape[1], (32,), x.shape[1], np.random.default_rng(1))
        discriminator = nn.MLP(x.shape[1], (32,), 1, np.random.default_rng(2))
        inputs = Tensor(corrupted)
        train_adversarial_reconstruction(
            generator, discriminator,
            real_rows_fn=lambda: x,
            fake_rows_fn=lambda: generator(inputs),
            recon_loss_fn=lambda fake: nn.mse_loss(fake, x),
            epochs=EPOCHS // 2,
            adv_weight=adv_weight,
        )
        recon = generator(inputs).data
        return float(np.sqrt(np.mean((recon[corrupt] - x[corrupt]) ** 2)))

    def run():
        return run_variant(0.1), run_variant(0.0)

    adv_rmse, plain_rmse = once(benchmark, run)
    ROWS.append(("adversarial (GINN)", "GINN",
                 f"recon RMSE {adv_rmse:.3f} (vs {plain_rmse:.3f} plain)"))


def test_zzz_render_table8(benchmark):
    def render():
        return record_table(
            "table8_strategies",
            "Table 8 (reproduced): training strategies on one shared problem",
            ["strategy", "survey examples", "measured"],
            ROWS,
            note=("Classification rows: test accuracy at 15% labels."
                  " Expected shape: end-to-end is the strong default;"
                  " two-stage pays a decoupling cost; pretraining/alternating"
                  " are competitive."),
        )

    once(benchmark, render)
    assert len(ROWS) == 6
