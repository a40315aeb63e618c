"""Unit tests for the trainer, auxiliary tasks and training strategies."""

import numpy as np
import pytest

from repro import nn
from repro.construction.learned import DirectGraphLearner
from repro.construction.rules import knn_graph
from repro.datasets import make_correlated_instances, train_val_test_masks
from repro.gnn.networks import GCN
from repro.metrics import accuracy
from repro.tensor import Tensor, is_grad_enabled, ops
from repro.training import (
    ContrastiveTask,
    DenoisingAutoencoderTask,
    FeatureReconstructionTask,
    Trainer,
    degree_regularizer,
    smoothness_regularizer,
    sparsity_regularizer,
    train_adversarial_reconstruction,
    train_alternating,
    train_bilevel,
    train_end_to_end,
    train_pretrain_finetune,
    train_two_stage,
)

RNG = np.random.default_rng(41)


def rng():
    return np.random.default_rng(4)


def tiny_problem(seed=0):
    ds = make_correlated_instances(n=80, cluster_strength=2.0, seed=seed)
    x = ds.to_matrix()
    g = knn_graph(x, k=5, y=ds.y)
    model = GCN(g, (16,), ds.num_classes, np.random.default_rng(seed))
    train, val, test = train_val_test_masks(80, 0.5, 0.25, np.random.default_rng(seed),
                                            stratify=ds.y)
    return ds, g, model, train, val, test


class TestTrainer:
    def test_loss_decreases(self):
        ds, g, model, train, val, test = tiny_problem()
        trainer = Trainer(model, nn.Adam(model.parameters(), lr=0.01),
                          max_epochs=50, patience=None)
        result = trainer.fit(lambda: nn.cross_entropy(model(), ds.y, mask=train))
        assert result.history["loss"][-1] < result.history["loss"][0]
        assert result.epochs_run == 50

    def test_early_stopping_triggers(self):
        ds, g, model, train, val, test = tiny_problem()
        trainer = Trainer(model, nn.Adam(model.parameters(), lr=0.01),
                          max_epochs=500, patience=5)
        # Constant val score: no improvement after epoch 1 -> stop near patience.
        result = trainer.fit(
            lambda: nn.cross_entropy(model(), ds.y, mask=train),
            val_score_fn=lambda: 0.0,
        )
        assert result.epochs_run <= 10

    def test_restores_best_state(self):
        ds, g, model, train, val, test = tiny_problem()
        scores = iter([0.9] + [0.1] * 30)
        trainer = Trainer(model, nn.Adam(model.parameters(), lr=0.05),
                          max_epochs=10, patience=None)
        snapshot_holder = {}

        def val_fn():
            score = next(scores)
            if score == 0.9:
                snapshot_holder["best"] = model.state_dict()
            return score

        trainer.fit(lambda: nn.cross_entropy(model(), ds.y, mask=train), val_fn)
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(value, snapshot_holder["best"][name])

    def test_history_lengths_match(self):
        ds, g, model, train, *_ = tiny_problem()
        trainer = Trainer(model, nn.Adam(model.parameters(), lr=0.01),
                          max_epochs=7, patience=None)
        result = trainer.fit(lambda: nn.cross_entropy(model(), ds.y, mask=train))
        assert len(result.history["loss"]) == len(result.history["val_score"]) == 7
        assert result.final_loss() == result.history["loss"][-1]

    def test_validation_records_no_graph_and_keeps_trajectory(self):
        ds, g, model, train, val, test = tiny_problem()
        grad_modes = []

        def val_fn():
            grad_modes.append(is_grad_enabled())
            logits = model()
            assert not logits.requires_grad
            return accuracy(ds.y[val], logits.data.argmax(axis=1)[val])

        trainer = Trainer(model, nn.Adam(model.parameters(), lr=0.01),
                          max_epochs=12, patience=None)
        result = trainer.fit(lambda: nn.cross_entropy(model(), ds.y, mask=train),
                             val_fn)
        assert grad_modes == [False] * 12

        # The same loop with a recording validation, on an identical model.
        _, _, twin, *_ = tiny_problem()
        optimizer = nn.Adam(twin.parameters(), lr=0.01)
        losses, scores = [], []
        for _ in range(12):
            twin.train()
            loss = nn.cross_entropy(twin(), ds.y, mask=train)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
            twin.eval()
            logits = twin()
            assert logits.requires_grad
            scores.append(accuracy(ds.y[val], logits.data.argmax(axis=1)[val]))
        assert result.history == {"loss": losses, "val_score": scores}
        assert result.best_epoch == int(np.argmax(scores)) + 1

    def test_invalid_epochs(self):
        _, _, model, *_ = tiny_problem()
        with pytest.raises(ValueError):
            Trainer(model, nn.Adam(model.parameters(), lr=0.1), max_epochs=0)


class TestAuxiliaryTasks:
    def test_feature_reconstruction_loss_trains(self):
        x = RNG.normal(size=(30, 6))
        task = FeatureReconstructionTask(4, 6, rng(), target=x)
        z = Tensor(RNG.normal(size=(30, 4)), requires_grad=True)
        loss = task.loss(z)
        assert loss.item() > 0
        loss.backward()
        assert task.decoder.weight.grad is not None

    def test_feature_reconstruction_skips_nan_targets(self):
        x = RNG.normal(size=(10, 3))
        x[0, 0] = np.nan
        task = FeatureReconstructionTask(2, 3, rng())
        loss = task.loss(Tensor(np.zeros((10, 2))), target=x)
        assert np.isfinite(loss.item())

    def test_feature_reconstruction_requires_target(self):
        task = FeatureReconstructionTask(2, 3, rng())
        with pytest.raises(ValueError):
            task.loss(Tensor(np.zeros((5, 2))))

    def test_dae_task_loss_positive(self):
        ds, g, model, *_ = tiny_problem()
        task = DenoisingAutoencoderTask(16, g.x, rng())
        loss = task.loss(model.embed)
        assert loss.item() > 0

    def test_dae_invalid_mask_rate(self):
        with pytest.raises(ValueError):
            DenoisingAutoencoderTask(4, np.ones((5, 3)), rng(), mask_rate=0.0)

    def test_contrastive_task_runs(self):
        ds, g, model, *_ = tiny_problem()
        task = ContrastiveTask(16, g.x, rng(), projection_dim=8)
        loss = task.loss(model.embed)
        assert np.isfinite(loss.item())
        loss.backward()
        assert any(p.grad is not None for p in model.parameters())


class TestRegularizers:
    def test_smoothness_zero_for_constant_embeddings(self):
        edges = np.array([[0, 1, 2], [1, 2, 0]])
        z = Tensor(np.ones((3, 4)))
        assert smoothness_regularizer(z, edges).item() == pytest.approx(0.0)

    def test_smoothness_positive_for_distinct(self):
        edges = np.array([[0], [1]])
        z = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert smoothness_regularizer(z, edges).item() == pytest.approx(2.0)

    def test_smoothness_empty_graph(self):
        z = Tensor(np.ones((3, 2)))
        assert smoothness_regularizer(z, np.zeros((2, 0), dtype=int)).item() == 0.0

    def test_degree_regularizer_penalizes_isolation(self):
        connected = Tensor(np.ones((4, 4)))
        sparse = Tensor(np.eye(4) * 0.01)
        assert degree_regularizer(sparse).item() > degree_regularizer(connected).item()

    def test_sparsity_regularizer_is_mean_abs(self):
        adj = Tensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sparsity_regularizer(adj).item() == pytest.approx(0.5)


class TestStrategies:
    def test_end_to_end_improves_accuracy(self):
        ds, g, model, train, val, test = tiny_problem()
        result = train_end_to_end(
            model,
            lambda: nn.cross_entropy(model(), ds.y, mask=train),
            val_score_fn=lambda: accuracy(ds.y[val], model().data.argmax(1)[val]),
            max_epochs=80,
        )
        assert accuracy(ds.y[test], model().data.argmax(1)[test]) > 0.6
        assert result.best_val_score > 0.5

    def test_two_stage_passes_artifact(self):
        artifact, result = train_two_stage(
            stage1=lambda: "the-graph",
            stage2=lambda art: art + "-trained",
        )
        assert artifact == "the-graph"
        assert result == "the-graph-trained"

    def test_pretrain_finetune_runs_both_phases(self):
        ds, g, model, train, val, test = tiny_problem()
        task = FeatureReconstructionTask(16, g.x.shape[1], rng(), target=g.x)
        pre, fine = train_pretrain_finetune(
            model,
            pretrain_loss_fn=lambda: task.loss(model.embed()),
            finetune_loss_fn=lambda: nn.cross_entropy(model(), ds.y, mask=train),
            pretrain_epochs=10,
            finetune_epochs=30,
        )
        assert pre.epochs_run == 10
        assert fine.history["loss"][-1] < fine.history["loss"][0]

    def test_alternating_adapts_weight(self):
        ds, g, model, train, val, test = tiny_problem()
        task = FeatureReconstructionTask(16, g.x.shape[1], rng(), target=g.x)
        result, final_weight = train_alternating(
            model,
            main_loss_fn=lambda: nn.cross_entropy(model(), ds.y, mask=train),
            aux_loss_fn=lambda: task.loss(model.embed()),
            val_score_fn=lambda: accuracy(ds.y[val], model().data.argmax(1)[val]),
            max_epochs=40,
            adapt_every=10,
            aux_weight=1.0,
        )
        assert final_weight <= 1.0
        assert len(result.history["loss"]) <= 40

    def test_adversarial_reconstruction_runs(self):
        x = RNG.normal(size=(40, 6))
        generator = nn.MLP(6, (12,), 6, rng())
        discriminator = nn.MLP(6, (12,), 1, rng())
        history = train_adversarial_reconstruction(
            generator,
            discriminator,
            real_rows_fn=lambda: x,
            fake_rows_fn=lambda: generator(Tensor(x)),
            recon_loss_fn=lambda: nn.mse_loss(generator(Tensor(x)), x),
            epochs=15,
        )
        assert len(history["gen_loss"]) == 15
        assert history["gen_loss"][-1] < history["gen_loss"][0]

    def test_bilevel_updates_structure_on_val_loss(self):
        ds = make_correlated_instances(n=40, cluster_strength=2.0, seed=0)
        x = ds.to_matrix()
        learner = DirectGraphLearner(40, rng())
        from repro.gnn.dense import DenseGNN

        gnn = DenseGNN(x.shape[1], (8,), ds.num_classes, rng())
        train, val, _ = train_val_test_masks(40, 0.5, 0.25, np.random.default_rng(0))
        features = Tensor(x)

        def loss_on(mask):
            logits = gnn(features, learner())
            return nn.cross_entropy(logits, ds.y, mask=mask)

        before = learner.theta.data.copy()
        history = train_bilevel(
            learner.parameters(), gnn.parameters(),
            loss_fn=lambda: loss_on(train),
            val_loss_fn=lambda: loss_on(val),
            outer_steps=3, inner_steps=2,
        )
        assert len(history["val_loss"]) == 3
        assert not np.allclose(learner.theta.data, before)
