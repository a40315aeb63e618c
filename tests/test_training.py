"""Unit tests for the trainer, auxiliary tasks and training strategies."""

import numpy as np
import pytest

from repro import nn
from repro.applications.ctr import train_fignn
from repro.construction.learned import DirectGraphLearner
from repro.construction.rules import knn_graph
from repro.datasets import (
    make_correlated_instances,
    make_ctr,
    make_fraud,
    train_val_test_masks,
)
from repro.formulations import FittedFormulation
from repro.gnn.networks import GCN, NETWORKS, build_network
from repro.metrics import accuracy, roc_auc
from repro.models import FiGNN
from repro.obs import MetricsRegistry
from repro.pipeline import run_pipeline
from repro.tensor import Tensor, is_grad_enabled, no_grad, ops
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
from repro.training.trainer import STAGES

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


def reference_fit(model, optimizer, loss_fn, val_fn, max_epochs, patience):
    """The trainer loop with a second forward per epoch: every epoch is
    scored right after its step by an eval-mode, no-grad ``val_fn()``."""
    history = {"loss": [], "val_score": []}
    best_score, best_epoch, best_state, bad_epochs = -np.inf, -1, None, 0
    for epoch in range(1, max_epochs + 1):
        model.train()
        loss = loss_fn()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        history["loss"].append(float(loss.item()))
        model.eval()
        with no_grad():
            score = float(val_fn())
        history["val_score"].append(score)
        if score > best_score:
            best_score, best_epoch, bad_epochs = score, epoch, 0
            best_state = model.state_dict()
        else:
            bad_epochs += 1
            if patience is not None and bad_epochs > patience:
                break
    model.load_state_dict(best_state)
    model.eval()
    return history, best_epoch, epoch


def counted_problem(kind, dropout=0.0, norm=None):
    """A fresh seeded model over ``tiny_problem``'s data, with closures in
    both forms that count the model's forwards."""
    ds, g, _, train, val, _ = tiny_problem()
    rng = np.random.default_rng(7)
    x = Tensor(ds.to_matrix())
    if kind == "mlp":
        model = nn.MLP(x.shape[1], (16,), ds.num_classes, rng, norm=norm)
    else:
        model = build_network(kind, g, 16, ds.num_classes, rng, dropout=dropout)
    forwards = [0]

    def forward():
        forwards[0] += 1
        return model(x) if kind == "mlp" else model()

    def score(logits):
        return accuracy(ds.y[val], logits.data.argmax(axis=1)[val])

    def pair_loss():
        logits = forward()
        return nn.cross_entropy(logits, ds.y, mask=train), logits

    closures = {
        "bare": (lambda: pair_loss()[0], lambda: score(forward())),
        "pair": (pair_loss,
                 lambda logits: score(forward() if logits is None else logits)),
    }
    return model, closures, forwards


SHARED_CASES = [
    (kind, dropout, None, patience, form)
    for kind in ("gcn", "gat", "gated")
    for dropout in (0.0, 0.5)
    for patience in (None, 3)
    for form in ("bare", "pair")
] + [("mlp", 0.0, None, 3, "pair"), ("mlp", 0.0, "batch", 3, "pair")]


class TestSharedForward:
    """``Trainer.fit`` scores epoch e on epoch e+1's forward when it can;
    the result must equal the loop that scores on a forward of its own."""

    EPOCHS = 25

    @pytest.mark.parametrize("kind,dropout,norm,patience,form", SHARED_CASES)
    def test_matches_reference_loop_with_fewer_forwards(
            self, kind, dropout, norm, patience, form):
        ref_model, ref_closures, ref_forwards = counted_problem(kind, dropout, norm)
        history, best_epoch, epochs_run = reference_fit(
            ref_model, nn.Adam(ref_model.parameters(), lr=0.01),
            *ref_closures["bare"], self.EPOCHS, patience)

        model, closures, forwards = counted_problem(kind, dropout, norm)
        result = Trainer(model, nn.Adam(model.parameters(), lr=0.01),
                         max_epochs=self.EPOCHS, patience=patience
                         ).fit(*closures[form])

        assert result.history == history
        assert result.best_epoch == best_epoch
        assert result.epochs_run == epochs_run
        # Every patience-3 case stops early, so the dropped epoch is covered.
        assert (epochs_run < self.EPOCHS) == (patience is not None)
        final = model.state_dict()
        for name, value in ref_model.state_dict().items():
            assert np.array_equal(final[name], value), name

        assert ref_forwards[0] == 2 * epochs_run
        shared = form == "pair" and not nn.has_train_only_layers(model)
        assert shared == (form == "pair" and dropout == 0.0 and norm is None)
        assert forwards[0] == (epochs_run + 1 if shared else 2 * epochs_run)

    @pytest.mark.parametrize("form", ["bare", "pair"])
    def test_scoring_closure_never_records_a_graph(self, form):
        model, closures, _ = counted_problem("gcn")
        loss_fn, score = closures[form]
        calls = []

        def val_fn(*args):
            calls.append((is_grad_enabled(), args))
            return score(*args)

        Trainer(model, nn.Adam(model.parameters(), lr=0.01),
                max_epochs=6, patience=None).fit(loss_fn, val_fn)
        assert [grad for grad, _ in calls] == [False] * 6
        if form == "bare":
            assert all(args == () for _, args in calls)
        else:
            # Epochs 1-5 read the next training forward's logits; the last
            # epoch has none and is scored on the closure's own forward.
            assert all(args[0] is not None for _, args in calls[:5])
            assert calls[-1][1] == (None,)

    def test_train_fignn_scores_on_its_training_forward(self, monkeypatch):
        ds = make_ctr(n=120, num_users=5, num_items=4, seed=0)
        train, val, _ = train_val_test_masks(120, 0.6, 0.2, np.random.default_rng(0),
                                             stratify=ds.y)
        forward, forwards = FiGNN.forward, [0]

        def counted(self, dataset):
            forwards[0] += 1
            return forward(self, dataset)

        monkeypatch.setattr(FiGNN, "forward", counted)
        epochs = 8
        model = train_fignn(ds, train, val, embed_dim=8, epochs=epochs, seed=0)
        # One forward per epoch, plus the last epoch's own score.
        assert forwards[0] == epochs + 1

        # The loop with a bare closure, on an identical model.
        ref = FiGNN(ds.cardinalities, 8, np.random.default_rng(0),
                    num_numerical=ds.num_numerical)
        _, _, epochs_run = reference_fit(
            ref, nn.Adam(ref.parameters(), lr=0.01, weight_decay=1e-5),
            lambda: nn.binary_cross_entropy_with_logits(ref(ds), ds.y, mask=train),
            lambda: roc_auc(ds.y[val], ref.predict_proba(ds)[val]),
            epochs, patience=25)
        assert epochs_run == epochs
        final = model.state_dict()
        for name, value in ref.state_dict().items():
            assert np.array_equal(final[name], value), name


class TestPipelineTraining:
    def test_run_pipeline_runs_one_forward_per_epoch(self, monkeypatch):
        make_forward = FittedFormulation.forward_fn
        calls = []

        def counting_forward_fn(self, model):
            forward = make_forward(self, model)

            def counted():
                calls.append(model.training)
                return forward()
            return counted

        monkeypatch.setattr(FittedFormulation, "forward_fn", counting_forward_fn)
        run_pipeline(make_fraud(n=150, seed=0), max_epochs=30)
        # 30 training forwards, the last epoch's score and inference.
        assert len(calls) == 32
        assert calls == [True] * 30 + [False, False]

    def test_trainer_reports_its_stages(self):
        registry = MetricsRegistry()
        run_pipeline(make_fraud(n=150, seed=0), max_epochs=12, registry=registry)
        epochs = registry.get("repro_train_epoch_duration_seconds")
        stages = registry.get("repro_train_stage_seconds")
        assert epochs.count == 12
        stage_sum = 0.0
        for stage in STAGES:
            child = stages.labels(stage=stage)
            assert child.count == 12, stage
            stage_sum += child.sum
        assert abs(stage_sum - epochs.sum) <= 0.05 * epochs.sum
        assert registry.get("repro_train_epochs_total").value == 12

    @pytest.mark.parametrize("network", sorted(NETWORKS))
    def test_every_instance_network_trains_with_auxiliary_task(self, network):
        registry = MetricsRegistry()
        result = run_pipeline(make_fraud(n=150, seed=0), network=network,
                              max_epochs=3, with_auxiliary=True,
                              registry=registry)
        assert np.isfinite(registry.get("repro_train_loss").value)
        assert 0.0 <= result.test_accuracy <= 1.0


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
            recon_loss_fn=lambda fake: nn.mse_loss(fake, x),
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
