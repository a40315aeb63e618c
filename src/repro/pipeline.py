"""The GNN4TDL pipeline of Figure 1, end to end.

``run_pipeline`` executes the survey's four phases on a
:class:`~repro.datasets.TabularDataset`:

1. **Graph Formulation** — choose what becomes a node;
2. **Graph Construction** — create the edges;
3. **Representation Learning** — run a GNN;
4. **Training Plans** — main task (+ optional auxiliary task), strategy,
   prediction layer.

Phases 1+2 are dispatched through the :mod:`repro.formulations` registry:
the pipeline never branches on the formulation name — it asks the
registered :class:`~repro.formulations.Formulation` to fit, build its
model and expose its transductive forward.  Registering a new formulation
therefore requires no pipeline edits.

It returns per-phase timing and test metrics, which is exactly what the
Figure 1 benchmark prints — plus a :class:`PipelineState` bundling the
trained model with the fitted formulation (frozen preprocessing +
graph-construction state) so any servable run can be exported as a
:class:`repro.serving.ModelArtifact` and serve unseen rows.
"""

from __future__ import annotations

import dataclasses
import time
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro import formulations, nn
from repro.datasets.preprocessing import TabularPreprocessor, train_val_test_masks
from repro.datasets.tabular import TabularDataset
from repro.formulations import FittedFormulation
from repro.metrics import accuracy, macro_f1
from repro.obs import MetricsRegistry
from repro.tensor import Tensor, no_grad, ops
from repro.training.tasks import DenoisingAutoencoderTask
from repro.training.trainer import Trainer

if TYPE_CHECKING:  # pragma: no cover - import-time only
    from repro.serving.artifact import ModelArtifact

def __getattr__(name: str):
    """``FORMULATIONS`` is the *live* registry listing (PEP 562).

    Registered formulation names, in registry order — formulations added
    after import (plug-ins) appear too.  Servability is a per-formulation
    capability (``formulations.servable()``), not a pipeline-side
    whitelist.
    """
    if name == "FORMULATIONS":
        return formulations.available()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _field_matrix(
    dataset: TabularDataset,
    preprocessor: Optional[TabularPreprocessor] = None,
) -> np.ndarray:
    """One standardized column per original field (numerical + ordinal codes).

    Reference implementation of the feature-graph tokenizer input, kept
    for tests and notebooks: the feature formulation and the serving
    engine call ``TabularPreprocessor.transform`` directly with the same
    frozen statistics.  When ``preprocessor`` is omitted a fields-mode
    preprocessor is fit on ``dataset`` itself (the historical transductive
    behavior); passing a fitted one reuses its frozen statistics.
    """
    if preprocessor is None:
        preprocessor = TabularPreprocessor(mode="fields").fit(dataset)
    return preprocessor.transform_dataset(dataset)


@dataclasses.dataclass
class PipelineState:
    """Everything a trained run needs to keep predicting after training.

    ``run_pipeline`` attaches one of these to its result so callers can
    (a) recompute transductive predictions without retraining and
    (b) export the run as a :class:`repro.serving.ModelArtifact` for
    inductive serving of rows the training graph never contained.
    The formulation-specific pieces (graph, preprocessing, serve payload)
    live on :attr:`fitted`; this class just pairs them with the trained
    model.
    """

    fitted: FittedFormulation
    model: nn.Module
    network: str

    @property
    def formulation(self) -> str:
        return self.fitted.name

    @property
    def preprocessor(self) -> Optional[TabularPreprocessor]:
        return self.fitted.preprocessor

    @property
    def config(self) -> Dict[str, object]:
        return self.fitted.config

    @property
    def graph(self):
        return getattr(self.fitted, "graph", None)

    @property
    def features(self) -> Optional[np.ndarray]:
        return self.fitted.features

    def logits(self) -> np.ndarray:
        """Transductive logits over the training table (eval mode)."""
        return self.fitted.logits(self.model)

    def predictions(self) -> np.ndarray:
        return self.logits().argmax(axis=1)

    def export_artifact(self) -> "ModelArtifact":
        """Bundle this run into a :class:`repro.serving.ModelArtifact`."""
        from repro.serving.artifact import ModelArtifact

        if not self.fitted.servable:
            raise NotImplementedError(
                f"formulation {self.formulation!r} binds the model to the "
                f"training table and cannot serve unseen rows; "
                f"export one of {formulations.servable()}"
            )
        return ModelArtifact.from_pipeline_state(self)


@dataclasses.dataclass
class PipelineResult:
    formulation: str
    network: str
    test_accuracy: float
    test_macro_f1: float
    phase_seconds: Dict[str, float]
    num_parameters: int
    state: Optional[PipelineState] = None

    def as_row(self) -> str:
        timings = ", ".join(f"{k}={v:.2f}s" for k, v in self.phase_seconds.items())
        return (
            f"{self.formulation:<10} {self.network:<8} "
            f"acc={self.test_accuracy:.3f} f1={self.test_macro_f1:.3f}  ({timings})"
        )

    def export_artifact(self) -> "ModelArtifact":
        if self.state is None:
            raise RuntimeError("this result carries no fitted state to export")
        return self.state.export_artifact()


def run_pipeline(
    dataset: TabularDataset,
    formulation: str = "instance",
    network: str = "gcn",
    hidden_dim: int = 32,
    k: int = 10,
    max_epochs: int = 150,
    with_auxiliary: bool = False,
    train_fraction: float = 0.6,
    val_fraction: float = 0.2,
    seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> PipelineResult:
    """Execute formulation → construction → representation → training.

    ``train_fraction`` controls the semi-supervised regime: the graph always
    spans every row, but only that fraction of labels is used for the loss
    (survey Sec. 2.5d) — the rest supply structure only.

    Training runs one forward per epoch: the loss closure returns the
    logits with the loss, and the trainer scores epoch ``e``'s validation
    accuracy on the forward that opens epoch ``e + 1`` (the parameters are
    still epoch ``e``'s, and the built-in models have no dropout or batch
    norm).  The last epoch's score and the inference pass run one forward
    each, so ``max_epochs=30`` runs 32 forwards.

    ``registry`` (a :class:`repro.obs.MetricsRegistry`) opts the run into
    observability: the trainer reports per-epoch loss/val-score/duration
    metrics and the per-stage ``repro_train_stage_seconds{stage=...}``
    split into it, and each phase's wall-clock lands in a
    ``repro_pipeline_phase_seconds{phase=...}`` gauge.
    """
    formulation_impl = formulations.get(formulation)  # raises with choices
    if dataset.task == "regression":
        raise ValueError("run_pipeline currently supports classification tasks")
    rng = np.random.default_rng(seed)
    y = dataset.y
    out_dim = dataset.num_classes
    train_mask, val_mask, test_mask = train_val_test_masks(
        dataset.num_instances, train_fraction, val_fraction, rng, stratify=y
    )
    timings: Dict[str, float] = {}

    # These land in the fitted formulation's config (and hence the serving
    # artifact): the engine must reconstruct graphs/models with exactly the
    # values used here.
    config: Dict[str, object] = {
        "network": network,
        "hidden_dim": hidden_dim,
        "out_dim": out_dim,
        "k": k,
        "metric": "euclidean",
        "num_layers": 2,
        "embed_dim": hidden_dim // 2,
        "task": dataset.task,
    }

    # --- Phases 1+2: formulation & construction -------------------------
    start = time.perf_counter()
    fitted = formulation_impl.fit(dataset, train_mask, config)
    model = fitted.build_model(rng)
    forward = fitted.forward_fn(model)
    timings["construction"] = time.perf_counter() - start

    # --- Phase 4 (wrapping phase 3): training plan -----------------------
    aux_task = None
    if with_auxiliary and fitted.aux_features is not None:
        # The decoder reads ``model.embed``, whose width is the network's
        # (GAT concatenates its heads), not ``hidden_dim``.
        aux_task = DenoisingAutoencoderTask(model.embed_dim, fitted.aux_features, rng)

    optimizer_params = list(model.parameters())
    if aux_task is not None:
        optimizer_params += list(aux_task.parameters())
    optimizer = nn.Adam(optimizer_params, lr=0.01, weight_decay=5e-4)
    trainer = Trainer(model, optimizer, max_epochs=max_epochs, patience=30,
                      registry=registry)

    # Balanced class weights keep imbalanced tasks (fraud/anomaly) from
    # collapsing to the majority class.
    counts = np.bincount(y[train_mask], minlength=out_dim).astype(np.float64)
    class_weights = counts.sum() / (out_dim * np.maximum(counts, 1.0))

    # The graph spans every row, so the training forward already holds the
    # validation rows' logits (``Trainer.fit`` says when they are scored).
    def loss_fn() -> Tuple[Tensor, Tensor]:
        logits = forward()
        loss = nn.cross_entropy(logits, y, mask=train_mask,
                                class_weights=class_weights)
        if aux_task is not None:
            loss = ops.add(loss, ops.mul(Tensor(0.5), aux_task.loss(model.embed)))
        return loss, logits

    def val_fn(logits: Optional[Tensor]) -> float:
        if logits is None:
            logits = forward()
        pred = logits.data.argmax(axis=1)
        return accuracy(y[val_mask], pred[val_mask])

    start = time.perf_counter()
    trainer.fit(loss_fn, val_fn)
    timings["training"] = time.perf_counter() - start

    start = time.perf_counter()
    with no_grad():
        pred = forward().data.argmax(axis=1)
    timings["inference"] = time.perf_counter() - start

    if registry is not None:
        phase_gauge = registry.gauge(
            "repro_pipeline_phase_seconds",
            "Wall-clock seconds spent in each pipeline phase.",
            labelnames=("phase",),
        )
        for phase, seconds in timings.items():
            phase_gauge.labels(phase=phase).set(seconds)

    return PipelineResult(
        formulation=formulation,
        network=network,
        test_accuracy=accuracy(y[test_mask], pred[test_mask]),
        test_macro_f1=macro_f1(y[test_mask], pred[test_mask]),
        phase_seconds=timings,
        num_parameters=model.num_parameters(),
        state=PipelineState(fitted=fitted, model=model, network=network),
    )
