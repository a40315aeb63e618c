"""Feature-graph formulation: columns as nodes, row-wise scoring.

Phases 1+2 (Fi-GNN / T2G-Former style): tokenize *fields* — one
standardized column per original feature (numerical + ordinal codes) with
statistics frozen on the training split — and learn the field-pair graph
inside :class:`~repro.models.FeatureGraphClassifier`.  The model is
row-wise by construction, so serving needs no pool: rows are tokenized
with the frozen field statistics and scored directly.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro import nn
from repro.datasets.preprocessing import TabularPreprocessor
from repro.formulations.base import FittedFormulation, Formulation, RowScorer
from repro.models import FeatureGraphClassifier


class FeatureScorer(RowScorer):
    """Direct row-wise scoring of the query rows: there is no pool.

    The compiled plan serves; without it the oracle is the model's own
    forward, built on first use and reused.
    """

    def __init__(self, artifact) -> None:
        self._artifact = artifact
        self._model = None

    def score(self, numerical: np.ndarray, categorical: np.ndarray) -> np.ndarray:
        with self.stage("encode"):
            features = self._artifact.preprocessor.transform(numerical, categorical)
        if self.plan is not None:
            with self.stage("plan_execute"):
                x = np.nan_to_num(features, nan=0.0)  # as the tokenizer does
                return self.plan.run({"x": x})
        if self._model is None:
            self._model = self._artifact.build_model()
            self._model.eval()
        return self._model(features).data

    def compile_plan(self):
        from repro.serving.compiled import compile_feature

        return compile_feature(self._artifact.build_model())


class FittedFeature(FittedFormulation):
    name = "feature"

    def __init__(
        self,
        preprocessor: TabularPreprocessor,
        config: Dict[str, object],
        features: Optional[np.ndarray] = None,
    ) -> None:
        super().__init__(config, preprocessor)
        self._features = features  # transductive field matrix (training side)

    def build_model(self, rng, graph=None) -> nn.Module:
        in_dim = (
            self._features.shape[1]
            if self._features is not None
            else self.preprocessor.num_output_features
        )
        return FeatureGraphClassifier(
            in_dim,
            int(self.config["out_dim"]),
            rng,
            embed_dim=int(self.config["embed_dim"]),
            num_layers=int(self.config.get("num_layers", 2)),
        )

    def forward_fn(self, model: nn.Module) -> Callable[[], object]:
        if self._features is None:
            raise RuntimeError(
                "this fitted formulation was rehydrated from an artifact and "
                "carries no transductive feature matrix"
            )
        features = self._features
        return lambda: model(features)

    @property
    def features(self) -> Optional[np.ndarray]:
        return self._features

    @property
    def model_builder(self) -> str:
        return "feature_graph"

    def artifact_payload(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        return {}, {}

    @classmethod
    def from_payload(cls, arrays, meta, config, preprocessor) -> "FittedFeature":
        return cls(preprocessor, config)

    def make_scorer(self, artifact, stats) -> FeatureScorer:
        return FeatureScorer(artifact)


class FeatureFormulation(Formulation):
    name = "feature"
    fitted_cls = FittedFeature

    def fit(self, dataset, train_mask, config) -> FittedFeature:
        # Feature-graph methods tokenize *fields* (one node per original
        # column, Fi-GNN/T2G-Former style), not one-hot indicator columns.
        preprocessor = TabularPreprocessor(mode="fields").fit(
            dataset, row_mask=train_mask
        )
        features = preprocessor.transform_dataset(dataset)
        return self.fitted_cls(preprocessor, config, features=features)
