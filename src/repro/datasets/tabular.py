"""The :class:`TabularDataset` container (survey Sec. 2.1).

A dataset ``D = {(x_i, y_i)}`` where each ``x_i`` splits into numerical and
categorical parts, with a task in {binary, multiclass, regression} and
train/val/test masks for the semi-supervised full-batch setting.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datasets.preprocessing import TabularPreprocessor

TASKS = ("binary", "multiclass", "regression")


class TabularDataset:
    """Immutable-ish container for one tabular learning problem.

    Parameters
    ----------
    numerical:
        ``(n, d_num)`` float matrix (may be empty with shape ``(n, 0)``).
        May contain NaN for missing cells.
    categorical:
        ``(n, d_cat)`` integer matrix of category codes (may be empty).
        ``-1`` encodes a missing cell.
    y:
        ``(n,)`` labels.
    task:
        One of ``binary``, ``multiclass``, ``regression``.
    cardinalities:
        Number of categories per categorical column (inferred if omitted).
    numerical_names / categorical_names:
        Optional column names.
    """

    def __init__(
        self,
        numerical: np.ndarray,
        categorical: Optional[np.ndarray],
        y: np.ndarray,
        task: str,
        cardinalities: Optional[Sequence[int]] = None,
        numerical_names: Optional[Sequence[str]] = None,
        categorical_names: Optional[Sequence[str]] = None,
    ) -> None:
        if task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {task!r}")
        self.task = task
        self.numerical = np.asarray(numerical, dtype=np.float64)
        if self.numerical.ndim != 2:
            raise ValueError("numerical must be 2-D (use shape (n, 0) when empty)")
        n = self.numerical.shape[0]
        if categorical is None:
            categorical = np.zeros((n, 0), dtype=np.int64)
        self.categorical = np.asarray(categorical, dtype=np.int64)
        if self.categorical.ndim != 2 or self.categorical.shape[0] != n:
            raise ValueError("categorical must be 2-D with one row per instance")
        self.y = np.asarray(y)
        if self.y.shape[0] != n:
            raise ValueError("y must have one entry per instance")
        if task in ("binary", "multiclass"):
            self.y = self.y.astype(np.int64)
        else:
            self.y = self.y.astype(np.float64)
        if cardinalities is None:
            cardinalities = [
                int(self.categorical[:, j].max()) + 1 if n else 0
                for j in range(self.categorical.shape[1])
            ]
        self.cardinalities: List[int] = [int(c) for c in cardinalities]
        if len(self.cardinalities) != self.categorical.shape[1]:
            raise ValueError("cardinalities must match number of categorical columns")
        for j, card in enumerate(self.cardinalities):
            col = self.categorical[:, j]
            valid = col[col >= 0]
            if valid.size and valid.max() >= card:
                raise ValueError(f"categorical column {j} exceeds cardinality {card}")
        self.numerical_names = list(
            numerical_names
            or [f"num_{j}" for j in range(self.numerical.shape[1])]
        )
        self.categorical_names = list(
            categorical_names
            or [f"cat_{j}" for j in range(self.categorical.shape[1])]
        )

    # ------------------------------------------------------------------
    @property
    def num_instances(self) -> int:
        return int(self.numerical.shape[0])

    @property
    def num_numerical(self) -> int:
        return int(self.numerical.shape[1])

    @property
    def num_categorical(self) -> int:
        return int(self.categorical.shape[1])

    @property
    def num_features(self) -> int:
        return self.num_numerical + self.num_categorical

    @property
    def num_classes(self) -> int:
        if self.task == "regression":
            raise ValueError("regression task has no classes")
        return int(self.y.max()) + 1 if self.y.size else 0

    @property
    def feature_names(self) -> List[str]:
        return self.numerical_names + self.categorical_names

    # ------------------------------------------------------------------
    def to_matrix(self) -> np.ndarray:
        """Flatten into one dense float matrix: z-scored numericals, then
        one-hot categoricals.

        This is the ``"onehot"``
        :class:`~repro.datasets.preprocessing.TabularPreprocessor` fit on
        every row of the table: missing numericals become 0 after
        standardization and a missing categorical gets an all-zero one-hot
        block.
        """
        return TabularPreprocessor(mode="onehot").fit_transform(self)

    def global_value_ids(self) -> np.ndarray:
        """Categorical codes shifted so ids are unique across columns.

        Used by hypergraph and hetero-graph builders where every distinct
        (column, value) pair is one node.  Missing cells stay ``-1``.
        """
        offsets = np.cumsum([0] + self.cardinalities[:-1])
        shifted = self.categorical + offsets[None, :]
        shifted[self.categorical < 0] = -1
        return shifted

    @property
    def num_category_values(self) -> int:
        return int(sum(self.cardinalities))

    # ------------------------------------------------------------------
    def subset(self, index: np.ndarray) -> "TabularDataset":
        index = np.asarray(index)
        return TabularDataset(
            self.numerical[index],
            self.categorical[index],
            self.y[index],
            self.task,
            cardinalities=self.cardinalities,
            numerical_names=self.numerical_names,
            categorical_names=self.categorical_names,
        )

    def summary(self) -> Dict[str, object]:
        info: Dict[str, object] = {
            "task": self.task,
            "instances": self.num_instances,
            "numerical": self.num_numerical,
            "categorical": self.num_categorical,
        }
        if self.task != "regression":
            counts = np.bincount(self.y, minlength=self.num_classes)
            info["classes"] = self.num_classes
            info["class_balance"] = (counts / max(1, counts.sum())).round(3).tolist()
        return info

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TabularDataset(n={self.num_instances}, num={self.num_numerical}, "
            f"cat={self.num_categorical}, task={self.task!r})"
        )
