"""Tabular datasets: container, synthetic generators, preprocessing, missingness.

The paper evaluates on public tabular datasets (UCI, CTR logs, EHRs,
customs/fraud records) that are unavailable offline.  Each generator here
plants exactly the causal structure the corresponding application exploits,
so every qualitative comparison in the survey can still be reproduced:

* :func:`make_correlated_instances` — cluster-structured labels → instance
  correlation (Sec. 2.5a);
* :func:`make_feature_interaction` — labels depend only on feature
  *combinations* → feature interaction (Sec. 2.5b);
* :func:`make_ctr` — sparse categorical user/item/context fields with
  latent-factor click-through rates (Sec. 5.2);
* :func:`make_ehr` — patient × diagnosis-code multi-hot records (Sec. 5.3);
* :func:`make_anomaly` — inliers on clusters + scattered outliers (Sec. 5.1);
* :func:`make_fraud` — imbalanced multi-relational fraud rings (Sec. 5.1/5.5);
* :func:`inject_missing` — MCAR/MAR/MNAR masks (Sec. 5.4).
"""

from repro.datasets.tabular import TabularDataset
from repro.datasets.synthetic import (
    make_anomaly,
    make_classification,
    make_correlated_instances,
    make_ctr,
    make_ehr,
    make_feature_interaction,
    make_fraud,
    make_regression,
)
from repro.datasets.missing import inject_missing
from repro.datasets import preprocessing
from repro.datasets.preprocessing import (
    KBinsDiscretizer,
    MinMaxScaler,
    OrdinalEncoder,
    StandardScaler,
    TabularPreprocessor,
    train_val_test_masks,
)

__all__ = [
    "TabularDataset",
    "make_anomaly",
    "make_classification",
    "make_correlated_instances",
    "make_ctr",
    "make_ehr",
    "make_feature_interaction",
    "make_fraud",
    "make_regression",
    "inject_missing",
    "preprocessing",
    "KBinsDiscretizer",
    "MinMaxScaler",
    "OrdinalEncoder",
    "StandardScaler",
    "TabularPreprocessor",
    "train_val_test_masks",
]
