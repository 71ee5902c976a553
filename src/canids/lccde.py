"""Leader-based arbitration over three base classifiers.

At fit time each class gets a leader: the base model with the best
validation F1 for that class, ties broken by lower measured latency and
then by model index.  At predict time the three base predictions are
arbitrated:

  unanimous      -> the shared class
  two agree      -> the majority class's leader model makes the call
                    (literal reading: its own prediction, even when it
                    is the dissenter; alternate reading: the majority
                    class itself)
  all distinct   -> base models whose predicted class they lead are
                    candidates; one candidate wins outright, several
                    resolve by confidence, none falls back to the most
                    confident base prediction

One array rule, `_decide`, arbitrates a batch (`_arbitrate`) and a single
triple (`arbitrate_one`).  The ensemble scores through
`Detector.predict_scores`, so its rows are told apart once for all three
base models.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import compress
from typing import Any, Sequence

import numpy as np

from .core import _class_indices, _plain, _read_field, _read_fields, _require_fields
from .detectors import (
    Detector,
    GradientBoosting,
    _reject_nan,
    measure_latency,
    register_model_kind,
)
from .evaluate import compute_metrics
from .features import SplitSpec, TabularDataset, split_train_test

logger = logging.getLogger(__name__)

N_BASE_MODELS = 3

@dataclass(frozen=True)
class LeaderMap:
    """Per-class leader assignment with the evidence used to pick it."""

    classes: tuple[str, ...]
    leader: tuple[int, ...]
    f1_matrix: np.ndarray
    latencies_us: tuple[float, ...]

    def __post_init__(self) -> None:
        _read_fields(self, "lccde leaders", classes="list of text", leader="list of integer",
                     latencies_us="list of number")
        if len(self.leader) != len(self.classes):
            raise ValueError("one leader per class required")
        if any(not 0 <= m < N_BASE_MODELS for m in self.leader):
            raise ValueError("leader index out of range")

    def to_json_obj(self) -> dict[str, Any]:
        return {
            "classes": list(self.classes),
            "leader": list(self.leader),
            "f1_matrix": self.f1_matrix.tolist(),
            "latencies_us": list(self.latencies_us),
        }

    @classmethod
    def from_json_obj(cls, obj: Any) -> "LeaderMap":
        _require_fields(obj, ("classes", "leader", "f1_matrix", "latencies_us"), "lccde leaders")
        f1 = _read_field("lccde leaders", "f1_matrix", obj["f1_matrix"], "list of list of number")
        return cls(classes=obj["classes"], leader=obj["leader"],
                   f1_matrix=np.array(f1, dtype=np.float64), latencies_us=obj["latencies_us"])


def select_leaders(
    models: Sequence[Detector],
    val_X: np.ndarray,
    val_y: np.ndarray,
    latencies_us: Sequence[float] | None = None,
) -> LeaderMap:
    """Pick a leader model for every class from validation F1.

    Ties go to the faster model, then to the lower model index.  A
    class with no validation presence has no meaningful F1, so its
    leader falls back to the models' overall macro F1 with a warning.
    """
    if len(models) != N_BASE_MODELS:
        raise ValueError(f"exactly {N_BASE_MODELS} base models required, got {len(models)}")
    classes = models[0].classes
    for m in models[1:]:
        if m.classes != classes:
            raise ValueError("base models disagree on the class list")
    val_y = np.asarray(val_y, dtype=np.int64)
    if latencies_us is None:
        lat = []
        for m in models:
            lat.append(m.latency_us if m.latency_us is not None else measure_latency(m, val_X))
        latencies_us = tuple(lat)
    else:
        latencies_us = tuple(latencies_us)
        if len(latencies_us) != len(models):
            raise ValueError("one latency per model required")

    reports = [compute_metrics(val_y, m.predict_labels(val_X), classes) for m in models]
    f1_matrix = np.array([[m.f1 for m in r.per_class] for r in reports], dtype=np.float64).T
    absent = np.bincount(val_y, minlength=len(classes)) == 0
    for name in compress(classes, absent):
        logger.warning("class %r absent from validation; leader picked by macro F1", name)
    score = np.where(absent[:, None], [r.macro_f1 for r in reports], f1_matrix)
    # Best score first, then the lowest latency; the sort is stable, so a
    # full tie goes to the lower model index.
    order = np.lexsort((np.broadcast_to(latencies_us, score.shape), -score))
    return LeaderMap(
        classes=classes,
        leader=tuple(order[:, 0].tolist()),
        f1_matrix=f1_matrix,
        latencies_us=latencies_us,
    )


def arbitrate_one(
    labels: Sequence[int],
    confidences: Sequence[float],
    leaders: Sequence[int],
    majority_literal: bool = True,
) -> tuple[int, int]:
    """Resolve one prediction triple; returns (class index, model index).

    The returned model is the base learner whose prediction carried the
    decision, so its score vector is a faithful confidence readout for
    the final class.  The rule is `_decide`'s, on one row.
    """
    if len(labels) != N_BASE_MODELS or len(confidences) != N_BASE_MODELS:
        raise ValueError(f"expected {N_BASE_MODELS} predictions")
    try:
        labels = _class_indices(labels, len(leaders))
    except ValueError:
        raise ValueError(f"labels must be class indices below {len(leaders)}, not {list(labels)}") from None
    label, model = _decide(labels[None], np.array([confidences]), leaders, majority_literal)
    return int(label[0]), int(model[0])


def _arbitrate(
    scores: Sequence[np.ndarray], leaders: LeaderMap, majority_literal: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Arbitrated class indices and deciding-model indices from the base
    models' score matrices."""
    labels = np.stack([s.argmax(axis=1) for s in scores], axis=1)
    confs = np.stack([s.max(axis=1) for s in scores], axis=1)
    return _decide(labels, confs, leaders.leader, majority_literal)


def _decide(labels: np.ndarray, confs: np.ndarray, leaders: Sequence[int],
            majority_literal: bool) -> tuple[np.ndarray, np.ndarray]:
    """Arbitrated class indices and deciding-model indices of rows of base
    labels and confidences, one column per base model."""
    lead = np.asarray(leaders, dtype=np.int64)
    rows = np.arange(len(labels))
    a, b, c = labels.T
    ab, ac, bc = a == b, a == c, b == c
    # Unanimous rows, and split rows where no model leads its own
    # prediction: the most confident model (argmax takes the first of ties).
    picked = confs.argmax(axis=1)
    # Two agree: the pair is (0, 1), else (0, 2), else (1, 2).
    first = np.where(ab | ac, 0, 1)
    if majority_literal:
        by_pair = lead[labels[rows, first]]
    else:
        second = np.where(ab, 1, 2)
        by_pair = np.where(confs[rows, first] >= confs[rows, second], first, second)
    picked = np.where((ab | ac | bc) & ~(ab & ac), by_pair, picked)
    # All distinct: the most confident of the models that lead their prediction.
    aligned = lead[labels] == np.arange(N_BASE_MODELS)
    by_aligned = np.where(aligned, confs, -np.inf).argmax(axis=1)
    picked = np.where(~(ab | ac | bc) & aligned.any(axis=1), by_aligned, picked)
    return labels[rows, picked], picked


def lccde_predict(
    models: Sequence[Detector],
    leaders: LeaderMap,
    X: np.ndarray,
    majority_literal: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Arbitrated class indices and deciding-model indices for a batch."""
    if len(models) != N_BASE_MODELS:
        raise ValueError(f"exactly {N_BASE_MODELS} base models required")
    return _arbitrate([m.predict_scores(X) for m in models], leaders, majority_literal)


DEFAULT_BASE_CONFIGS = (
    {"n_rounds": 30, "learning_rate": 0.2, "max_depth": 3, "subsample": 0.8},
    {"n_rounds": 40, "learning_rate": 0.1, "max_depth": 5, "subsample": 0.8},
    {"n_rounds": 25, "learning_rate": 0.3, "max_depth": 2, "subsample": 0.8},
)


def _base_config(cfg: dict[str, Any]) -> dict[str, Any]:
    """An object of gbdt hyperparameters, checked by building its model,
    with the plain values the model stores."""
    unknown = [name for name in cfg if name not in GradientBoosting.params]
    if unknown:
        raise ValueError(f"{unknown[0]!r} is not a gbdt hyperparameter")
    model = GradientBoosting(**cfg)
    return {name: getattr(model, name) for name in cfg}


def _base_configs(configs: Any) -> list[dict[str, Any]]:
    configs = _plain(configs, "list of object")
    if len(configs) != N_BASE_MODELS:
        raise ValueError(f"exactly {N_BASE_MODELS} base configs required")
    return [_read_field("", f"entry {k}", cfg, _base_config) for k, cfg in enumerate(configs)]


class LccdeEnsemble(Detector):
    """Three boosted-tree base learners plus leader arbitration.

    A quarter of the training data (by default) is held out to measure
    per-class F1 and per-model latency for leader selection.
    """

    kind = "lccde"
    params = ("val_frac", "majority_literal", "seed", "base_configs")
    state = ("leaders", "models")

    def __init__(
        self,
        base_configs: Sequence[dict[str, Any]] | None = None,
        val_frac: float = 0.25,
        majority_literal: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(
            val_frac=(val_frac, "number in (0, 1)"), majority_literal=(majority_literal, "flag"),
            seed=(seed, "seed"),
            base_configs=(DEFAULT_BASE_CONFIGS if base_configs is None else base_configs,
                          _base_configs))
        self.models: list[GradientBoosting] = []
        self.leaders: LeaderMap | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, classes: Sequence[str] | None = None) -> "LccdeEnsemble":
        X, y = self._fit_data(X, y, classes)
        # The validation rows never reach a tree grower, so check them too.
        _reject_nan(X)
        data = TabularDataset(X=X, y=y, classes=self.classes)
        train, val = split_train_test(
            data, SplitSpec(ratio=1.0 - self.val_frac, mode="stratified_random", seed=self.seed)
        )
        self.models = []
        for i, cfg in enumerate(self.base_configs):
            model = GradientBoosting(**{"seed": self.seed + 1 + i, **cfg})
            model.fit(train.X, train.y, self.classes)
            measure_latency(model, val.X)
            self.models.append(model)
        self.leaders = select_leaders(self.models, val.X, val.y)
        self._fitted = True
        return self

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        distinct, inverse = self._distinct(X)
        labels, _ = lccde_predict(self.models, self.leaders, distinct, self.majority_literal)
        return labels[inverse]

    def _scores(self, X: np.ndarray) -> np.ndarray:
        """Score rows of whichever base model carried each decision."""
        scores = [m.predict_scores(X) for m in self.models]
        _, picked = _arbitrate(scores, self.leaders, self.majority_literal)
        return np.stack(scores, axis=0)[picked, np.arange(len(picked))]

    def descriptor(self) -> dict[str, Any]:
        desc = super().descriptor()
        if self.leaders is not None:
            desc["leaders"] = list(self.leaders.leader)
        return desc

    def _state_json(self) -> dict[str, Any]:
        return {
            "leaders": self.leaders.to_json_obj(),
            "models": [m.to_json_obj() for m in self.models],
        }

    def _load_state(self, obj: dict[str, Any]) -> None:
        # The constructor reads null as the defaults, not the saved models' configs.
        if obj["base_configs"] is None:
            raise ValueError(f"lccde base_configs must list {N_BASE_MODELS} objects")
        models = obj["models"]
        if not isinstance(models, list) or len(models) != N_BASE_MODELS:
            raise ValueError(f"lccde models must list {N_BASE_MODELS} base models")
        self.models = [GradientBoosting.from_json_obj(m) for m in models]
        self.leaders = LeaderMap.from_json_obj(obj["leaders"])
        if any(part.classes != self.classes for part in (self.leaders, *self.models)):
            raise ValueError("lccde leaders and base models must share the ensemble's classes")


register_model_kind("lccde", LccdeEnsemble)
