"""The benchmark harness times canids through named lookup sites
(perfbench/tracer.py SHIMS).  A renamed or moved function must fail here,
in the tier-1 run, and not only in the benchmark's own smoke test."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def shims():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SHIMS


@pytest.mark.parametrize("module, path, span", shims())
def test_shimmed_name_resolves(module, path, span):
    owner = importlib.import_module(module)
    for name in path.split("."):
        assert hasattr(owner, name), f"{module}.{path} (span {span}) no longer resolves"
        owner = getattr(owner, name)
    assert callable(owner)


def test_pipeline_routes_through_every_cli_shim(tmp_path, monkeypatch):
    """The stages reach the library through the `canids.cli` names the
    benchmark wraps, so its per-layer times cannot drop to zero unseen."""
    import json

    from canids import cli, features

    calls = {}

    def counted(module, attr):
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[(module.__name__, attr)] = calls.get((module.__name__, attr), 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    wanted = [(module, path) for module, path, _ in shims() if module == "canids.cli"]
    wanted.append(("canids.features", "split_train_test"))
    for module, path in wanted:
        counted(cli if module == "canids.cli" else features, path)

    ambient = {"duration": 2.0, "seed": 3, "ids": [
        {"id": "0D0", "period": 0.01}, {"id": "1A0", "period": 0.005, "jitter_std": 0.0002}]}
    configs = {
        "dos": {"seed": 1, "ambient": ambient, "scenario": {"kind": "dos", "interval": [0.5, 1.0]},
                "model": {"kind": "forest", "n_trees": 2, "max_depth": 4},
                "windows": {"window": 29, "step": 29, "sequences": 16}},
        "freq": {"seed": 1, "ambient": ambient, "scenario": {"kind": "dos", "interval": [0.5, 1.0]},
                 "model": {"kind": "frequency"}},
    }
    for name, config in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        assert cli.main(["pipeline", "--config", str(path), "--out", str(tmp_path / name)]) == 0
    missing = [f"{module}.{path}" for module, path in wanted if not calls.get((module, path))]
    assert not missing, f"never called through its shimmed name: {missing}"


def test_lccde_scores_its_base_models_inside_lccde_predict(monkeypatch):
    """The harness counts LCCDE rows and arbitration cases from the base
    models' `predict_scores` calls made inside `lccde_predict`, both looked
    up where its shims sit: on the module and on the class."""
    import numpy as np

    from canids import lccde
    from canids.detectors import GradientBoosting
    from canids.evaluate import evaluate_pipeline
    from canids.features import TabularDataset

    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (60, 3)), rng.normal(4, 1, (60, 3))])
    y = np.repeat([0, 1], 60)
    model = lccde.LccdeEnsemble(base_configs=[{"n_rounds": 2}] * 3, seed=1).fit(X, y)
    inside = []
    calls = {"lccde_predict": 0, "predict_scores": 0}

    predict, scores = lccde.lccde_predict, GradientBoosting.predict_scores

    def counted_predict(*args, **kwargs):
        calls["lccde_predict"] += 1
        inside.append(True)
        try:
            return predict(*args, **kwargs)
        finally:
            inside.pop()

    def counted_scores(self, X):
        assert inside, "a base model scored outside lccde_predict"
        calls["predict_scores"] += 1
        return scores(self, X)

    monkeypatch.setattr(lccde, "lccde_predict", counted_predict)
    monkeypatch.setattr(GradientBoosting, "predict_scores", counted_scores)
    evaluate_pipeline(model, TabularDataset(X=X, y=y, classes=model.classes))
    assert calls == {"lccde_predict": 1, "predict_scores": 3}
