"""Command-line orchestration: ingest, label, synth, prep, train, eval,
and an end-to-end pipeline verb.

Every stage reads and writes plain files (candump logs, JSON documents,
CSV matrices) in the working directory, refuses to overwrite outputs
unless --force is given, and threads one global seed through every
stochastic step.  Pipeline runs land in a directory holding the
resolved configuration and every intermediate artifact; two runs from
the same configuration produce byte-identical reports apart from the
quarantined timings block.

Exit codes: 0 success, 1 runtime failure, 2 configuration or
validation failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Any, IO

import numpy as np

from .core import NORMAL_LABEL, TrafficLog
from .detectors import (
    DecisionTree,
    GradientBoosting,
    RandomForest,
    fit_frequency_detector,
    load_model,
    save_model,
)
from .evaluate import EvalReport, Timer, compute_metrics, emit_report, evaluate_pipeline
from .features import (
    SplitSpec,
    load_dataset_csv,
    log_to_dataset,
    save_dataset_csv,
    smote_oversample,
)
from .ingest import (
    apply_metadata_labels,
    hcrl_schema,
    load_labels,
    load_metadata,
    parse_candump_log,
    parse_csv_dataset,
    save_labels,
    save_metadata,
    serialize_candump,
)
from .lccde import LccdeEnsemble
from .synth import (
    AmbientModel,
    AttackScenario,
    generate_ambient,
    load_scenario,
    run_scenario,
    sidecar_metadata,
)
from .windows import build_bit_grids, build_id_sequences, save_bit_grids, save_id_sequences

PROG = "canids"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Bad arguments, unreadable config, or missing input files."""


def _require_file(path: str) -> str:
    if not os.path.isfile(path):
        raise ConfigError(f"file not found: {path}")
    return path


def _check_output(path: str, force: bool) -> str:
    if os.path.exists(path) and not force:
        raise ConfigError(f"output exists (use --force to overwrite): {path}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _open_out(path: str, force: bool, binary: bool = False) -> IO:
    _check_output(path, force)
    return open(path, "wb" if binary else "w")


def _read_json(path: str) -> Any:
    with open(_require_file(path)) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _load_labeled_log(log_path: str, labels_path: str) -> TrafficLog:
    with open(_require_file(log_path)) as fh:
        log = parse_candump_log(fh)
    with open(_require_file(labels_path)) as fh:
        return load_labels(log, fh)


def cmd_ingest(args: argparse.Namespace) -> int:
    _require_file(args.input)
    if args.format == "candump":
        with open(args.input) as fh:
            log = parse_candump_log(fh, strict=not args.lenient)
    elif args.format == "hcrl-csv":
        schema = hcrl_schema()
        if args.attack_class:
            label_map = dict(schema.label_map)
            label_map["T"] = args.attack_class
            schema = replace(schema, label_map=label_map)
        with open(args.input) as fh:
            log = parse_csv_dataset(fh, schema)
    else:
        raise ConfigError(f"unknown input format {args.format!r}")
    with _open_out(args.out, args.force) as fh:
        serialize_candump(log, fh)
    written = [args.out]
    if log.is_labeled:
        labels_path = args.out + ".labels.json"
        with _open_out(labels_path, args.force) as fh:
            save_labels(log, fh)
        written.append(labels_path)
    print(f"ingested {len(log)} frames -> {', '.join(written)}")
    return EXIT_OK


def cmd_label(args: argparse.Namespace) -> int:
    with open(_require_file(args.log)) as fh:
        log = parse_candump_log(fh)
    with open(_require_file(args.metadata)) as fh:
        metadata = load_metadata(fh)
    labeled = apply_metadata_labels(log, metadata)
    with _open_out(args.out, args.force) as fh:
        save_labels(labeled, fh)
    attacks = int(labeled.attack_flags().sum())
    print(f"labeled {len(labeled)} frames ({attacks} attack) -> {args.out}")
    return EXIT_OK


def _verify_sidecar(labeled: TrafficLog, metadata) -> None:
    relabeled = apply_metadata_labels(labeled, metadata, label_space=labeled.label_space)
    mismatch = np.flatnonzero(labeled.label != relabeled.label)
    if len(mismatch):
        bad = int(mismatch[0])
        raise RuntimeError(
            f"sidecar metadata does not reproduce construction labels "
            f"(first mismatch at frame {bad})"
        )


def _synthesize(ambient_model: AmbientModel, scenario: AttackScenario):
    """The ambient log, the labeled attack log and its verified sidecar metadata."""
    ambient = generate_ambient(ambient_model)
    labeled = run_scenario(ambient, scenario)
    metadata = sidecar_metadata(scenario, labeled)
    _verify_sidecar(labeled, metadata)
    return ambient, labeled, metadata


def _write_synth(out_path, force: bool, ambient: TrafficLog, labeled: TrafficLog, metadata) -> None:
    for name, log in (("ambient.log", ambient), ("attack.log", labeled)):
        with _open_out(out_path(name), force) as fh:
            serialize_candump(log, fh)
    with _open_out(out_path("attack.labels.json"), force) as fh:
        save_labels(labeled, fh)
    with _open_out(out_path("sidecar.json"), force) as fh:
        save_metadata(metadata, fh)


def _write_windows(out_path, force: bool, labeled: TrafficLog, grid_window: int | None,
                   grid_step: int, sequence_window: int | None) -> list[str]:
    """Write the bit grids and id sequences asked for; describe what was written."""
    written = []
    if grid_window is not None:
        grids = build_bit_grids(labeled, window=grid_window, step=grid_step)
        with _open_out(out_path("grids.bin"), force, binary=True) as gfh:
            with _open_out(out_path("grid_labels.bin"), force, binary=True) as lfh:
                save_bit_grids(grids, gfh, lfh)
        written.append(f"{len(grids)} grids")
    if sequence_window is not None:
        seqs = build_id_sequences(labeled, window=sequence_window)
        with _open_out(out_path("sequences.csv"), force) as fh:
            save_id_sequences(seqs, fh)
        written.append(f"{len(seqs)} sequences")
    return written


def cmd_synth(args: argparse.Namespace) -> int:
    ambient_model = AmbientModel.from_json_obj(_read_json(args.ambient))
    with open(_require_file(args.scenario)) as fh:
        scenario = load_scenario(fh)
    ambient, labeled, metadata = _synthesize(ambient_model, scenario)
    os.makedirs(args.out, exist_ok=True)
    _write_synth(lambda name: os.path.join(args.out, name), args.force, ambient, labeled, metadata)
    attacks = int(labeled.attack_flags().sum())
    print(
        f"synthesized {scenario.kind}: {len(labeled)} frames ({attacks} attack), "
        f"sidecar verified -> {args.out}"
    )
    return EXIT_OK


def cmd_prep(args: argparse.Namespace) -> int:
    labeled = _load_labeled_log(args.log, args.labels)
    seed = args.seed if args.seed is not None else 0
    dataset = log_to_dataset(labeled, include_dlc=args.include_dlc)
    train, test = split_train_test_checked(dataset, args.ratio, args.mode, seed)
    if args.smote_target:
        train = smote_oversample(train, target_count=args.smote_target, k=args.smote_k, seed=seed)
    os.makedirs(args.out, exist_ok=True)

    def out_path(name: str) -> str:
        return os.path.join(args.out, name)

    _write_split(out_path, args.force, train, test)
    with _open_out(out_path("classes.json"), args.force) as fh:
        json.dump(list(dataset.classes), fh)
        fh.write("\n")
    extra = _write_windows(out_path, args.force, labeled, args.grid_window or None, args.grid_step,
                           args.sequence_window or None)
    note = f" ({', '.join(extra)})" if extra else ""
    print(f"prepared train={len(train)} test={len(test)}{note} -> {args.out}")
    return EXIT_OK


def _write_split(out_path, force: bool, train, test) -> None:
    for name, part in (("train.csv", train), ("test.csv", test)):
        with _open_out(out_path(name), force) as fh:
            save_dataset_csv(part, fh)


def split_train_test_checked(dataset, ratio: float, mode: str, seed: int):
    from .features import split_train_test

    try:
        spec = SplitSpec(ratio=ratio, mode=mode, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return split_train_test(dataset, spec)


MODEL_KINDS = ("tree", "forest", "gbdt", "lccde", "frequency")


def build_model(kind: str, params: dict[str, Any], seed: int):
    params = dict(params)
    try:
        if kind == "tree":
            return DecisionTree(**params)
        if kind == "forest":
            params.setdefault("seed", seed)
            return RandomForest(**params)
        if kind == "gbdt":
            params.setdefault("seed", seed)
            return GradientBoosting(**params)
        if kind == "lccde":
            params.setdefault("seed", seed)
            return LccdeEnsemble(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for model kind {kind!r}: {exc}") from None
    raise ConfigError(f"unknown model kind {kind!r}")


def _parse_params(text: str | None) -> dict[str, Any]:
    if not text:
        return {}
    try:
        params = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid --params JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ConfigError("--params must be a JSON object")
    return params


def cmd_train(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    params = _parse_params(args.params)
    if args.model == "frequency":
        if not args.ambient:
            raise ConfigError("--model frequency requires --ambient LOG")
        with open(_require_file(args.ambient)) as fh:
            ambient = parse_candump_log(fh)
        with Timer() as timer:
            model = fit_frequency_detector(ambient, **params)
    else:
        classes = None
        if args.classes:
            classes = tuple(_read_json(args.classes))
        with open(_require_file(args.train)) as fh:
            train = load_dataset_csv(fh, classes=classes)
        model = build_model(args.model, params, seed)
        with Timer() as timer:
            model.fit(train.X, train.y, train.classes)
    with _open_out(args.out, args.force) as fh:
        save_model(model, fh)
    print(f"trained {args.model} in {timer.seconds:.2f}s -> {args.out}")
    return EXIT_OK


def _frequency_report(model, labeled: TrafficLog) -> EvalReport:
    with Timer() as timer:
        flags = model.predict_frames(labeled)
    truth = labeled.attack_flags().astype(np.int64)
    report = compute_metrics(truth, flags, (NORMAL_LABEL, "Attack"))
    report.model = model.descriptor()
    report.timings["predict_seconds"] = timer.seconds
    return report


def cmd_eval(args: argparse.Namespace) -> int:
    with open(_require_file(args.model)) as fh:
        model = load_model(fh)
    if model.kind == "frequency":
        if not (args.log and args.labels):
            raise ConfigError("frequency models evaluate logs: pass --log and --labels")
        labeled = _load_labeled_log(args.log, args.labels)
        report = _frequency_report(model, labeled)
    else:
        if not args.test:
            raise ConfigError("tabular models require --test CSV")
        with open(_require_file(args.test)) as fh:
            test = load_dataset_csv(fh, classes=model.classes)
        report = evaluate_pipeline(
            model, test, window_mode=args.mode, window=args.window, step=args.step
        )
    if args.seed is not None:
        report.seed = args.seed
    with _open_out(args.out, args.force) as fh:
        fh.write(emit_report(report, "json"))
    if args.print_table:
        print(emit_report(report, "text_table"), end="")
    print(f"evaluated {model.kind}: accuracy {report.accuracy:.4f} -> {args.out}")
    return EXIT_OK


PIPELINE_DEFAULTS = {
    "seed": 0,
    "include_dlc": False,
    "split": {"ratio": 0.8, "mode": None},
    "smote": None,
    "model": {"kind": "forest"},
    "eval": {"mode": "frame", "window": 29, "step": 29},
    "windows": None,
}


def _resolve_config(raw: dict[str, Any], seed_override: int | None) -> dict[str, Any]:
    config = dict(PIPELINE_DEFAULTS)
    config.update(raw)
    for key in ("split", "eval"):
        merged = dict(PIPELINE_DEFAULTS[key])
        merged.update(raw.get(key) or {})
        config[key] = merged
    if seed_override is not None:
        config["seed"] = seed_override
    if "ambient" not in config or "scenario" not in config:
        raise ConfigError("pipeline config needs 'ambient' and 'scenario' entries")
    for key in ("ambient", "scenario"):
        value = config[key]
        if isinstance(value, dict) and "path" in value:
            config[key] = _read_json(value["path"])
    if config["split"]["mode"] is None:
        config["split"]["mode"] = (
            "chronological" if config["eval"]["mode"] == "window" else "stratified_random"
        )
    kind = config["model"].get("kind")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    return config


def cmd_pipeline(args: argparse.Namespace) -> int:
    if not args.config:
        raise ConfigError("pipeline requires --config FILE")
    raw = _read_json(args.config)
    if not isinstance(raw, dict):
        raise ConfigError("pipeline config must be a JSON object")
    config = _resolve_config(raw, args.seed)
    seed = int(config["seed"])
    run_dir = args.out or "run"
    os.makedirs(run_dir, exist_ok=True)

    def out_path(name: str) -> str:
        return os.path.join(run_dir, name)

    with _open_out(out_path("resolved_config.json"), args.force) as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")

    timings: dict[str, float] = {}
    try:
        ambient_model = AmbientModel.from_json_obj(config["ambient"])
        scenario = AttackScenario.from_json_obj(config["scenario"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad ambient/scenario config: {exc}") from None

    with Timer() as timer:
        ambient, labeled, metadata = _synthesize(ambient_model, scenario)
    timings["synth_seconds"] = timer.seconds
    _write_synth(out_path, args.force, ambient, labeled, metadata)
    if config["windows"]:
        wcfg = config["windows"]
        _write_windows(out_path, args.force, labeled, wcfg.get("window", 29), wcfg.get("step", 29),
                       wcfg.get("sequences", 16))

    model_cfg = dict(config["model"])
    kind = model_cfg.pop("kind")
    dataset_desc: dict[str, Any] = {
        "source": "synthetic",
        "scenario_kind": scenario.kind,
        "frames": len(labeled),
        "attack_frames": int(labeled.attack_flags().sum()),
    }

    if kind == "frequency":
        with Timer() as timer:
            model = fit_frequency_detector(ambient, **model_cfg)
        timings["fit_seconds"] = timer.seconds
        with _open_out(out_path("model.json"), args.force) as fh:
            save_model(model, fh)
        report = _frequency_report(model, labeled)
    else:
        dataset = log_to_dataset(labeled, include_dlc=config["include_dlc"])
        train, test = split_train_test_checked(
            dataset, config["split"]["ratio"], config["split"]["mode"], seed
        )
        if config["smote"]:
            scfg = config["smote"]
            train = smote_oversample(
                train,
                target_count=scfg.get("target_count", 100_000),
                k=scfg.get("k", 5),
                seed=seed,
            )
        _write_split(out_path, args.force, train, test)
        dataset_desc.update(
            {
                "train_rows": len(train),
                "test_rows": len(test),
                "train_synthetic_rows": int(train.synthetic.sum()),
                "classes": list(dataset.classes),
            }
        )
        model = build_model(kind, model_cfg, seed)
        with Timer() as timer:
            model.fit(train.X, train.y, train.classes)
        timings["fit_seconds"] = timer.seconds
        with _open_out(out_path("model.json"), args.force) as fh:
            save_model(model, fh)
        report = evaluate_pipeline(
            model,
            test,
            window_mode=config["eval"]["mode"],
            window=config["eval"]["window"],
            step=config["eval"]["step"],
        )

    report.seed = seed
    report.dataset = {**dataset_desc, **report.dataset}
    report.timings.update(timings)
    with _open_out(out_path("report.json"), args.force) as fh:
        fh.write(emit_report(report, "json"))
    with _open_out(out_path("report.csv"), args.force) as fh:
        fh.write(emit_report(report, "csv"))
    with _open_out(out_path("report.txt"), args.force) as fh:
        fh.write(emit_report(report, "text_table"))
    print(
        f"pipeline complete: {kind} on {scenario.kind}, "
        f"accuracy {report.accuracy:.4f} -> {run_dir}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="global random seed")
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument("--force", action="store_true", help="overwrite existing outputs")
    common.add_argument("--config", default=None, help="JSON configuration file")

    parser = argparse.ArgumentParser(
        prog=PROG, description="CAN traffic intrusion-detection workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="normalize a capture to candump")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("candump", "hcrl-csv"), default="candump")
    p.add_argument("--attack-class", default=None, help="class name for T-flagged rows")
    p.add_argument("--lenient", action="store_true", help="skip malformed lines")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("label", parents=[common], help="label a log from sidecar metadata")
    p.add_argument("--log", required=True)
    p.add_argument("--metadata", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("synth", parents=[common], help="generate ambient traffic and inject attacks")
    p.add_argument("--ambient", required=True, help="ambient model JSON")
    p.add_argument("--scenario", required=True, help="attack scenario JSON")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prep", parents=[common], help="vectorize, split, and rebalance")
    p.add_argument("--log", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--mode", choices=("stratified_random", "chronological"), default="stratified_random")
    p.add_argument("--include-dlc", action="store_true")
    p.add_argument("--smote-target", type=int, default=None)
    p.add_argument("--smote-k", type=int, default=5)
    p.add_argument("--grid-window", type=int, default=None)
    p.add_argument("--grid-step", type=int, default=29)
    p.add_argument("--sequence-window", type=int, default=None)
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("train", parents=[common], help="fit a detector")
    p.add_argument("--train", default=None, help="training CSV")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--params", default=None, help="hyperparameters as inline JSON")
    p.add_argument("--classes", default=None, help="JSON file with the full class list")
    p.add_argument("--ambient", default=None, help="ambient log (frequency model)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="score a model and emit a report")
    p.add_argument("--model", required=True)
    p.add_argument("--test", default=None, help="test CSV (tabular models)")
    p.add_argument("--log", default=None, help="labeled log (frequency models)")
    p.add_argument("--labels", default=None)
    p.add_argument("--mode", choices=("frame", "window"), default="frame")
    p.add_argument("--window", type=int, default=29)
    p.add_argument("--step", type=int, default=29)
    p.add_argument("--print-table", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", parents=[common], help="run every stage from one config")
    p.set_defaults(func=cmd_pipeline)

    return parser


def _default_out(args: argparse.Namespace) -> None:
    if args.out is None:
        defaults = {
            cmd_ingest: "ingested.log",
            cmd_label: "labels.json",
            cmd_synth: "synth",
            cmd_prep: "prep",
            cmd_train: "model.json",
            cmd_eval: "report.json",
            cmd_pipeline: "run",
        }
        args.out = defaults[args.func]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    _default_out(args)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary of the program
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
