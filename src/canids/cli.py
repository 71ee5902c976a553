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

from .core import NORMAL_LABEL, TrafficLog, _read_field, format_timestamp
from .detectors import _MODEL_KINDS, load_model, save_model
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
from . import lccde  # noqa: F401 - importing it registers the "lccde" model kind
from .synth import AmbientModel, AttackScenario, generate_ambient, run_scenario, sidecar_metadata
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


def _open_out(path: str, force: bool, binary: bool = False) -> IO:
    if os.path.exists(path) and not force:
        raise ConfigError(f"output exists (use --force to overwrite): {path}")
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "wb" if binary else "w")


def _read_json(path: str) -> Any:
    with open(_require_file(path)) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from None


def _out_dir(path: str):
    """Create the output directory; return the path of a name inside it."""
    os.makedirs(path, exist_ok=True)
    return lambda name: os.path.join(path, name)


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
    else:
        schema = hcrl_schema()
        if args.attack_class:
            label_map = dict(schema.label_map)
            label_map["T"] = args.attack_class
            schema = replace(schema, label_map=label_map)
        with open(args.input) as fh:
            log = parse_csv_dataset(fh, schema)
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


def _read_synth(ambient_obj: Any, scenario_obj: Any) -> tuple[AmbientModel, AttackScenario]:
    """The ambient model and the scenario two JSON documents describe."""
    try:
        return AmbientModel.from_json_obj(ambient_obj), AttackScenario.from_json_obj(scenario_obj)
    except ValueError as exc:
        raise ConfigError(f"bad ambient/scenario config: {exc}") from None


def _synthesize(ambient_model: AmbientModel, scenario: AttackScenario):
    """The scenario, with the ambient log, the labeled attack log and its
    sidecar metadata, checked to relabel the log: a scenario whose attack
    frames match the ambient frames its sidecar selects is refused, naming
    the field that fixes those frames."""
    ambient = generate_ambient(ambient_model)
    labeled = run_scenario(ambient, scenario)
    metadata = sidecar_metadata(scenario, labeled)
    relabeled = apply_metadata_labels(labeled, metadata, label_space=labeled.label_space)
    mismatch = np.flatnonzero(labeled.label != relabeled.label)
    if len(mismatch):
        k = int(mismatch[0])
        field = {"targeted_spoof": "payload", "fabrication": "payload_spec",
                 "masquerade": "payload_spec"}.get(scenario.kind, "kind")
        at = f"frame {k}, {format_timestamp(int(labeled.ts_us[k]))} s, id 0x{int(labeled.can_id[k]):03X}"
        raise ConfigError(f"bad ambient/scenario config: scenario field {field!r}: sidecar metadata "
                          f"does not reproduce construction labels (first mismatch at {at})")
    return scenario, ambient, labeled, metadata


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
    scenario, ambient, labeled, metadata = _synthesize(
        *_read_synth(_read_json(args.ambient), _read_json(args.scenario)))
    _write_synth(_out_dir(args.out), args.force, ambient, labeled, metadata)
    attacks = int(labeled.attack_flags().sum())
    print(
        f"synthesized {scenario.kind}: {len(labeled)} frames ({attacks} attack), "
        f"sidecar verified -> {args.out}"
    )
    return EXIT_OK


def _split_spec(ratio: float, mode: str, seed: int) -> SplitSpec:
    try:
        return SplitSpec(ratio=ratio, mode=mode, seed=seed)
    except ValueError as exc:
        raise ConfigError(f"bad split ratio, mode or seed: {exc}") from None


def _prepare(labeled: TrafficLog, include_dlc: bool, spec: SplitSpec,
             smote: tuple[int, int] | None):
    """The log's train and test rows; `smote` = (target_count, k) oversamples train."""
    # Looked up per call, so that a wrapper installed on canids.features applies.
    from .features import split_train_test

    dataset = log_to_dataset(labeled, include_dlc=include_dlc)
    train, test = split_train_test(dataset, spec)
    if smote:
        train = smote_oversample(train, target_count=smote[0], k=smote[1], seed=spec.seed)
    return train, test


def cmd_prep(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    spec = _split_spec(args.ratio, args.mode, seed)
    labeled = _load_labeled_log(args.log, args.labels)
    smote = (args.smote_target, args.smote_k) if args.smote_target else None
    train, test = _prepare(labeled, args.include_dlc, spec, smote)
    out_path = _out_dir(args.out)
    _write_split(out_path, args.force, train, test)
    with _open_out(out_path("classes.json"), args.force) as fh:
        json.dump(list(train.classes), fh)
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


MODEL_KINDS = tuple(_MODEL_KINDS)


def build_model(kind: str, params: dict[str, Any], seed: int):
    """An unfitted model of a registered kind; the run seed goes to kinds
    that declare a `seed` hyperparameter, unless `params` sets one."""
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    cls = _MODEL_KINDS[kind]
    if "seed" in cls.params:
        params = {"seed": seed, **params}
    try:
        return cls(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameters for model kind {kind!r}: {exc}") from None


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


def _fit(model, train, ambient: TrafficLog | None) -> float:
    """Fit the model and return its fit seconds: frequency models learn the
    ambient log, every other kind the train rows."""
    with Timer() as timer:
        if model.kind == "frequency":
            model.fit(ambient)
        else:
            model.fit(train.X, train.y, train.classes)
    return timer.seconds


def cmd_train(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    model = build_model(args.model, _parse_params(args.params), seed)
    train = ambient = None
    if args.model == "frequency":
        if not args.ambient:
            raise ConfigError("--model frequency requires --ambient LOG")
        with open(_require_file(args.ambient)) as fh:
            ambient = parse_candump_log(fh)
    else:
        if not args.train:
            raise ConfigError("tabular models require --train CSV")
        classes = tuple(_read_json(args.classes)) if args.classes else None
        with open(_require_file(args.train)) as fh:
            train = load_dataset_csv(fh, classes=classes)
    seconds = _fit(model, train, ambient)
    with _open_out(args.out, args.force) as fh:
        save_model(model, fh)
    print(f"trained {args.model} in {seconds:.2f}s -> {args.out}")
    return EXIT_OK


def _evaluate(model, test, labeled: TrafficLog | None, mode: str, window: int,
              step: int) -> EvalReport:
    """The model's report: frequency models flag the frames of the labeled
    log, every other kind scores the test rows."""
    if model.kind != "frequency":
        return evaluate_pipeline(model, test, window_mode=mode, window=window, step=step)
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
    test = labeled = None
    if model.kind == "frequency":
        if not (args.log and args.labels):
            raise ConfigError("frequency models evaluate logs: pass --log and --labels")
        if args.mode == "window":
            raise ConfigError("model kind 'frequency' flags frames: --mode window does not apply")
        labeled = _load_labeled_log(args.log, args.labels)
    else:
        if not args.test:
            raise ConfigError("tabular models require --test CSV")
        with open(_require_file(args.test)) as fh:
            test = load_dataset_csv(fh, classes=model.classes)
        if args.mode == "window" and args.window > len(test):
            raise ConfigError(f"--window {args.window} is longer than the test set's {len(test)} rows")
    report = _evaluate(model, test, labeled, args.mode, args.window, args.step)
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


# The pipeline config's count entries: positive integers, or null to skip an output.
_COUNTS = {"eval": {"window": "integer from 1", "step": "integer from 1"},
           "smote": {"target_count": "integer from 1", "k": "integer from 1"},
           "windows": {"window": "integer from 1 or null", "step": "integer from 1",
                       "sequences": "integer from 1 or null"}}


def _resolve_config(raw: dict[str, Any], seed_override: int | None) -> dict[str, Any]:
    try:
        for key in ("model", "split", "eval", "smote", "windows"):
            _read_field("pipeline config", key, raw.get(key, {}),
                        "object" if key == "model" else "object or null")
        config = {**PIPELINE_DEFAULTS, **raw}
        for key in ("split", "eval"):
            config[key] = {**PIPELINE_DEFAULTS[key], **(raw.get(key) or {})}
        if seed_override is not None:
            config["seed"] = seed_override
        for name, kind in (("seed", "seed"), ("include_dlc", "flag")):
            config[name] = _read_field("pipeline config", name, config[name], kind)
        for section, kinds in _COUNTS.items():
            for name, kind in kinds.items():
                _read_field(f"pipeline config {section}", name,
                            (config[section] or {}).get(name, 1), kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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
    if config["eval"]["mode"] not in ("frame", "window"):
        raise ConfigError(f"pipeline config eval.mode must be 'frame' or 'window', "
                          f"not {config['eval']['mode']!r}")
    if kind == "frequency" and config["eval"]["mode"] == "window":
        raise ConfigError("model kind 'frequency' flags frames: eval.mode must be 'frame'")
    return config


def cmd_pipeline(args: argparse.Namespace) -> int:
    raw = _read_json(args.config)
    if not isinstance(raw, dict):
        raise ConfigError("pipeline config must be a JSON object")
    config = _resolve_config(raw, args.seed)
    seed = config["seed"]
    model_cfg = dict(config["model"])
    kind = model_cfg.pop("kind")
    model = build_model(kind, model_cfg, seed)
    spec = _split_spec(config["split"]["ratio"], config["split"]["mode"], seed)
    synth_docs = _read_synth(config["ambient"], config["scenario"])
    timings: dict[str, float] = {}
    with Timer() as timer:
        scenario, ambient, labeled, metadata = _synthesize(*synth_docs)
    timings["synth_seconds"] = timer.seconds
    out_path = _out_dir(args.out)
    with _open_out(out_path("resolved_config.json"), args.force) as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")

    _write_synth(out_path, args.force, ambient, labeled, metadata)
    if config["windows"]:
        wcfg = config["windows"]
        _write_windows(out_path, args.force, labeled, wcfg.get("window", 29), wcfg.get("step", 29),
                       wcfg.get("sequences", 16))

    dataset_desc: dict[str, Any] = {
        "source": "synthetic",
        "scenario_kind": scenario.kind,
        "frames": len(labeled),
        "attack_frames": int(labeled.attack_flags().sum()),
    }
    train = test = None
    ecfg = config["eval"]
    if kind != "frequency":
        scfg = config["smote"]
        smote = (scfg.get("target_count", 100_000), scfg.get("k", 5)) if scfg else None
        train, test = _prepare(labeled, config["include_dlc"], spec, smote)
        if ecfg["mode"] == "window" and ecfg["window"] > len(test):
            raise ConfigError(f"eval.window {ecfg['window']} is longer than the test set's {len(test)} rows")
        _write_split(out_path, args.force, train, test)
        dataset_desc.update(
            {
                "train_rows": len(train),
                "test_rows": len(test),
                "train_synthetic_rows": int(train.synthetic.sum()),
                "classes": list(train.classes),
            }
        )
    timings["fit_seconds"] = _fit(model, train, ambient)
    with _open_out(out_path("model.json"), args.force) as fh:
        save_model(model, fh)
    report = _evaluate(model, test, labeled, ecfg["mode"], ecfg["window"], ecfg["step"])

    report.seed = seed
    report.dataset = {**dataset_desc, **report.dataset}
    report.timings.update(timings)
    for fmt, ext in (("json", "json"), ("csv", "csv"), ("text_table", "txt")):
        with _open_out(out_path(f"report.{ext}"), args.force) as fh:
            fh.write(emit_report(report, fmt))
    print(
        f"pipeline complete: {kind} on {scenario.kind}, "
        f"accuracy {report.accuracy:.4f} -> {args.out}"
    )
    return EXIT_OK


def _add_count(parser: argparse.ArgumentParser, flag: str, default: int | None,
               low: int = 1) -> None:
    """An integer option that argparse refuses below `low` (exit 2, before
    any file is read); where `low` is 0, a 0 turns an output off."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"{flag} must be {'positive' if low else '0 (off) or more'}, not {value}")
        return value

    parser.add_argument(flag, type=count, default=default)


def _seed(text: str) -> int:
    """The --seed option, read as every document reads its seed: exit 2
    below 0, before any file is read."""
    try:
        return _read_field("command line", "seed", int(text), "seed")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument("--force", action="store_true", help="overwrite existing outputs")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])  # verbs that read a seed
    seeded.add_argument("--seed", type=_seed, default=None, help="global random seed")

    parser = argparse.ArgumentParser(
        prog=PROG, description="CAN traffic intrusion-detection workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="normalize a capture to candump")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("candump", "hcrl-csv"), default="candump")
    p.add_argument("--attack-class", default=None, help="class name for T-flagged rows")
    p.add_argument("--lenient", action="store_true", help="skip malformed lines")
    p.set_defaults(func=cmd_ingest, default_out="ingested.log")

    p = sub.add_parser("label", parents=[common], help="label a log from sidecar metadata")
    p.add_argument("--log", required=True)
    p.add_argument("--metadata", required=True)
    p.set_defaults(func=cmd_label, default_out="labels.json")

    p = sub.add_parser("synth", parents=[common], help="generate ambient traffic and inject attacks")
    p.add_argument("--ambient", required=True, help="ambient model JSON")
    p.add_argument("--scenario", required=True, help="attack scenario JSON")
    p.set_defaults(func=cmd_synth, default_out="synth")

    p = sub.add_parser("prep", parents=[seeded], help="vectorize, split, and rebalance")
    p.add_argument("--log", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--mode", choices=("stratified_random", "chronological"), default="stratified_random")
    p.add_argument("--include-dlc", action="store_true")
    _add_count(p, "--smote-target", None, low=0)
    _add_count(p, "--smote-k", 5)
    _add_count(p, "--grid-window", None, low=0)
    _add_count(p, "--grid-step", 29)
    _add_count(p, "--sequence-window", None, low=0)
    p.set_defaults(func=cmd_prep, default_out="prep")

    p = sub.add_parser("train", parents=[seeded], help="fit a detector")
    p.add_argument("--train", default=None, help="training CSV")
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--params", default=None, help="hyperparameters as inline JSON")
    p.add_argument("--classes", default=None, help="JSON file with the full class list")
    p.add_argument("--ambient", default=None, help="ambient log (frequency model)")
    p.set_defaults(func=cmd_train, default_out="model.json")

    p = sub.add_parser("eval", parents=[seeded], help="score a model and emit a report")
    p.add_argument("--model", required=True)
    p.add_argument("--test", default=None, help="test CSV (tabular models)")
    p.add_argument("--log", default=None, help="labeled log (frequency models)")
    p.add_argument("--labels", default=None)
    p.add_argument("--mode", choices=("frame", "window"), default="frame")
    _add_count(p, "--window", 29)
    _add_count(p, "--step", 29)
    p.add_argument("--print-table", action="store_true")
    p.set_defaults(func=cmd_eval, default_out="report.json")

    p = sub.add_parser("pipeline", parents=[seeded], help="run every stage from one config")
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.set_defaults(func=cmd_pipeline, default_out="run")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    if args.out is None:
        args.out = args.default_out
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
