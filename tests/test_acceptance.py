"""Release gate: ten end-to-end checks with pinned tolerances.

Each test emits a single PASS/FAIL verdict line, echoed in the terminal
summary after the run.  Oracles are imported from the per-module suites
where they were written first (segment interpolation, counting metrics,
arbitration transcription).
"""

import io
import itertools
import json
import time

import numpy as np
from scipy.stats import ks_2samp

from conftest import acceptance_verdicts
from test_evaluate import brute_force_metrics
from test_features import segment_check
from test_lccde import CLASSES3, canned_models, oracle_arbitrate
from test_synth import SCENARIOS

from canids.cli import main as cli_main
from canids.core import CanFrame, LabelSpace, LabeledFrame, TrafficLog, id_bits
from canids.detectors import fit_frequency_detector, fit_random_forest
from canids.evaluate import compute_metrics
from canids.features import SplitSpec, TabularDataset, log_to_dataset, smote_oversample, split_train_test
from canids.ingest import apply_metadata_labels, parse_candump_log, serialize_candump
from canids.lccde import LeaderMap, _arbitrate, arbitrate_one, lccde_predict
from canids.synth import AmbientIdSpec, AmbientModel, AttackScenario, PayloadModel, generate_ambient, run_scenario, sidecar_metadata
from canids.windows import build_bit_grids, build_id_sequences


def verdict(number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} [criterion {number:2d}/10] {detail}"
    print(line)
    acceptance_verdicts.append(line)
    assert ok, line


REFERENCE_LINE = "(1040000000.000682) can0 0BA#04B7EC04000602C8"


def test_candump_reference_line_and_bulk_roundtrip():
    started = time.perf_counter()
    reference = parse_candump_log([REFERENCE_LINE])
    (frame,) = reference
    written = io.StringIO()
    serialize_candump(reference, written)
    exact = (
        frame.timestamp_us == 1_040_000_000_000_682
        and frame.channel == "can0"
        and frame.can_id == 0x0BA
        and frame.data == bytes.fromhex("04B7EC04000602C8")
        and written.getvalue() == REFERENCE_LINE + "\n"
    )

    rng = np.random.default_rng(1234)
    n_logs = 10_000
    sizes = rng.integers(1, 5, size=n_logs)
    total = int(sizes.sum())
    ts_all = rng.integers(0, 1 << 41, size=total)
    ext_all = rng.random(total) < 0.25
    id_std = rng.integers(0, 0x800, size=total)
    id_ext = rng.integers(0, 1 << 29, size=total)
    dlc_all = rng.integers(0, 9, size=total)
    data_all = rng.integers(0, 256, size=(total, 8), dtype=np.uint8)
    chan_all = rng.integers(0, 3, size=total)
    channels = ("can0", "can1", "vcan0")

    mismatches = 0
    cursor = 0
    for size in sizes:
        rows = slice(cursor, cursor + int(size))
        cursor += int(size)
        ts = np.sort(ts_all[rows])
        frames = tuple(
            CanFrame(
                timestamp_us=int(ts[i]),
                channel=channels[chan_all.flat[rows.start + i]],
                can_id=int(id_ext[rows][i] if ext_all[rows][i] else id_std[rows][i]),
                data=data_all[rows][i, : dlc_all[rows][i]].tobytes(),
                extended=bool(ext_all[rows][i]),
            )
            for i in range(int(size))
        )
        log = TrafficLog(frames)
        buf = io.StringIO()
        serialize_candump(log, buf)
        parsed = parse_candump_log(buf.getvalue().splitlines())
        if parsed.frames != log.frames:
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = exact and mismatches == 0 and elapsed < 5.0
    verdict(1, ok, f"candump reference line exact, {n_logs} round-trips, "
                   f"{mismatches} mismatches ({elapsed:.2f}s < 5s)")


SPACE = LabelSpace(attack_names=("Attack",))


def make_labeled_log(n, attack_indices=(), attack_id=0x7FF):
    attack_indices = set(attack_indices)
    frames = tuple(
        LabeledFrame(
            CanFrame(i * 1000, "can0", attack_id if i in attack_indices else 0x100, b"\x00"),
            SPACE.get("Attack") if i in attack_indices else SPACE.get("Normal"),
        )
        for i in range(n)
    )
    return TrafficLog(frames, label_space=SPACE)


def test_window_count_formulas():
    failures = []
    for n in (29, 30, 58, 100, 1000):
        log = make_labeled_log(n)
        for step in (1, 29):
            got = len(build_bit_grids(log, window=29, step=step))
            want = (n - 29) // step + 1
            if got != want:
                failures.append(f"grids n={n} s={step}: {got} != {want}")
        got_seq = len(build_id_sequences(log, window=16, step=1).ids)
        if got_seq != n - 15:
            failures.append(f"sequences n={n}: {got_seq} != {n - 15}")
    verdict(2, not failures, "window counts match closed formulas "
                             f"(15 grid cases, 5 sequence cases){': ' + '; '.join(failures) if failures else ''}")


def test_attack_pair_straddles_window_boundary():
    log = make_labeled_log(58, attack_indices=(28, 29))
    attack_row = id_bits(log.can_frames()[28])

    coarse = build_bit_grids(log, window=29, step=29)
    coarse_hits = [int((grid == attack_row).all(axis=1).sum()) for grid in coarse.grids]
    dense = build_bit_grids(log, window=29, step=1)
    dense_hits = [int((grid == attack_row).all(axis=1).sum()) for grid in dense.grids]

    ok = (
        max(coarse_hits) == 1
        and list(coarse.labels) == [1, 1]
        and max(dense_hits) == 2
    )
    verdict(3, ok, "attack pair at frames 28-29: no step-29 grid holds both "
                   f"(max {max(coarse_hits)} row hits), {dense_hits.count(2)} "
                   "step-1 grids hold both")


def test_oversampling_target_and_segment_audit():
    started = time.perf_counter()
    rng = np.random.default_rng(9)
    minority = rng.integers(0, 256, size=(43, 9)).astype(np.float64)
    majority = rng.integers(0, 256, size=(120, 9)).astype(np.float64)
    data = TabularDataset(
        X=np.vstack([majority, minority]),
        y=np.array([0] * 120 + [1] * 43),
        classes=("Normal", "Coolant Overheat"),
    )

    grown = smote_oversample(data, target_count=100_000, k=5, seed=9)
    counts = grown.class_counts()
    synthetic_rows = grown.X[(grown.y == 1) & grown.synthetic]

    audit_rng = np.random.default_rng(10)
    picks = audit_rng.choice(len(synthetic_rows), size=1_000, replace=False)
    bad = sum(1 for i in picks if not segment_check(synthetic_rows[i], minority, k=5, tol=1e-9))
    elapsed = time.perf_counter() - started

    ok = (
        counts["Coolant Overheat"] == 100_000
        and counts["Normal"] == 120
        and len(synthetic_rows) == 100_000 - 43
        and bad == 0
        and elapsed < 60.0
    )
    verdict(4, ok, f"43 -> {counts['Coolant Overheat']} samples, 1000-point "
                   f"segment audit vs brute-force kNN: {bad} outside 1e-9 "
                   f"({elapsed:.2f}s < 60s)")


def test_arbitration_matches_independent_oracle():
    started = time.perf_counter()
    confidence_patterns = [
        (0.9, 0.6, 0.3),
        (0.3, 0.6, 0.9),
        (0.2, 0.9, 0.4),
        (0.5, 0.5, 0.5),
    ]
    total = 0
    mismatches = 0
    for labels in itertools.product(range(3), repeat=3):
        for leaders in itertools.product(range(3), repeat=3):
            for confidences in confidence_patterns:
                for literal in (True, False):
                    got, _ = arbitrate_one(labels, confidences, leaders, majority_literal=literal)
                    want = oracle_arbitrate(labels, confidences, leaders, majority_literal=literal)
                    total += 1
                    if got != want:
                        mismatches += 1
    # The batch paths: every triple and pattern as one score matrix per
    # base model, per leader map and reading.
    rows = [(labels, confidences) for labels in itertools.product(range(3), repeat=3)
            for confidences in confidence_patterns]
    models = canned_models(rows)
    X = np.zeros((len(rows), 1))
    batch_total = 0
    batch_mismatches = 0
    for leaders in itertools.product(range(3), repeat=3):
        leader_map = LeaderMap(CLASSES3, leaders, np.zeros((3, 3)), (1.0, 1.0, 1.0))
        for literal in (True, False):
            vectorized, _ = _arbitrate([m.scores for m in models], leader_map, literal)
            predicted, _ = lccde_predict(models, leader_map, X, literal)
            for r, (labels, confidences) in enumerate(rows):
                want = oracle_arbitrate(labels, confidences, leaders, majority_literal=literal)
                batch_total += 1
                if not vectorized[r] == predicted[r] == want:
                    batch_mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and batch_mismatches == 0 and elapsed < 5.0
    verdict(5, ok, f"arbitration exhaustive 27x27 maps x4 confidence patterns "
                   f"x2 readings: {total - mismatches}/{total} match oracle, batch "
                   f"_arbitrate and lccde_predict {batch_total - batch_mismatches}/{batch_total} "
                   f"({elapsed:.2f}s < 5s)")


def timing_corpus():
    specs = tuple(
        AmbientIdSpec(
            can_id=0x0A0 + 0x10 * k,
            period=0.01 * (k + 1),
            jitter_std=0.0002 * (k + 1),
            payload=PayloadModel(kind="constant", base=bytes([k + 1] * 8)),
        )
        for k in range(12)
    )
    return AmbientModel(ids=specs, duration=70.0, seed=21)


def test_frequency_detector_separates_timing_attacks():
    started = time.perf_counter()
    ambient = generate_ambient(timing_corpus())
    target = 0x0B0
    fab = AttackScenario(kind="fabrication", interval=(5.0, 65.0), target_id=target,
                         payload_spec="XXXXXXXXXXXXFFXX")
    masq = AttackScenario(kind="masquerade", interval=(5.0, 65.0), target_id=target,
                          payload_spec="XXXXXXXXXXXXFFXX")
    fab_log = run_scenario(ambient, fab)
    masq_log = run_scenario(ambient, masq)

    detector = fit_frequency_detector(ambient, k_sigma=4.0)

    def score(log):
        flags = detector.predict_frames(log).astype(bool)
        truth = np.array([name != "Normal" for name in log.labels()])
        recall = float(flags[truth].mean())
        precision = float(truth[flags].mean()) if flags.any() else 0.0
        return recall, precision

    fab_recall, fab_precision = score(fab_log)
    masq_recall, _ = score(masq_log)

    def gaps(log):
        ts = np.array([f.timestamp_us for f in log.can_frames() if f.can_id == target])
        return np.diff(ts)

    ks_stat = float(ks_2samp(gaps(ambient), gaps(masq_log)).statistic)
    elapsed = time.perf_counter() - started

    ok = (
        fab_recall >= 0.95
        and fab_precision >= 0.90
        and masq_recall <= 0.10
        and ks_stat <= 0.1
        and elapsed < 120.0
    )
    verdict(6, ok, f"frequency detector: fabrication recall {fab_recall:.3f} "
                   f">= 0.95, precision {fab_precision:.3f} >= 0.90; masquerade "
                   f"recall {masq_recall:.3f} <= 0.10; KS {ks_stat:.4f} <= 0.1 "
                   f"({elapsed:.1f}s < 120s)")


def forest_corpus():
    return AmbientModel(
        ids=(
            AmbientIdSpec(0x0A0, 0.01,
                          payload=PayloadModel("counter", base=b"\x00" * 8, positions=(7,))),
            AmbientIdSpec(0x1B0, 0.02,
                          payload=PayloadModel("constant", base=b"\x11" * 8)),
            AmbientIdSpec(0x2C0, 0.005,
                          payload=PayloadModel("random_walk", base=b"\x80" * 8, step=1)),
            AmbientIdSpec(0x3D0, 0.05,
                          payload=PayloadModel("constant", base=b"\x22" * 8)),
        ),
        duration=12.0,
        seed=3,
    )


def attack_f1_on(scenario, seed):
    ambient = generate_ambient(forest_corpus())
    log = run_scenario(ambient, scenario)
    data = log_to_dataset(log)
    train, test = split_train_test(data, SplitSpec(ratio=0.8, mode="stratified_random", seed=seed))
    forest = fit_random_forest(train.X, train.y, classes=data.classes,
                               n_trees=15, max_depth=8, seed=seed)
    report = compute_metrics(test.y, forest.predict_labels(test.X), data.classes)
    attack_name = next(c for c in data.classes if c != "Normal")
    return report.metrics_for(attack_name).f1


def test_forest_isolates_separable_attacks():
    started = time.perf_counter()
    dos_f1 = attack_f1_on(AttackScenario(kind="dos", interval=(2.0, 9.0)), seed=5)
    flood_f1 = attack_f1_on(
        AttackScenario(kind="fuzzing_max_payload", interval=(2.0, 9.0),
                       id_cycle=(0x0A0, 0x1B0, 0x2C0, 0x3D0), period=0.001),
        seed=5,
    )
    elapsed = time.perf_counter() - started
    ok = dos_f1 >= 0.99 and flood_f1 >= 0.99 and elapsed < 300.0
    verdict(7, ok, f"random forest attack-class F1: bus flood {dos_f1:.4f}, "
                   f"max-payload fuzzing {flood_f1:.4f}, both >= 0.99 "
                   f"({elapsed:.1f}s < 300s)")


def test_metrics_agree_with_counting_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    worst_micro = 0.0
    for _ in range(1_000):
        n_classes = int(rng.integers(2, 7))
        length = int(rng.integers(1, 61))
        y_true = rng.integers(0, n_classes, size=length)
        y_pred = rng.integers(0, n_classes, size=length)
        classes = tuple(f"class {c}" for c in range(n_classes))
        report = compute_metrics(y_true, y_pred, classes, include_normal_in_macro=True)
        oracle = brute_force_metrics(y_true, y_pred, n_classes)
        for c, m in enumerate(report.per_class):
            for got, want in zip((m.precision, m.recall, m.f1), oracle[c][:3]):
                worst = max(worst, abs(got - want))
        worst_micro = max(worst_micro, abs(report.micro_recall - report.accuracy))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and worst_micro <= 1e-12 and elapsed < 10.0
    verdict(8, ok, f"metrics vs counting oracle on 1000 random vectors: max "
                   f"deviation {worst:.2e}, micro-recall vs accuracy "
                   f"{worst_micro:.2e}, both <= 1e-12 ({elapsed:.2f}s < 10s)")


PIPELINE_CONFIG = {
    "seed": 5,
    "ambient": {
        "duration": 4.0,
        "seed": 11,
        "ids": [
            {"id": "0D0", "period": 0.01, "jitter_std": 0.0004,
             "payload": {"kind": "constant", "base": "0011223344556677"}},
            {"id": "1A0", "period": 0.005,
             "payload": {"kind": "counter", "base": "0000000000000000", "positions": [7]}},
        ],
    },
    "scenario": {"kind": "dos", "interval": [1.0, 2.0]},
    "split": {"ratio": 0.8, "mode": "stratified_random"},
    "model": {"kind": "forest", "n_trees": 5, "max_depth": 6},
}


def test_pipeline_reports_are_reproducible(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(PIPELINE_CONFIG))
    codes = [
        cli_main(["pipeline", "--config", str(config_path), "--out", str(tmp_path / run)])
        for run in ("run_a", "run_b")
    ]

    json_a = (tmp_path / "run_a" / "report.json").read_text()
    json_b = (tmp_path / "run_b" / "report.json").read_text()
    prefix_equal = json_a.split('"timings"')[0] == json_b.split('"timings"')[0]

    obj_a, obj_b = json.loads(json_a), json.loads(json_b)
    obj_a.pop("timings")
    obj_b.pop("timings")

    side_equal = all(
        (tmp_path / "run_a" / name).read_bytes() == (tmp_path / "run_b" / name).read_bytes()
        for name in ("report.csv", "report.txt")
    )

    ok = codes == [0, 0] and prefix_equal and obj_a == obj_b and side_equal
    verdict(9, ok, "two pipeline runs: report.json byte-identical outside "
                   "timings, report.csv and report.txt byte-identical")


def test_construction_labels_survive_sidecar_relabel():
    ambient = generate_ambient(
        AmbientModel(
            ids=(
                AmbientIdSpec(0x0D0, 0.02, jitter_std=0.0004,
                              payload=PayloadModel("constant", base=bytes.fromhex("0011223344556677"))),
                AmbientIdSpec(0x1A0, 0.01,
                              payload=PayloadModel("counter", base=b"\x00" * 8, positions=(7,))),
                AmbientIdSpec(0x316, 0.05, jitter_std=0.001,
                              payload=PayloadModel("random_walk", base=b"\x80" * 8, step=2)),
            ),
            duration=60.0,
            seed=21,
        )
    )
    total = 0
    mismatched = 0
    for scenario in SCENARIOS:
        labeled = run_scenario(ambient, scenario)
        metadata = sidecar_metadata(scenario, labeled)
        relabeled = apply_metadata_labels(labeled, metadata, label_space=labeled.label_space)
        construction = labeled.labels()
        replay = relabeled.labels()
        total += len(construction)
        mismatched += sum(1 for a, b in zip(construction, replay) if a != b)
    ok = mismatched == 0 and total > 0
    verdict(10, ok, f"sidecar relabel of {len(SCENARIOS)} attack kinds: "
                    f"{total - mismatched}/{total} frame labels identical")
