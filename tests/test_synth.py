import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from canids import synth
from canids.core import MAX_DLC, CanFrame, TrafficLog, _read_field, to_us
from canids.ingest import apply_metadata_labels, load_metadata, save_metadata
from canids.synth import (
    AmbientIdSpec,
    AmbientModel,
    AttackScenario,
    PayloadModel,
    generate_ambient,
    inject_dos,
    inject_fabrication,
    inject_fuzzing_max_payload,
    inject_fuzzy,
    inject_masquerade,
    inject_targeted_spoof,
    load_scenario,
    run_scenario,
    save_scenario,
    sidecar_metadata,
)
from test_core import arbitration_winner


def simple_ambient(ids=None, duration=1.0, seed=7, jitter=0.0):
    ids = ids or [(0x100, 0.01), (0x200, 0.01)]
    specs = tuple(
        AmbientIdSpec(can_id=i, period=p, jitter_std=jitter,
                      payload=PayloadModel(kind="constant", base=bytes([k] * 8)))
        for k, (i, p) in enumerate(ids)
    )
    return AmbientModel(ids=specs, duration=duration, seed=seed)


def interarrivals(log, can_id):
    ts = np.array([f.timestamp_us for f in log.can_frames() if f.can_id == can_id], dtype=np.int64)
    return np.diff(ts) / 1e6


class TestGenerateAmbient:
    def test_deterministic_schedule_counts(self):
        log = generate_ambient(simple_ambient())
        counts = {}
        for f in log:
            counts[f.can_id] = counts.get(f.can_id, 0) + 1
        assert counts == {0x100: 100, 0x200: 100}

    def test_same_seed_same_log(self):
        a = generate_ambient(simple_ambient(seed=42))
        b = generate_ambient(simple_ambient(seed=42))
        assert a.frames == b.frames

    def test_different_seed_differs(self):
        a = generate_ambient(simple_ambient(seed=1))
        b = generate_ambient(simple_ambient(seed=2))
        assert a.frames != b.frames

    def test_time_sorted(self):
        log = generate_ambient(simple_ambient(jitter=0.001))
        ts = [f.timestamp_us for f in log]
        assert ts == sorted(ts)

    def test_mean_interarrival_near_period(self):
        period, jitter, duration = 0.01, 0.0005, 20.0
        model = simple_ambient(ids=[(0x300, period)], duration=duration, jitter=jitter)
        log = generate_ambient(model)
        gaps = interarrivals(log, 0x300)
        n = len(gaps)
        assert abs(gaps.mean() - period) <= 3 * jitter / math.sqrt(n) + 1e-6

    def test_payload_models(self):
        specs = (
            AmbientIdSpec(0x10, 0.01, payload=PayloadModel("constant", base=b"\xAA\xBB")),
            AmbientIdSpec(0x20, 0.01, payload=PayloadModel("counter", base=b"\x00\x00", positions=(1,))),
            AmbientIdSpec(0x30, 0.01, payload=PayloadModel("random_walk", base=b"\x80" * 4, step=2)),
        )
        log = generate_ambient(AmbientModel(ids=specs, duration=0.5, seed=3))
        const = [f.data for f in log.can_frames() if f.can_id == 0x10]
        assert set(const) == {b"\xAA\xBB"}
        counter = [f.data for f in log.can_frames() if f.can_id == 0x20]
        assert [d[1] for d in counter] == list(range(len(counter)))
        walk = [f.data for f in log.can_frames() if f.can_id == 0x30]
        deltas = np.abs(np.diff([list(d) for d in walk], axis=0))
        assert deltas.max() <= 2

    def test_json_roundtrip(self):
        model = simple_ambient(jitter=0.0002)
        again = AmbientModel.from_json_obj(model.to_json_obj())
        assert again == model


class TestAmbientThatReadsGenerates:
    """Every ambient model that reads generates a log; what cannot is
    refused when read, naming the field."""

    def test_id_format_from_the_value(self):
        doc = {"duration": 1.0, "ids": [{"id": "800", "period": 0.01}, {"id": "0D0", "period": 0.01}]}
        log = generate_ambient(AmbientModel.from_json_obj(doc))
        assert log.extended.tolist() == (log.can_id == 0x800).tolist() and len(log) == 200
        doc["ids"][0]["extended"] = False
        with pytest.raises(ValueError, match="ambient id field 'extended': id 0x800 cannot be standard"):
            AmbientModel.from_json_obj(doc)

    @pytest.mark.parametrize("duration, period, field", [
        (1.0, 1e-7, "period"), (1.0, 4e-7, "period"), (1e30, 1e29, "period"),
        (1e30, 0.01, "duration"), (math.inf, 0.01, "duration")])
    def test_timing_past_int64_microseconds_refused(self, duration, period, field):
        doc = {"duration": duration, "ids": [{"id": "0D0", "period": period}]}
        with pytest.raises(ValueError, match=f"field '{field}'"):
            AmbientModel.from_json_obj(doc)

    def test_one_microsecond_period(self):
        log = generate_ambient(AmbientModel.from_json_obj(
            {"duration": 0.001, "ids": [{"id": "0D0", "period": 6e-7}]}))
        assert np.array_equal(log.ts_us, np.arange(1000))

    def test_huge_jitter_drops_frames_without_a_cast_warning(self):
        model = AmbientModel((AmbientIdSpec(0x0D0, 0.01, jitter_std=1e300),
                              AmbientIdSpec(0x1A0, 0.01, jitter_std=1e303)), duration=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = generate_ambient(model)
        assert len(log) == 0


def reference_random_walk(payload, rng, count):
    """The per-frame walk that PayloadModel.sequence replaced, kept as its
    oracle: one draw of len(base) moves per frame, then a clip."""
    base = np.frombuffer(payload.base, dtype=np.uint8)
    out = np.empty((count, base.size), dtype=np.uint8)
    state = base.astype(np.int16)
    for k in range(count):
        out[k] = state
        move = rng.integers(-payload.step, payload.step + 1, size=state.size)
        state = np.clip(state + move, 0, 255)
    return out


WALK_STEPS = [0, 1, 2, 3, 5, 255, 2**62]
# A walk of `count` frames composes count - 1 steps, in passes that double
# in reach; these counts put the step count at and around powers of two.
WALK_COUNTS = [0, 1, 2, 3, 4, 5, 6, 256, 257, 258, 1024, 1025, 1026]


class TestRandomWalk:
    """The one-draw array walk gives the per-frame loop's payloads and
    leaves the generator in the same state."""

    def check(self, payload, seed, count):
        expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference_random_walk(payload, expected_rng, count)
        got = payload.sequence(rng, count)
        assert got.dtype == np.uint8
        assert got.shape == expected.shape == (count, len(payload.base))
        assert np.array_equal(got, expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(base=st.lists(st.sampled_from([0x00, 0x01, 0x7F, 0xFE, 0xFF]) | st.integers(0, 255),
                         max_size=8),
           step=st.sampled_from(WALK_STEPS),
           count=st.sampled_from(WALK_COUNTS) | st.integers(0, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_frame_loop(self, base, step, count, seed):
        self.check(PayloadModel("random_walk", bytes(base), step), seed, count)

    @pytest.mark.parametrize("base", [b"\x00" * 8, b"\xff" * 8, b"\x00\xff" * 4])
    @pytest.mark.parametrize("step", [1, 255, 2**62])
    def test_long_walks_pinned_at_a_bound(self, base, step):
        # Moves of +-step from 0x00 or 0xFF spend long runs clipped at a bound.
        self.check(PayloadModel("random_walk", base, step), 3, 5000)

    def test_ambient_draws_match_per_frame_loop(self):
        payload = PayloadModel("random_walk", bytes([0, 0x80, 0xFF, 7]), step=3)
        spec = AmbientIdSpec(0x123, 0.001, payload=payload)
        log = generate_ambient(AmbientModel(ids=(spec,), duration=2.0, seed=5))
        rng = np.random.default_rng([5, 0x123])
        rng.uniform(0, 1000)  # the phase draw
        assert np.array_equal(log.data[:, :4], reference_random_walk(payload, rng, len(log)))

    @pytest.mark.parametrize("step", [-1, 2.5, True, "2", None, 2**63 - 1, 10**30])
    def test_bad_steps_refused(self, step):
        with pytest.raises(ValueError, match=r"step"):
            PayloadModel("random_walk", b"\x80", step)
        doc = {"duration": 1.0, "ids": [
            {"id": "0D0", "period": 0.01},
            {"id": "0D1", "period": 0.01, "payload": {"kind": "random_walk", "step": step}}]}
        with pytest.raises(ValueError, match=r"ambient id entry 1 .*step"):
            AmbientModel.from_json_obj(doc)

    def test_largest_step_accepted(self):
        payload = PayloadModel("random_walk", b"\x00\xff", step=2**63 - 2)
        assert payload.sequence(np.random.default_rng(0), 50).shape == (50, 2)


class TestInjectDos:
    def test_count_formula(self):
        ambient = generate_ambient(simple_ambient(duration=1.0))
        out = inject_dos(ambient, AttackScenario("dos", (0.2, 0.5), period=0.0003))
        injected = [f for f in out if f.label.is_attack]
        n = len(injected)
        assert n in (math.floor(0.3 / 0.0003), math.floor(0.3 / 0.0003) + 1)
        assert n == 1000  # exact with integer microsecond arithmetic

    def test_empty_interval(self):
        ambient = generate_ambient(simple_ambient())
        out = inject_dos(ambient, AttackScenario("dos", (0.5, 0.5)))
        assert not any(f.label.is_attack for f in out)

    def test_frame_shape_and_labels(self):
        ambient = generate_ambient(simple_ambient())
        out = inject_dos(ambient, AttackScenario("dos", (0.0, 0.1)))
        assert len(out) == len(ambient) + sum(1 for f in out if f.label.is_attack)
        for lf in out:
            if lf.label.is_attack:
                assert lf.frame.can_id == 0x000
                assert lf.frame.data == b"\x00" * 8
            else:
                assert lf.label.name == "Normal"
        ts = [f.timestamp_us for f in out]
        assert ts == sorted(ts)

    def test_wins_arbitration_against_ambient(self):
        ambient = generate_ambient(simple_ambient())
        out = inject_dos(ambient, AttackScenario("dos", (0.0, 0.05)))
        injected = [f for f in out if f.label.is_attack]
        ambient_frames = [f.frame for f in out if not f.label.is_attack]
        for atk in injected[:20]:
            winner = arbitration_winner([atk.frame] + ambient_frames[:50])
            assert winner is atk.frame


class TestInjectFuzzy:
    def test_random_ids_and_payloads(self):
        ambient = generate_ambient(simple_ambient())
        out = inject_fuzzy(ambient, AttackScenario("fuzzy", (0.1, 0.9), seed=5))
        injected = [f.frame for f in out if f.label.is_attack]
        assert len(injected) == 1600  # 0.8 s at 0.5 ms
        assert all(f.can_id < 2**11 for f in injected)
        assert all(f.dlc == 8 for f in injected)
        assert len({f.can_id for f in injected}) > 100
        assert len({f.data for f in injected}) > 1000

    def test_deterministic(self):
        ambient = generate_ambient(simple_ambient())
        a = inject_fuzzy(ambient, AttackScenario("fuzzy", (0.1, 0.5), seed=9))
        b = inject_fuzzy(ambient, AttackScenario("fuzzy", (0.1, 0.5), seed=9))
        assert a.frames == b.frames

    def test_extended_flag(self):
        ambient = generate_ambient(simple_ambient())
        out = inject_fuzzy(ambient, AttackScenario("fuzzy", (0.1, 0.9), seed=5, extended_ids=True))
        injected = [f.frame for f in out if f.label.is_attack]
        assert any(f.can_id >= 2**11 for f in injected)


class TestInjectTargetedSpoof:
    def test_constant_frame(self):
        ambient = generate_ambient(simple_ambient())
        out = inject_targeted_spoof(ambient, AttackScenario(
            "targeted_spoof", (0.2, 0.4), target_id=0x316, payload=b"\xFF\x00" * 4, period=0.001))
        injected = [f.frame for f in out if f.label.is_attack]
        assert len(injected) == 200
        assert {f.can_id for f in injected} == {0x316}
        assert {f.data for f in injected} == {b"\xFF\x00" * 4}
        gaps = np.diff([f.timestamp_us for f in injected])
        assert set(gaps) == {1000}


class TestInjectFuzzingMaxPayload:
    def test_cycling_and_payload(self):
        ambient = generate_ambient(simple_ambient())
        cycle = list(range(0x000, 0x010))
        out = inject_fuzzing_max_payload(ambient, AttackScenario(
            "fuzzing_max_payload", (0.1, 0.1 + 32 * 0.001), id_cycle=cycle, period=0.001))
        injected = [f.frame for f in out if f.label.is_attack]
        assert len(injected) == 32
        assert [f.can_id for f in injected] == cycle + cycle
        assert all(f.data == b"\xff" * 8 for f in injected)
        gaps = np.diff([f.timestamp_us for f in injected])
        assert set(gaps) == {1000}


def apply_payload_spec(spec, legit):
    """The forged payload of one legitimate payload, read as fabrication
    forges it: 'X' nibbles copy the legitimate bytes, hex nibbles override,
    and the spec is read by the "pattern" field rule."""
    data, dlc = synth._forged(_read_field("", "spec", spec, "pattern"),
                              np.frombuffer(legit.ljust(MAX_DLC, b"\0"), np.uint8), len(legit))
    return data[0, :dlc[0]].tobytes()


class TestPayloadSpec:
    def test_copy_and_override(self):
        legit = bytes.fromhex("0011223344556677")
        spec = "XXXXXXXXXXXXFFXX"
        assert apply_payload_spec(spec, legit) == bytes.fromhex("001122334455FF77")

    def test_all_wildcards_is_copy(self):
        legit = bytes.fromhex("A1B2")
        assert apply_payload_spec("XXXX", legit) == legit

    def test_extends_when_fixed_beyond_dlc(self):
        assert apply_payload_spec("XXXXFF", b"\x01") == bytes.fromhex("0100FF")

    @settings(max_examples=300, deadline=None)
    @given(st.text("0123456789abcdefABCDEFX", max_size=16), st.binary(max_size=8))
    def test_matches_per_nibble_reference(self, spec, legit):
        assert apply_payload_spec(spec, legit) == reference_payload_spec(spec, legit)

    def test_fabrication_grows_short_payloads(self):
        """A spec fixing bytes past the legitimate dlc lengthens each forged frame."""
        specs = (AmbientIdSpec(0x0D0, 0.01, payload=PayloadModel(base=b"\xa1")),
                 AmbientIdSpec(0x1A0, 0.01, payload=PayloadModel(base=b"")))
        ambient = generate_ambient(AmbientModel(ids=specs, duration=1.0, seed=3))
        for spec in ("XXXXFF", "7", "XXXXXXXXXXXXXXX1", ""):
            log = inject_fabrication(ambient, AttackScenario(
                "fabrication", (0.2, 0.6), target_id=0x0D0, payload_spec=spec))
            frames, flags = log.can_frames(), log.attack_flags()
            forged = [k for k in range(len(log)) if flags[k]]
            assert forged
            for k in forged:
                legit = frames[k - 1]
                assert legit.can_id == 0x0D0 and not flags[k - 1]
                assert frames[k].data == reference_payload_spec(spec, legit.data)


def reference_payload_spec(spec, legit):
    """Per-nibble reference: 'X' copies the legitimate nibble, hex overrides,
    and the payload grows to reach the last fixed nibble."""
    spec = spec.upper()
    fixed = [i for i, c in enumerate(spec) if c != "X"]
    n_bytes = max(len(legit), (max(fixed) // 2 + 1) if fixed else 0)
    nibbles = list(legit.ljust(n_bytes, b"\0").hex().upper())
    for i in fixed:
        nibbles[i] = spec[i]
    return bytes.fromhex("".join(nibbles))


FLAM_SPEC = "XXXXXXXXXXXXFFXX"


def fabrication_setup(duration=60.0, target=0x0D0, interval=(10.0, 40.0), jitter=0.0004):
    specs = (
        AmbientIdSpec(target, 0.02, jitter_std=jitter,
                      payload=PayloadModel("constant", base=bytes.fromhex("0011223344556677"))),
        AmbientIdSpec(0x1A0, 0.01, jitter_std=jitter,
                      payload=PayloadModel("counter", base=b"\x00" * 8, positions=(7,))),
        AmbientIdSpec(0x2B0, 0.05, jitter_std=jitter,
                      payload=PayloadModel("random_walk", base=b"\x80" * 8, step=2)),
    )
    ambient = generate_ambient(AmbientModel(ids=specs, duration=duration, seed=11))
    fabricated = inject_fabrication(ambient, AttackScenario(
        "fabrication", interval, target_id=target, payload_spec=FLAM_SPEC))
    return ambient, fabricated, target, interval


class TestFabrication:
    def test_one_injection_per_legit_frame(self):
        ambient, fabricated, target, interval = fabrication_setup()
        s, e = to_us(interval[0]), to_us(interval[1])
        legit_in = [
            f for f in ambient.can_frames() if f.can_id == target and s <= f.timestamp_us <= e
        ]
        injected = [f for f in fabricated if f.label.is_attack]
        assert len(injected) == len(legit_in)
        assert len(legit_in) >= 500

    def test_flam_pairs_differ_only_at_fixed_byte(self):
        ambient, fabricated, target, interval = fabrication_setup()
        frames = list(fabricated.frames)
        for i, lf in enumerate(frames):
            if not lf.label.is_attack:
                continue
            prev = frames[i - 1]
            assert prev.frame.can_id == target
            assert lf.timestamp_us == prev.timestamp_us + 1
            diff = [k for k in range(8) if lf.frame.data[k] != prev.frame.data[k]]
            assert diff == [6]
            assert lf.frame.data[6] == 0xFF

    def test_ambient_preserved(self):
        ambient, fabricated, _, _ = fabrication_setup()
        kept = [f.frame for f in fabricated if not f.label.is_attack]
        assert kept == ambient.can_frames()

    def test_timing_transparent_rate_doubles(self):
        ambient, fabricated, target, interval = fabrication_setup()
        s, e = to_us(interval[0]), to_us(interval[1])

        def rate(log):
            n = sum(
                1 for f in log.can_frames() if f.can_id == target and s <= f.timestamp_us <= e
            )
            return n / (interval[1] - interval[0])

        ratio = rate(fabricated) / rate(ambient)
        assert 1.9 <= ratio <= 2.1


class TestMasquerade:
    def test_count_conservation(self):
        ambient, fabricated, target, interval = fabrication_setup()
        masq = inject_masquerade(ambient, AttackScenario(
            "masquerade", interval, target_id=target, payload_spec=FLAM_SPEC))
        s, e = to_us(interval[0]), to_us(interval[1])
        ambient_count = sum(
            1 for f in ambient.can_frames() if f.can_id == target and s <= f.timestamp_us <= e
        )
        masq_target = [
            lf for lf in masq if lf.frame.can_id == target and s <= lf.timestamp_us <= e + 1
        ]
        assert len(masq_target) == ambient_count
        assert all(lf.label.is_attack for lf in masq_target)

    def test_timing_opaque_rate_unchanged(self):
        ambient, fabricated, target, interval = fabrication_setup()
        masq = inject_masquerade(ambient, AttackScenario(
            "masquerade", interval, target_id=target, payload_spec=FLAM_SPEC))
        s, e = to_us(interval[0]), to_us(interval[1])

        def count(log):
            return sum(
                1 for f in log.can_frames() if f.can_id == target and s <= f.timestamp_us <= e + 1
            )

        ratio = count(masq) / count(ambient)
        assert 0.95 <= ratio <= 1.05

    def test_interarrival_ks_close_to_ambient(self):
        ambient, fabricated, target, interval = fabrication_setup()
        masq = inject_masquerade(ambient, AttackScenario(
            "masquerade", interval, target_id=target, payload_spec=FLAM_SPEC))
        ga = interarrivals(ambient, target)
        gm = interarrivals(masq, target)
        assert len(gm) >= 500
        ks = stats.ks_2samp(ga, gm).statistic
        assert ks <= 0.1

    def test_non_target_untouched(self):
        ambient, fabricated, target, interval = fabrication_setup()
        masq = inject_masquerade(ambient, AttackScenario(
            "masquerade", interval, target_id=target, payload_spec=FLAM_SPEC))
        other_before = [f.frame for f in fabricated if f.frame.can_id != target]
        other_after = [f.frame for f in masq if f.frame.can_id != target]
        assert other_before == other_after


class TestScenarioRoundTrip:
    def test_json_roundtrip(self):
        sc = AttackScenario(
            kind="fabrication", interval=(1.0, 5.0), target_id=0x0D0,
            payload_spec="XXXXXXXXXXXXFFXX", seed=3, attack_class="Reverse Light On Fabrication Attack",
        )
        buf = io.StringIO()
        save_scenario(sc, buf)
        assert load_scenario(io.StringIO(buf.getvalue())) == sc

    def test_validation(self):
        with pytest.raises(ValueError):
            AttackScenario(kind="nope", interval=(0, 1))
        with pytest.raises(ValueError):
            AttackScenario(kind="fabrication", interval=(0, 1))  # no target
        with pytest.raises(ValueError):
            AttackScenario(kind="dos", interval=(2, 1))
        with pytest.raises(ValueError):
            AttackScenario(kind="fuzzing_max_payload", interval=(0, 1), id_cycle=(1,))  # no period

    def test_interval_outside_ambient_rejected(self):
        ambient = generate_ambient(simple_ambient(duration=1.0))
        sc = AttackScenario(kind="dos", interval=(5.0, 6.0))
        with pytest.raises(ValueError, match="outside the ambient span"):
            run_scenario(ambient, sc)


SCENARIOS = [
    AttackScenario(kind="dos", interval=(10.0, 20.0)),
    AttackScenario(kind="fuzzy", interval=(10.0, 20.0), seed=13),
    AttackScenario(kind="targeted_spoof", interval=(10.0, 20.0), target_id=0x316,
                   payload=bytes.fromhex("FF00FF00FF00FF00")),
    AttackScenario(kind="fuzzing_max_payload", interval=(10.0, 20.0),
                   id_cycle=(0x000, 0x001, 0x002), period=0.002),
    AttackScenario(kind="fabrication", interval=(10.0, 40.0), target_id=0x0D0,
                   payload_spec="XXXXXXXXXXXXFFXX"),
    AttackScenario(kind="masquerade", interval=(10.0, 40.0), target_id=0x0D0,
                   payload_spec="XXXXXXXXXXXXFFXX"),
]


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.kind)
class TestSidecarEquivalence:
    def test_sidecar_relabel_matches_construction(self, scenario):
        ambient = generate_ambient(
            AmbientModel(
                ids=(
                    AmbientIdSpec(0x0D0, 0.02, jitter_std=0.0004,
                                  payload=PayloadModel("constant", base=bytes.fromhex("0011223344556677"))),
                    AmbientIdSpec(0x1A0, 0.01,
                                  payload=PayloadModel("counter", base=b"\x00" * 8, positions=(7,))),
                    AmbientIdSpec(0x2B0, 0.05, jitter_std=0.001,
                                  payload=PayloadModel("random_walk", base=b"\x80" * 8, step=2)),
                ),
                duration=60.0,
                seed=21,
            )
        )
        labeled = run_scenario(ambient, scenario)
        metadata = sidecar_metadata(scenario, labeled)

        buf = io.StringIO()
        save_metadata(metadata, buf)
        metadata = load_metadata(io.StringIO(buf.getvalue()))

        relabeled = apply_metadata_labels(
            labeled, metadata, label_space=labeled.label_space
        )
        construction = [lf.label.name for lf in labeled]
        replay = [lf.label.name for lf in relabeled]
        assert construction == replay

    def test_determinism(self, scenario):
        ambient = generate_ambient(simple_ambient(ids=[(0x0D0, 0.02), (0x1A0, 0.01)], duration=30.0))
        a = run_scenario(ambient, scenario)
        b = run_scenario(ambient, scenario)
        assert a.frames == b.frames


@pytest.mark.parametrize("kind", ["fabrication", "masquerade"])
def test_sidecar_keeps_the_format_of_an_extended_target(kind):
    """A flam frame copies its target's format: an extended target whose id
    fits 11 bits gets an extended sidecar id, which relabels the log."""
    ambient = generate_ambient(AmbientModel(
        ids=(AmbientIdSpec(0x0D0, 0.02, extended=True), AmbientIdSpec(0x1A0, 0.03)),
        duration=2.0, seed=1))
    scenario = AttackScenario(kind=kind, interval=(0.5, 1.5), target_id=0x0D0, payload_spec="XXFF")
    labeled = run_scenario(ambient, scenario)
    (campaign,) = sidecar_metadata(scenario, labeled)
    assert (campaign.can_id, campaign.extended) == (0x0D0, True)
    relabeled = apply_metadata_labels(labeled, [campaign], label_space=labeled.label_space)
    assert relabeled.labels() == labeled.labels() and labeled.attack_flags().sum() == 50



@pytest.mark.parametrize("kind", ["fabrication", "masquerade"])
def test_sidecar_covers_a_target_in_both_formats(kind):
    """A log built by hand holds the target value in both formats: the
    sidecar gets one campaign per format, which together relabel the log."""
    ambient = TrafficLog(frames=tuple(
        CanFrame(10_000 * i, "can0", 0x0D0, bytes(2), extended=i % 2 == 1) for i in range(200)))
    scenario = AttackScenario(kind=kind, interval=(0.5, 1.5), target_id=0x0D0, payload_spec="XXFF")
    labeled = run_scenario(ambient, scenario)
    campaigns = sidecar_metadata(scenario, labeled)
    assert [(m.can_id, m.extended) for m in campaigns] == [(0x0D0, False), (0x0D0, True)]
    relabeled = apply_metadata_labels(labeled, campaigns, label_space=labeled.label_space)
    assert relabeled.labels() == labeled.labels() and labeled.attack_flags().sum() == 101

# Valid scenarios of each kind over a 2 s ambient log, and the values a
# field is set to: each scenario either reads and runs, or is refused when read.
RUNNABLE_BASE = {
    "dos": {"kind": "dos", "interval": [0.5, 0.6]},
    "fuzzy": {"kind": "fuzzy", "interval": [0.5, 0.6], "seed": 2},
    "targeted_spoof": {"kind": "targeted_spoof", "interval": [0.5, 0.6], "target_id": "316",
                       "payload": "FF00FF00FF00FF00"},
    "fuzzing_max_payload": {"kind": "fuzzing_max_payload", "interval": [0.5, 0.6],
                            "id_cycle": ["001", "002"], "period": 0.002},
    "fabrication": {"kind": "fabrication", "interval": [0.5, 1.5], "target_id": "0D0",
                    "payload_spec": FLAM_SPEC},
    "masquerade": {"kind": "masquerade", "interval": [0.5, 1.5], "target_id": "0D0",
                   "payload_spec": FLAM_SPEC},
}
FIELD_VALUES = [("period", v) for v in (1e-7, 4e-7, 6e-7, 1e30)] + [
    ("interval", v)
    for v in ([0.5, 1e30], [0.5, math.inf], [-math.inf, 0.6], [1e30, 1e30], [-1.0, 0.6])] + [
    ("payload", v) for v in ("", "00" * 8, "00" * 9)] + [
    ("payload_spec", v) for v in ("ZZ", "F" * 16, "F" * 17)] + [("attack_class", "Normal")]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(RUNNABLE_BASE)), change=st.sampled_from(FIELD_VALUES))
def test_a_scenario_that_reads_runs(kind, change):
    """A scenario is refused when read, naming the field, or it runs: the
    injection, its sidecar, and the sidecar's relabeling of the log."""
    field, value = change
    doc = dict(RUNNABLE_BASE[kind], **{field: value})
    try:
        scenario = AttackScenario.from_json_obj(doc)
    except ValueError as exc:
        assert f"field '{field}'" in str(exc)
        return
    ambient = generate_ambient(AmbientModel(
        ids=(AmbientIdSpec(0x0D0, 0.01, payload=PayloadModel("constant", bytes(range(8)))),
             AmbientIdSpec(0x1A0, 0.005, 0.0002, PayloadModel("counter", bytes(8), positions=(7,)))),
        duration=2.0, seed=3))
    labeled = run_scenario(ambient, scenario)
    metadata = sidecar_metadata(scenario, labeled)
    relabeled = apply_metadata_labels(labeled, metadata, label_space=labeled.label_space)
    assert np.array_equal(relabeled.label, labeled.label)


def json_paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([-1, 0, 2**29, 2**64, 10**400, "0D0", "XYZ", [1.0], [2.0, 1.0]]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6)

FULL_AMBIENT = AmbientModel(
    ids=(AmbientIdSpec(0x0D0, 0.01, 0.0004, PayloadModel("constant", bytes(range(8)))),
         AmbientIdSpec(0x1A0, 0.005, 0.0, PayloadModel("counter", bytes(8), positions=(6, 7))),
         AmbientIdSpec(0x1BCDEF0, 0.02, 0.001, PayloadModel("random_walk", b"\x80" * 4, step=2),
                       extended=True)),
    duration=2.0, seed=11, channel="vcan1")
FULL_SCENARIOS = [
    AttackScenario(kind="targeted_spoof", interval=(0.5, 1.0), target_id=0x0D0,
                   payload=b"\xff" * 8, period=0.002, seed=3, attack_class="Spoof"),
    AttackScenario(kind="fuzzing_max_payload", interval=(0.5, 1.0), id_cycle=(0x1, 0x2),
                   period=0.002, extended_ids=True),
    AttackScenario(kind="fabrication", interval=(0.5, 1.0), target_id=0x1A0,
                   payload_spec="XXXXXXXXXXXXFFXX"),
]


class TestConfigDocuments:
    """AmbientModel and AttackScenario documents: a malformed one raises
    ValueError naming the field, never another exception."""

    @pytest.mark.parametrize("doc, message", [
        ({}, "lacks 'kind', 'interval'"),
        ([{"kind": "dos"}], "must be a JSON object"),
        ({"kind": "dos", "interval": [1.0]}, "interval"),
        ({"kind": "dos", "interval": 5}, "field 'interval'"),
        ({"kind": "dos", "interval": [1.0, "x"]}, "field 'interval'"),
        ({"kind": "dos", "interval": [0.0, 1e309]}, "interval"),
        ({"kind": "dos", "interval": [0, 1], "seed": 1e309}, "field 'seed'"),
        ({"kind": "dos", "interval": [0, 1], "period": None}, "field 'period'"),
        ({"kind": "dos", "interval": [0, 1], "attack_class": 3}, "field 'attack_class'"),
        ({"kind": "fabrication", "interval": [0, 1], "target_id": "1_0"}, "field 'target_id'"),
        ({"kind": "fabrication", "interval": [0, 1], "target_id": 2**29}, "field 'target_id'"),
        ({"kind": "targeted_spoof", "interval": [0, 1], "payload": ["FF"]}, "field 'payload'"),
        ({"kind": "fuzzing_max_payload", "interval": [0, 1], "id_cycle": 7}, "field 'id_cycle'"),
        # Text is not read as a list of its characters.
        ({"kind": "dos", "interval": "12"}, "field 'interval'"),
        ({"kind": "fuzzing_max_payload", "interval": [0, 1], "id_cycle": "0D"}, "field 'id_cycle'"),
        # Integer and flag fields are not cast: 2.5 is not 2, "no" is not True.
        ({"kind": "dos", "interval": [0, 1], "seed": 2.5}, "field 'seed': 2.5 is not an integer"),
        ({"kind": "dos", "interval": [0, 1], "seed": True}, "field 'seed'"),
        ({"kind": "fuzzy", "interval": [0, 1], "extended_ids": "no"}, "field 'extended_ids'"),
        ({"kind": "fuzzy", "interval": [0, 1], "extended_ids": 1}, "field 'extended_ids'"),
    ])
    def test_malformed_scenarios(self, doc, message):
        with pytest.raises(ValueError, match=message):
            AttackScenario.from_json_obj(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"duration": 1.0}, "lacks 'ids'"),
        ("ambient", "must be a JSON object"),
        ({"duration": 1.0, "ids": 5}, "field 'ids'"),
        ({"duration": 1.0, "ids": [{"id": "0D0"}]}, "entry 0 lacks 'period'"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1}, {"period": 1}]}, "entry 1 lacks 'id'"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1, "payload": "x"}]}, "field 'payload'"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1, "payload": {"base": 7}}]},
         "field 'base'"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1,
                                    "payload": {"kind": "counter", "positions": [-1]}}]},
         "counter position"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1e309}]}, "period"),
        ({"duration": float("nan"), "ids": []}, "duration"),
        ({"duration": 1.0, "ids": [], "channel": 0}, "field 'channel'"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1,
                                    "payload": {"kind": "counter", "positions": "67"}}]},
         "field 'positions'"),
        ({"duration": 1.0, "ids": [], "seed": 2.5}, "model field 'seed': 2.5 is not an integer"),
        ({"duration": 1.0, "ids": [], "seed": False}, "model field 'seed'"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1, "extended": "no"}]},
         "entry 0 field 'extended': 'no' is not true or false"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1, "extended": 0}]},
         "entry 0 field 'extended'"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1, "payload": {
            "kind": "counter", "base": "0000", "positions": [2.5, True]}}]},
         "entry 0 field 'payload': .*field 'positions': 2.5 is not an integer"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1, "payload": {
            "kind": "counter", "base": "0000", "positions": [1, True]}}]},
         "entry 0 field 'payload': .*field 'positions': True is not an integer"),
        ({"duration": 1.0, "ids": [{"id": "0D0", "period": 1, "payload": {
            "kind": "random_walk", "step": 2.0}}]},
         "entry 0 field 'payload': .*field 'step': 2.0 is not an integer"),
    ])
    def test_malformed_ambient_models(self, doc, message):
        with pytest.raises(ValueError, match=message):
            AmbientModel.from_json_obj(doc)

    @pytest.mark.parametrize("field, value", [
        ("period", True), ("period", "0.1"), ("jitter_std", False), ("jitter_std", "0"),
        ("duration", True), ("duration", "4.0"), ("interval", [True, 2.0]),
        ("interval", ["0.5", 1.0]), ("scenario period", "0.002"), ("scenario period", True),
    ])
    def test_numbers_are_not_bools_or_strings(self, field, value):
        """Number fields are read as numbers, never cast: float() would read
        true as 1.0 and "0.1" as 0.1."""
        entry = {"id": "0D0", "period": 0.01}
        ambient = {"duration": 1.0, "ids": [entry]}
        scenario = {"kind": "dos", "interval": [0.5, 1.0]}
        doc = {"period": entry, "jitter_std": entry, "duration": ambient}.get(field, scenario)
        field = field.removeprefix("scenario ")
        doc[field] = value
        reader, top = (AttackScenario, scenario) if doc is scenario else (AmbientModel, ambient)
        with pytest.raises(ValueError, match=f"field '{field}': .* is not a number"):
            reader.from_json_obj(top)

    def test_numbers_keep_their_kind(self):
        """An integer stays an integer, so the documents write back what they read."""
        doc = {"duration": 4, "seed": 1, "channel": "can0", "ids": [
            {"id": "0D0", "period": 1, "jitter_std": 0, "extended": False,
             "payload": {"kind": "constant", "base": "00"}}]}
        assert json.dumps(AmbientModel.from_json_obj(doc).to_json_obj()) == json.dumps(doc)
        scenario = {"kind": "dos", "interval": [1, 2], "seed": 0, "period": 1}
        assert json.dumps(AttackScenario.from_json_obj(scenario).to_json_obj()) == json.dumps(scenario)

    def test_documents_round_trip(self):
        assert AmbientModel.from_json_obj(FULL_AMBIENT.to_json_obj()) == FULL_AMBIENT
        for sc in FULL_SCENARIOS:
            assert AttackScenario.from_json_obj(sc.to_json_obj()) == sc

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_documents_raise_only_value_error(self, data):
        reader, model = data.draw(st.sampled_from(
            [(AmbientModel, FULL_AMBIENT)] + [(AttackScenario, sc) for sc in FULL_SCENARIOS]))
        # The document sits under a root key so that it can be replaced whole.
        doc = {"root": model.to_json_obj()}
        path = ("root",) + data.draw(st.sampled_from(list(json_paths(doc["root"]))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if len(path) > 1 and data.draw(st.booleans()):
            # Truncate: drop a field, or a list element and all after it.
            if isinstance(parent, list):
                del parent[path[-1]:]
            else:
                del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
        try:
            reader.from_json_obj(doc["root"])
        except ValueError:
            pass
