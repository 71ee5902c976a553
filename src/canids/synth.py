"""Ambient CAN traffic generation and attack injection.

The injectors reproduce six attack mechanics over an ambient log: bus-flood
DoS, random-id fuzzing, targeted spoofing, max-payload fuzzing with cycling
ids, fabrication (one forged frame flammed right after each legitimate target
frame), and masquerade, a fabrication that then deletes the legitimate frame
of each flam pair. Every injector reads one `AttackScenario`, the only
description of a campaign, whose fields are checked when it is read; it
returns a fully labeled, time-sorted log and is deterministic under the
scenario's seed.  `run_scenario` finds the injector in one table by kind.

Generators and injectors build `TrafficLog` columns, never frame objects:
the ambient ids' columns, or the ambient and injected columns, are
concatenated and merged by a stable argsort of their timestamps, so frames
at equal timestamps keep their order (ambient before injected).

A random-walk payload draws all of its moves in one call, which leaves the
id's substream exactly as one draw per frame would, and then solves the
clamp recursion with a doubling scan over clamped shifts (see `_clamped_walk`)
instead of stepping frame by frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from canids.core import (
    MAX_DLC,
    MAX_EXTENDED_ID,
    MAX_STANDARD_ID,
    TrafficLog,
    _hex_cells,
    _id_format,
    _present_fields,
    _read_field,
    _read_fields,
    _require_fields,
    binary_label_space,
    to_us,
)
from canids.ingest import _DATA_PAD, AttackMetadata, _Campaigns, _campaigns, _pattern_bytes, _pattern_cells

FLAM_DELAY_US = 1  # one timestamp quantum: "immediately after" the legitimate frame

DOS_PERIOD_S = 0.0003
FUZZY_PERIOD_S = 0.0005
SPOOF_PERIOD_S = 0.001

DOS_CLASS = "DoS Attack"
FUZZY_CLASS = "Fuzzy Attack"
SPOOF_CLASS = "Spoofing Attack"
MAX_PAYLOAD_FUZZ_CLASS = "Fuzzing Attack"
FABRICATION_CLASS = "Fabrication Attack"
MASQUERADE_CLASS = "Masquerade Attack"

# What the DoS and max-payload injectors write, and their sidecar entries match.
DOS_ID = 0x000
DOS_DATA = bytes(MAX_DLC)
MAX_PAYLOAD_FUZZ_DATA = b"\xff" * MAX_DLC


# ---------------------------------------------------------------------------
# Ambient surrogate traffic

# The largest random-walk step whose moves -step..step are int64 draws.
_MAX_WALK_STEP = 2**63 - 2


def _clamped_walk(base: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """The first len(moves) uint8 states of s[0] = base,
    s[k+1] = clip(s[k] + moves[k], 0, 255); the last row of moves goes unused.

    Each step is a clamped shift x -> clip(x + a, lo, hi), and two clamped
    shifts compose into another: a then (b, lo2, hi2) is
    (a + b, clip(lo + b, lo2, hi2), clip(hi + b, lo2, hi2)).  A doubling
    scan composes every prefix of the steps in log2(len(moves)) passes.
    On states in 0..255 a shift past +-256 saturates like +-256, so shifts
    are held to that range: exact, and small enough for int16.
    """
    shift = np.clip(moves[:-1], -256, 256).astype(np.int16)
    lo = np.zeros_like(shift)
    hi = np.full_like(shift, 255)
    d = 1
    while d < len(shift):
        # Row k, which holds steps k-d+1..k, takes on the d steps before them.
        b, lo_d, hi_d = shift[d:], lo[d:], hi[d:]
        lo_k = np.clip(lo[:-d] + b, lo_d, hi_d)
        hi_k = np.clip(hi[:-d] + b, lo_d, hi_d)
        shift[d:] = np.clip(shift[:-d] + b, -256, 256)
        lo[d:], hi[d:] = lo_k, hi_k
        d *= 2
    out = np.empty(moves.shape, dtype=np.uint8)
    out[:1] = base
    out[1:] = np.clip(base + shift, lo, hi)
    return out


_PAYLOAD_FIELDS = dict(kind="text", step="integer", positions="list of integer")


@dataclass(frozen=True)
class PayloadModel:
    """Per-id payload evolution: constant bytes, bounded random walk, or counters."""

    kind: str = "constant"  # constant | random_walk | counter
    base: bytes = b"\x00" * 8
    step: int = 1
    positions: tuple[int, ...] = ()

    def __post_init__(self):
        _read_fields(self, "payload", **_PAYLOAD_FIELDS)
        if self.kind not in ("constant", "random_walk", "counter"):
            raise ValueError(f"unknown payload model {self.kind!r}")
        if len(self.base) > MAX_DLC:
            raise ValueError("payload base exceeds 8 bytes")
        if any(not 0 <= p < len(self.base) for p in self.positions):
            raise ValueError("counter position outside the payload")
        if not 0 <= self.step <= _MAX_WALK_STEP:
            raise ValueError(f"step {self.step!r} is not an integer in 0..{_MAX_WALK_STEP}")

    def sequence(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The payloads of `count` frames, one uint8 row of len(base) bytes each.

        A random walk starts at `base` and moves each byte by a uniform
        integer in -step..step per frame, clipped to 0..255.  Its moves come
        from one `rng.integers` draw of shape (count, len(base)): the same
        values, and the same generator state afterwards, as one draw of
        len(base) moves per frame (the last frame's moves go unused).
        """
        base = np.frombuffer(self.base, dtype=np.uint8)
        if self.kind == "constant":
            return np.tile(base, (count, 1))
        if self.kind == "counter":
            step = np.bincount(np.asarray(self.positions, dtype=np.int64), minlength=base.size)
            return ((base + np.arange(count)[:, None] * step) % 256).astype(np.uint8)
        return _clamped_walk(base, rng.integers(-self.step, self.step + 1, size=(count, base.size)))

    def to_json_obj(self) -> dict:
        obj = {"kind": self.kind, "base": self.base.hex().upper()}
        if self.kind == "random_walk":
            obj["step"] = self.step
        if self.kind == "counter":
            obj["positions"] = list(self.positions)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PayloadModel":
        _require_fields(obj, (), "payload")
        return cls(**_present_fields(obj, "payload", base=bytes.fromhex, **_PAYLOAD_FIELDS))


_ID_FIELDS = dict(period="number rounding to [1 us, int64 us)", jitter_std="number in [0, inf)",
                  extended="flag or null")


@dataclass(frozen=True)
class AmbientIdSpec:
    can_id: int
    period: float
    jitter_std: float = 0.0
    payload: PayloadModel = field(default_factory=PayloadModel)
    extended: bool | None = None  # None: from the id (past 11 bits: extended)

    def __post_init__(self):
        _read_fields(self, "ambient id", can_id="id", **_ID_FIELDS)
        object.__setattr__(self, "extended", _id_format("ambient id", self.can_id, self.extended))


_AMBIENT_FIELDS = dict(duration="number in (0, int64 us)", seed="seed", channel="text")


@dataclass(frozen=True)
class AmbientModel:
    """Declarative surrogate for an ambient capture: periodic per-id schedules."""

    ids: tuple[AmbientIdSpec, ...]
    duration: float
    seed: int = 0
    channel: str = "can0"

    def __post_init__(self):
        _read_fields(self, "ambient model", **_AMBIENT_FIELDS)
        seen = [s.can_id for s in self.ids]
        if len(seen) != len(set(seen)):
            raise ValueError("duplicate ambient id entries")

    def to_json_obj(self) -> dict:
        return {
            "duration": self.duration,
            "seed": self.seed,
            "channel": self.channel,
            "ids": [
                {
                    "id": f"{s.can_id:03X}",
                    "period": s.period,
                    "jitter_std": s.jitter_std,
                    "extended": s.extended,
                    "payload": s.payload.to_json_obj(),
                }
                for s in self.ids
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AmbientModel":
        """The model a JSON object describes; a malformed one raises
        ValueError naming the id entry and the field."""
        _require_fields(obj, ("ids", "duration"), "ambient model")
        ids = []
        for k, e in enumerate(_read_field("ambient model", "ids", obj["ids"], "list of object")):
            where = f"ambient id entry {k}"
            _require_fields(e, ("id", "period"), where)
            ids.append(AmbientIdSpec(
                can_id=_read_field(where, "id", e["id"], "id"),
                **_present_fields(e, where, payload=PayloadModel.from_json_obj, **_ID_FIELDS)))
        return cls(ids=tuple(ids), **_present_fields(obj, "ambient model", **_AMBIENT_FIELDS))


def generate_ambient(model: AmbientModel) -> TrafficLog:
    """Generate ambient traffic: per-id frames at phase + k*period + jitter.

    Each id draws from its own seeded substream, so the log is deterministic
    under the model seed and ids can be generated independently.  The ids'
    columns are concatenated in model order and merged by a stable sort on
    time, so frames at equal timestamps keep that order.
    """
    duration_us = to_us(model.duration)
    parts = [_frame_columns([], 0, False, b"")]
    for spec in model.ids:
        rng = np.random.default_rng([model.seed, spec.can_id])
        period_us = to_us(spec.period)
        phase_us = int(rng.uniform(0, period_us))
        if phase_us >= duration_us:
            continue
        count = (duration_us - 1 - phase_us) // period_us + 1
        times = phase_us + period_us * np.arange(count, dtype=np.int64)
        if spec.jitter_std > 0:
            # Kept in [0, duration) as float64, before the cast: a huge jitter
            # leaves int64, or is NaN.  Below 2**53 us the sums are exact.
            times = times + np.rint(rng.normal(0.0, spec.jitter_std * 1e6, count))
            times = np.sort(times[(times >= 0) & (times < duration_us)].astype(np.int64))
        payloads = spec.payload.sequence(rng, len(times))
        parts.append(_frame_columns(times, spec.can_id, spec.extended, payloads))
    return _merged(parts, channels=(model.channel,))


def _frame_columns(ts_us, can_id, extended, payload, channel=0) -> dict[str, np.ndarray]:
    """The columns of len(ts_us) frames; the other fields are scalars or
    per-frame arrays, and payload is bytes or a uint8 (n, dlc) table."""
    ts_us = np.asarray(ts_us, dtype=np.int64)
    n = len(ts_us)
    payload = np.frombuffer(payload, dtype=np.uint8) if isinstance(payload, bytes) else payload
    data = np.zeros((n, MAX_DLC), dtype=np.uint8)
    data[:, :payload.shape[-1]] = payload
    return dict(ts_us=ts_us, can_id=np.broadcast_to(can_id, n),
                extended=np.broadcast_to(extended, n),
                dlc=np.full(n, payload.shape[-1]), data=data, channel=np.broadcast_to(channel, n))


# ---------------------------------------------------------------------------
# Injection machinery

def _interval_us(scenario: AttackScenario) -> tuple[int, int]:
    return to_us(scenario.interval[0]), to_us(scenario.interval[1])


def _schedule_us(scenario: AttackScenario) -> np.ndarray:
    """Periodic injection times in the scenario's [start, end); an empty interval injects nothing."""
    start_us, end_us = _interval_us(scenario)
    if end_us <= start_us:
        return np.empty(0, dtype=np.int64)
    period_us = to_us(scenario.effective_period)
    count = (end_us - 1 - start_us) // period_us + 1
    return start_us + period_us * np.arange(count, dtype=np.int64)


def _merged(parts: list[dict], **fields) -> TrafficLog:
    """The log of the concatenated column parts, stably sorted by time:
    frames at equal timestamps keep their order across and within parts."""
    columns = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    order = np.argsort(columns["ts_us"], kind="stable")
    return TrafficLog._from_columns(**{k: v[order] for k, v in columns.items()}, **fields)


def _merge_labeled(ambient: TrafficLog, injected: dict, attack_class: str) -> TrafficLog:
    """Ambient frames labeled Normal merged with injected frames labeled
    attack_class, ambient first at equal timestamps.  `injected` holds
    channel codes into the ambient log's channels; an empty ambient log has
    the single channel "can0"."""
    ambient_part = ambient._columns()
    ambient_part["label"] = np.zeros(len(ambient), dtype=np.int64)
    injected["label"] = np.ones(len(injected["ts_us"]), dtype=np.int64)
    return _merged([ambient_part, injected],
                   channels=ambient.channels if len(ambient) else ("can0",),
                   label_space=binary_label_space(attack_class))


def _injected_channel(ambient: TrafficLog) -> int:
    """Injected frames go out on the channel of the ambient log's first frame."""
    return int(ambient.channel[0]) if len(ambient) else 0


def inject_dos(ambient: TrafficLog, scenario: AttackScenario) -> TrafficLog:
    """Flood the bus with the all-dominant id 0x000 and a zero payload.

    Injections are spaced the scenario's period apart (0.3 ms by default)
    inside the interval; every injected frame wins arbitration against any
    ambient frame with a nonzero id.
    """
    injected = _frame_columns(_schedule_us(scenario), DOS_ID, False, DOS_DATA,
                              _injected_channel(ambient))
    return _merge_labeled(ambient, injected, scenario.effective_class)


def inject_fuzzy(ambient: TrafficLog, scenario: AttackScenario) -> TrafficLog:
    """Inject frames with uniformly random ids and 8 random data bytes.

    Ids are drawn from the 11-bit space by default, and from the full 29-bit
    space when the scenario sets extended_ids; the draws follow its seed.
    """
    times = _schedule_us(scenario)
    rng = np.random.default_rng([scenario.seed, 0xF022])
    id_limit = MAX_EXTENDED_ID if scenario.extended_ids else MAX_STANDARD_ID
    ids = rng.integers(0, id_limit + 1, size=len(times))
    payloads = rng.integers(0, 256, size=(len(times), 8), dtype=np.uint8)
    injected = _frame_columns(times, ids, scenario.extended_ids, payloads, _injected_channel(ambient))
    return _merge_labeled(ambient, injected, scenario.effective_class)


def inject_targeted_spoof(ambient: TrafficLog, scenario: AttackScenario) -> TrafficLog:
    """Inject the scenario's fixed target id/payload pair periodically (1 ms by default)."""
    target_id = scenario.target_id
    injected = _frame_columns(_schedule_us(scenario), target_id, target_id > MAX_STANDARD_ID,
                              scenario.payload, _injected_channel(ambient))
    return _merge_labeled(ambient, injected, scenario.effective_class)


def inject_fuzzing_max_payload(ambient: TrafficLog, scenario: AttackScenario) -> TrafficLog:
    """Cycle through the scenario's id_cycle in order, each frame carrying 8 bytes of 0xFF."""
    times = _schedule_us(scenario)
    cycle = np.asarray(scenario.id_cycle, dtype=np.int64)
    ids = cycle[np.arange(len(times)) % len(cycle)]
    injected = _frame_columns(times, ids, ids > MAX_STANDARD_ID, MAX_PAYLOAD_FUZZ_DATA,
                              _injected_channel(ambient))
    return _merge_labeled(ambient, injected, scenario.effective_class)


def _forged(spec: str, data: np.ndarray, dlc) -> tuple[np.ndarray, np.ndarray]:
    """Apply a checked payload spec to (n, 8) payloads and their lengths:
    fixed nibbles override the data, whose length grows to reach the last
    fixed byte."""
    mask, value, need = _pattern_bytes(_pattern_cells([spec]))
    return data & ~mask | value, np.maximum(dlc, need)


def inject_fabrication(ambient: TrafficLog, scenario: AttackScenario) -> TrafficLog:
    """Flam delivery: one forged frame right after each legitimate target frame.

    The forged frame reuses the legitimate frame's payload except at the
    nibbles fixed by the scenario's payload_spec, and sits one timestamp
    quantum later, so only the target signal changes and only a single
    frame is added per legitimate message.
    """
    start_us, end_us = _interval_us(scenario)
    rows = np.flatnonzero((ambient.can_id == scenario.target_id) & (ambient.ts_us >= start_us)
                          & (ambient.ts_us <= end_us))
    injected = ambient._columns(rows)
    data, dlc = _forged(scenario.payload_spec, injected["data"], injected["dlc"])
    injected.update(ts_us=injected["ts_us"] + FLAM_DELAY_US, data=data, dlc=dlc)
    return _merge_labeled(ambient, injected, scenario.effective_class)


def inject_masquerade(ambient: TrafficLog, scenario: AttackScenario) -> TrafficLog:
    """Masquerade: fabrication, then each legitimate target frame that a flam follows is dropped.

    The injected frames stay (still attack-labeled) and keep their flam
    timestamps, so the target id's rate and timing match the ambient capture
    to within the flam delay.
    """
    fabricated = inject_fabrication(ambient, scenario)
    start_us, end_us = _interval_us(scenario)
    target = np.flatnonzero(fabricated.can_id == scenario.target_id)
    attack = fabricated.attack_flags()[target]
    ts = fabricated.ts_us[target]
    flam = attack[1:] & ~attack[:-1] & (ts[1:] >= start_us) & (ts[1:] <= end_us + FLAM_DELAY_US)
    kept = np.ones(len(fabricated), dtype=bool)
    kept[target[:-1][flam]] = False
    return TrafficLog._from_columns(**fabricated._columns(kept), channels=fabricated.channels,
                                    label=fabricated.label[kept], label_space=fabricated.label_space)


# ---------------------------------------------------------------------------
# Scenario files and sidecar metadata

# Each scenario kind: its injector, default class, and default period (None:
# the kind takes no period, or fuzzing_max_payload's, which the scenario gives).
_KIND_TABLE = {
    "dos": (inject_dos, DOS_CLASS, DOS_PERIOD_S),
    "fuzzy": (inject_fuzzy, FUZZY_CLASS, FUZZY_PERIOD_S),
    "targeted_spoof": (inject_targeted_spoof, SPOOF_CLASS, SPOOF_PERIOD_S),
    "fuzzing_max_payload": (inject_fuzzing_max_payload, MAX_PAYLOAD_FUZZ_CLASS, None),
    "fabrication": (inject_fabrication, FABRICATION_CLASS, None),
    "masquerade": (inject_masquerade, MASQUERADE_CLASS, None),
}
SCENARIO_KINDS = tuple(_KIND_TABLE)


# Each field is read by its rule here, so a scenario that reads can run.
_SCENARIO_FIELDS = dict(
    kind="text", interval="list of number in [0, int64 us)", target_id="id or null",
    payload="hex of up to 8 bytes or null", payload_spec="pattern or null",
    period="number rounding to [1 us, int64 us) or null", id_cycle="list of id", seed="seed",
    extended_ids="flag", attack_class="text other than Normal or null")


@dataclass(frozen=True)
class AttackScenario:
    """Declarative description of one injection campaign."""

    kind: str
    interval: tuple[float, float]
    target_id: int | None = None
    payload: bytes | None = None
    payload_spec: str | None = None
    period: float | None = None
    id_cycle: tuple[int, ...] = ()
    seed: int = 0
    extended_ids: bool = False
    attack_class: str | None = None

    def __post_init__(self):
        _read_fields(self, "scenario", **_SCENARIO_FIELDS)
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if len(self.interval) != 2 or self.interval[0] > self.interval[1]:
            raise ValueError(f"scenario interval {self.interval!r} is not [start, end]")
        if self.kind in ("targeted_spoof", "fabrication", "masquerade") and self.target_id is None:
            raise ValueError(f"scenario kind {self.kind!r} requires target_id")
        if self.kind == "targeted_spoof" and self.payload is None:
            raise ValueError("targeted_spoof requires a payload")
        if self.kind in ("fabrication", "masquerade") and self.payload_spec is None:
            raise ValueError(f"scenario kind {self.kind!r} requires payload_spec")
        if self.kind == "fuzzing_max_payload" and (not self.id_cycle or self.period is None):
            raise ValueError("fuzzing_max_payload requires id_cycle and period")

    @property
    def effective_period(self) -> float | None:
        return self.period if self.period is not None else _KIND_TABLE[self.kind][2]

    @property
    def effective_class(self) -> str:
        return self.attack_class or _KIND_TABLE[self.kind][1]

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind, "interval": list(self.interval), "seed": self.seed}
        if self.target_id is not None:
            obj["target_id"] = f"{self.target_id:03X}"
        if self.payload is not None:
            obj["payload"] = self.payload.hex().upper()
        if self.payload_spec is not None:
            obj["payload_spec"] = self.payload_spec
        if self.period is not None:
            obj["period"] = self.period
        if self.id_cycle:
            obj["id_cycle"] = [f"{i:03X}" for i in self.id_cycle]
        if self.extended_ids:
            obj["extended_ids"] = True
        if self.attack_class is not None:
            obj["attack_class"] = self.attack_class
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AttackScenario":
        """The scenario a JSON object describes; a malformed one raises
        ValueError naming the field."""
        _require_fields(obj, ("kind", "interval"), "scenario")
        return cls(**_present_fields(obj, "scenario", **_SCENARIO_FIELDS))


def load_scenario(stream: IO[str]) -> AttackScenario:
    return AttackScenario.from_json_obj(json.load(stream))


def save_scenario(scenario: AttackScenario, stream: IO[str]) -> None:
    json.dump(scenario.to_json_obj(), stream, indent=2)
    stream.write("\n")


def run_scenario(ambient: TrafficLog, scenario: AttackScenario) -> TrafficLog:
    """Apply a scenario to ambient traffic, returning the labeled log."""
    if len(ambient) and not ambient.ts_us[0] <= to_us(scenario.interval[0]) <= ambient.ts_us[-1]:
        raise ValueError(
            f"scenario interval starts at {scenario.interval[0]}s, outside the ambient span"
        )
    return _KIND_TABLE[scenario.kind][0](ambient, scenario)


def sidecar_metadata(scenario: AttackScenario, labeled: TrafficLog) -> Sequence[AttackMetadata]:
    """Build labeling metadata that reproduces the construction labels, as a
    read-only sequence (a list before 0.2.0).

    Most kinds need one entry (interval + id + payload pattern), fabrication
    and masquerade one per id format of their target in the interval; fuzzy
    gets one exact entry per injected frame, from the log's columns, since
    no single pattern separates its random frames from ambient traffic. The
    entries are only as discriminative as the scenario is against the
    ambient model: an ambient frame that matches the attack's id, interval,
    and pattern would be labeled as attack on replay.
    """
    start_us, end_us = _interval_us(scenario)
    kind, cls = scenario.kind, scenario.effective_class
    if kind == "fuzzy":
        rows = np.flatnonzero(labeled.attack_flags())
        return _Campaigns(labeled.ts_us[rows].repeat(2).reshape(-1, 2),
                          np.zeros(len(rows), dtype=np.int64), [cls][:len(rows)],
                          labeled.can_id[rows].astype(np.int64), labeled.extended[rows],
                          _hex_cells(labeled.data[rows]) | _DATA_PAD.take(labeled.dlc[rows], axis=0))
    if kind == "dos":
        can_id, pattern = DOS_ID, DOS_DATA.hex()
    elif kind == "fuzzing_max_payload":
        can_id, pattern = None, MAX_PAYLOAD_FUZZ_DATA.hex()
    elif kind == "targeted_spoof":
        can_id, pattern = scenario.target_id, scenario.payload.hex()
    else:  # fabrication / masquerade: a flam frame sits one quantum past its legit frame, in its format
        can_id, pattern, end_us = scenario.target_id, scenario.payload_spec, end_us + FLAM_DELAY_US
        # The target value may come in both formats: one campaign for each found in the interval.
        target = (labeled.can_id == can_id) & (labeled.ts_us >= start_us) & (labeled.ts_us <= end_us)
        return _campaigns([AttackMetadata(start_us, end_us, cls, can_id, pattern, extended)
                           for extended in np.unique(labeled.extended[target]).tolist() or [None]])
    return _campaigns([AttackMetadata(start_us, end_us, cls, can_id, pattern)])
