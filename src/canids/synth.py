"""Ambient CAN traffic generation and attack injection.

The injectors reproduce six attack mechanics over an ambient log: bus-flood
DoS, random-id fuzzing, targeted spoofing, max-payload fuzzing with cycling
ids, fabrication (one forged frame flammed right after each legitimate target
frame), and the masquerade post-process that deletes the legitimate frame of
each flam pair. Every injector returns a fully labeled, time-sorted log and
is deterministic under a fixed seed.

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
import math
import numbers
import re
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from canids.core import (
    MAX_DLC,
    MAX_EXTENDED_ID,
    MAX_STANDARD_ID,
    TrafficLog,
    _require_fields,
    binary_label_space,
    to_us,
)
from canids.ingest import AttackMetadata, _pattern_bytes

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


def _field(what: str, obj: dict, name: str, convert, default=None):
    """obj[name] through `convert`, or `default` when the field is absent; a
    value that does not convert raises ValueError naming the field."""
    if name not in obj:
        return default
    try:
        return convert(obj[name])
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise ValueError(f"{what} field {name!r}: {exc}") from None


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _integer(value) -> int:
    if type(value) is not int:  # bool is an int subclass, and is refused too
        raise TypeError(f"{value!r} is not an integer")
    return value


def _flag(value) -> bool:
    if type(value) is not bool:
        raise TypeError(f"{value!r} is not true or false")
    return value


def _each(convert):
    """A converter of JSON lists, item by item."""
    def read(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError(f"{value!r} is not a list")
        return tuple(map(convert, value))
    return read


def _parse_id(value) -> int:
    """Ids in JSON configs may be ints or hex strings ("0D0")."""
    if isinstance(value, str) and re.fullmatch(r"[0-9A-Fa-f]{1,8}", value):
        value = int(value, 16)
    if type(value) is not int or not 0 <= value <= MAX_EXTENDED_ID:
        raise ValueError(f"id {value!r} is neither hex text nor an int in the 29-bit space")
    return value


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


@dataclass(frozen=True)
class PayloadModel:
    """Per-id payload evolution: constant bytes, bounded random walk, or counters."""

    kind: str = "constant"  # constant | random_walk | counter
    base: bytes = b"\x00" * 8
    step: int = 1
    positions: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("constant", "random_walk", "counter"):
            raise ValueError(f"unknown payload model {self.kind!r}")
        if len(self.base) > MAX_DLC:
            raise ValueError("payload base exceeds 8 bytes")
        if any(not 0 <= p < len(self.base) for p in self.positions):
            raise ValueError("counter position outside the payload")
        if (isinstance(self.step, bool) or not isinstance(self.step, numbers.Integral)
                or not 0 <= self.step <= _MAX_WALK_STEP):
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
        return cls(
            kind=obj.get("kind", "constant"),
            base=_field("payload", obj, "base", bytes.fromhex, b"\x00" * 8),
            step=_field("payload", obj, "step", _integer, 1),
            positions=_field("payload", obj, "positions", _each(_integer), ()),
        )


@dataclass(frozen=True)
class AmbientIdSpec:
    can_id: int
    period: float
    jitter_std: float = 0.0
    payload: PayloadModel = field(default_factory=PayloadModel)
    extended: bool = False

    def __post_init__(self):
        if not 0 < self.period < math.inf:
            raise ValueError("ambient period must be positive and finite")
        if not 0 <= self.jitter_std < math.inf:
            raise ValueError("jitter_std must be non-negative and finite")


@dataclass(frozen=True)
class AmbientModel:
    """Declarative surrogate for an ambient capture: periodic per-id schedules."""

    ids: tuple[AmbientIdSpec, ...]
    duration: float
    seed: int = 0
    channel: str = "can0"

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")
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
        for k, e in enumerate(_field("ambient model", obj, "ids", list)):
            where = f"ambient id entry {k}"
            _require_fields(e, ("id", "period"), where)
            ids.append(AmbientIdSpec(
                can_id=_field(where, e, "id", _parse_id),
                period=_field(where, e, "period", float),
                jitter_std=_field(where, e, "jitter_std", float, 0.0),
                payload=_field(where, e, "payload", PayloadModel.from_json_obj, PayloadModel()),
                extended=_field(where, e, "extended", _flag, False),
            ))
        return cls(
            ids=tuple(ids),
            duration=_field("ambient model", obj, "duration", float),
            seed=_field("ambient model", obj, "seed", _integer, 0),
            channel=_field("ambient model", obj, "channel", _text, "can0"),
        )


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
            times = times + np.rint(rng.normal(0.0, spec.jitter_std * 1e6, count)).astype(np.int64)
            times = np.sort(times)
            times = times[(times >= 0) & (times < duration_us)]
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

def _interval_us(interval: Sequence[float]) -> tuple[int, int]:
    start_us, end_us = to_us(interval[0]), to_us(interval[1])
    if start_us > end_us:
        raise ValueError("injection interval start exceeds end")
    return start_us, end_us


def _schedule_us(start_us: int, end_us: int, period: float) -> np.ndarray:
    """Periodic injection times in [start, end); an empty interval injects nothing."""
    period_us = to_us(period)
    if period_us <= 0:
        raise ValueError("injection period must be positive")
    if end_us <= start_us:
        return np.empty(0, dtype=np.int64)
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


def inject_dos(
    ambient: TrafficLog,
    interval: Sequence[float],
    period: float = DOS_PERIOD_S,
    attack_class: str = DOS_CLASS,
) -> TrafficLog:
    """Flood the bus with the all-dominant id 0x000 and a zero payload.

    Injections are spaced `period` apart (0.3 ms by default) inside the
    interval; every injected frame wins arbitration against any ambient frame
    with a nonzero id.
    """
    start_us, end_us = _interval_us(interval)
    injected = _frame_columns(_schedule_us(start_us, end_us, period), 0x000, False,
                              b"\x00" * 8, _injected_channel(ambient))
    return _merge_labeled(ambient, injected, attack_class)


def inject_fuzzy(
    ambient: TrafficLog,
    interval: Sequence[float],
    period: float = FUZZY_PERIOD_S,
    seed: int = 0,
    extended_ids: bool = False,
    attack_class: str = FUZZY_CLASS,
) -> TrafficLog:
    """Inject frames with uniformly random ids and 8 random data bytes.

    Ids are drawn from the 11-bit space by default; pass extended_ids=True
    for the full 29-bit space.
    """
    start_us, end_us = _interval_us(interval)
    times = _schedule_us(start_us, end_us, period)
    rng = np.random.default_rng([seed, 0xF022])
    id_limit = MAX_EXTENDED_ID if extended_ids else MAX_STANDARD_ID
    ids = rng.integers(0, id_limit + 1, size=len(times))
    payloads = rng.integers(0, 256, size=(len(times), 8), dtype=np.uint8)
    injected = _frame_columns(times, ids, extended_ids, payloads, _injected_channel(ambient))
    return _merge_labeled(ambient, injected, attack_class)


def inject_targeted_spoof(
    ambient: TrafficLog,
    target_id: int,
    payload: bytes,
    interval: Sequence[float],
    period: float = SPOOF_PERIOD_S,
    attack_class: str = SPOOF_CLASS,
) -> TrafficLog:
    """Inject a fixed spoofed id/payload pair periodically (1 ms by default)."""
    start_us, end_us = _interval_us(interval)
    injected = _frame_columns(_schedule_us(start_us, end_us, period), target_id,
                              target_id > MAX_STANDARD_ID, bytes(payload),
                              _injected_channel(ambient))
    return _merge_labeled(ambient, injected, attack_class)


def inject_fuzzing_max_payload(
    ambient: TrafficLog,
    interval: Sequence[float],
    id_cycle: Sequence[int],
    period: float,
    attack_class: str = MAX_PAYLOAD_FUZZ_CLASS,
) -> TrafficLog:
    """Cycle through `id_cycle` in order, each frame carrying 8 bytes of 0xFF."""
    if not id_cycle:
        raise ValueError("id_cycle must be nonempty")
    start_us, end_us = _interval_us(interval)
    times = _schedule_us(start_us, end_us, period)
    ids = np.asarray(id_cycle, dtype=np.int64)[np.arange(len(times)) % len(id_cycle)]
    injected = _frame_columns(times, ids, ids > MAX_STANDARD_ID, b"\xff" * 8,
                              _injected_channel(ambient))
    return _merge_labeled(ambient, injected, attack_class)


def _forged(spec: str, data: np.ndarray, dlc) -> tuple[np.ndarray, np.ndarray]:
    """Apply a checked payload spec to (n, 8) payloads and their lengths:
    fixed nibbles override the data, whose length grows to reach the last
    fixed byte."""
    mask, value, need = _pattern_bytes([AttackMetadata(0, 0, "", pattern=spec).pattern])
    return data & ~mask | value, np.maximum(dlc, need)


def apply_payload_spec(spec: str, legit: bytes) -> bytes:
    """Build a forged payload: 'X' nibbles copy the legitimate frame, hex nibbles override."""
    data, dlc = _forged(spec, np.frombuffer(legit.ljust(MAX_DLC, b"\0"), np.uint8), len(legit))
    return data[0, :dlc[0]].tobytes()


def inject_fabrication(
    ambient: TrafficLog,
    target_id: int,
    payload_spec: str,
    interval: Sequence[float],
    attack_class: str = FABRICATION_CLASS,
) -> TrafficLog:
    """Flam delivery: one forged frame right after each legitimate target frame.

    The forged frame reuses the legitimate frame's payload except at the
    nibbles fixed by payload_spec, and sits one timestamp quantum later, so
    only the target signal changes and only a single frame is added per
    legitimate message.
    """
    start_us, end_us = _interval_us(interval)
    rows = np.flatnonzero((ambient.can_id == target_id) & (ambient.ts_us >= start_us)
                          & (ambient.ts_us <= end_us))
    injected = ambient._columns(rows)
    data, dlc = _forged(payload_spec, injected["data"], injected["dlc"])
    injected.update(ts_us=injected["ts_us"] + FLAM_DELAY_US, data=data, dlc=dlc)
    return _merge_labeled(ambient, injected, attack_class)


def to_masquerade(
    fabricated: TrafficLog,
    target_id: int,
    interval: Sequence[float],
) -> TrafficLog:
    """Masquerade post-process: drop each legitimate target frame that a flam follows.

    Input must come from inject_fabrication with the same target/interval.
    The injected frames stay (still attack-labeled) and keep their flam
    timestamps, so the target id's rate and timing match the ambient capture
    to within the flam delay.
    """
    start_us, end_us = _interval_us(interval)
    target = np.flatnonzero(fabricated.can_id == target_id)
    attack = fabricated.attack_flags()[target]
    ts = fabricated.ts_us[target]
    flam = attack[1:] & ~attack[:-1] & (ts[1:] >= start_us) & (ts[1:] <= end_us + FLAM_DELAY_US)
    kept = np.ones(len(fabricated), dtype=bool)
    kept[target[:-1][flam]] = False
    return TrafficLog._from_columns(**fabricated._columns(kept), channels=fabricated.channels,
                                    label=fabricated.label[kept], label_space=fabricated.label_space)


# ---------------------------------------------------------------------------
# Scenario files and sidecar metadata

SCENARIO_KINDS = ("dos", "fuzzy", "targeted_spoof", "fuzzing_max_payload", "fabrication", "masquerade")

_DEFAULT_CLASS = {
    "dos": DOS_CLASS,
    "fuzzy": FUZZY_CLASS,
    "targeted_spoof": SPOOF_CLASS,
    "fuzzing_max_payload": MAX_PAYLOAD_FUZZ_CLASS,
    "fabrication": FABRICATION_CLASS,
    "masquerade": MASQUERADE_CLASS,
}

_DEFAULT_PERIOD = {"dos": DOS_PERIOD_S, "fuzzy": FUZZY_PERIOD_S, "targeted_spoof": SPOOF_PERIOD_S}


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
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if len(self.interval) != 2 or not -math.inf < self.interval[0] <= self.interval[1] < math.inf:
            raise ValueError(f"scenario interval {self.interval!r} is not a finite [start, end]")
        if self.kind in ("targeted_spoof", "fabrication", "masquerade") and self.target_id is None:
            raise ValueError(f"scenario kind {self.kind!r} requires target_id")
        if self.kind == "targeted_spoof" and self.payload is None:
            raise ValueError("targeted_spoof requires a payload")
        if self.kind in ("fabrication", "masquerade") and self.payload_spec is None:
            raise ValueError(f"scenario kind {self.kind!r} requires payload_spec")
        if self.kind == "fuzzing_max_payload" and (not self.id_cycle or self.period is None):
            raise ValueError("fuzzing_max_payload requires id_cycle and period")
        if self.period is not None and not 0 < self.period < math.inf:
            raise ValueError("period must be positive and finite")

    @property
    def effective_period(self) -> float | None:
        return self.period if self.period is not None else _DEFAULT_PERIOD.get(self.kind)

    @property
    def effective_class(self) -> str:
        return self.attack_class or _DEFAULT_CLASS[self.kind]

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
        return cls(
            kind=obj["kind"],
            interval=_field("scenario", obj, "interval", _each(float)),
            target_id=_field("scenario", obj, "target_id", _parse_id),
            payload=_field("scenario", obj, "payload", bytes.fromhex),
            payload_spec=_field("scenario", obj, "payload_spec", _text),
            period=_field("scenario", obj, "period", float),
            id_cycle=_field("scenario", obj, "id_cycle", _each(_parse_id), ()),
            seed=_field("scenario", obj, "seed", _integer, 0),
            extended_ids=_field("scenario", obj, "extended_ids", _flag, False),
            attack_class=_field("scenario", obj, "attack_class", _text),
        )


def load_scenario(stream: IO[str]) -> AttackScenario:
    return AttackScenario.from_json_obj(json.load(stream))


def save_scenario(scenario: AttackScenario, stream: IO[str]) -> None:
    json.dump(scenario.to_json_obj(), stream, indent=2)
    stream.write("\n")


def run_scenario(ambient: TrafficLog, scenario: AttackScenario) -> TrafficLog:
    """Apply a scenario to ambient traffic, returning the labeled log."""
    if len(ambient):
        start_us, _ = _interval_us(scenario.interval)
        if start_us < ambient.ts_us[0] or start_us > ambient.ts_us[-1]:
            raise ValueError(
                f"scenario interval starts at {scenario.interval[0]}s, outside the ambient span"
            )
    kind = scenario.kind
    cls = scenario.effective_class
    if kind == "dos":
        return inject_dos(ambient, scenario.interval, scenario.effective_period, attack_class=cls)
    if kind == "fuzzy":
        return inject_fuzzy(
            ambient, scenario.interval, scenario.effective_period,
            seed=scenario.seed, extended_ids=scenario.extended_ids, attack_class=cls,
        )
    if kind == "targeted_spoof":
        return inject_targeted_spoof(
            ambient, scenario.target_id, scenario.payload, scenario.interval,
            scenario.effective_period, attack_class=cls,
        )
    if kind == "fuzzing_max_payload":
        return inject_fuzzing_max_payload(
            ambient, scenario.interval, scenario.id_cycle, scenario.period, attack_class=cls
        )
    if kind == "fabrication":
        return inject_fabrication(
            ambient, scenario.target_id, scenario.payload_spec, scenario.interval, attack_class=cls
        )
    # masquerade: fabricate, then remove the legitimate halves of the flam pairs
    fabricated = inject_fabrication(
        ambient, scenario.target_id, scenario.payload_spec, scenario.interval, attack_class=cls
    )
    return to_masquerade(fabricated, scenario.target_id, scenario.interval)


def sidecar_metadata(scenario: AttackScenario, labeled: TrafficLog) -> list[AttackMetadata]:
    """Build labeling metadata that reproduces the construction labels.

    Most kinds need a single entry (interval + id + payload pattern); the
    random-content fuzzy attack gets one exact entry per injected frame since
    no single pattern separates its frames from ambient traffic. The entries
    are only as discriminative as the scenario is against the ambient model:
    an ambient frame that matches the attack's id, interval, and pattern
    would be labeled as attack on replay.
    """
    start_us, end_us = _interval_us(scenario.interval)
    cls = scenario.effective_class
    kind = scenario.kind
    if kind == "dos":
        return [AttackMetadata(start_us, end_us, can_id=0x000, pattern="0" * 16, attack_class=cls)]
    if kind == "fuzzy":
        rows = np.flatnonzero(labeled.attack_flags())
        payloads = labeled.data[rows].tobytes().hex().upper()
        return [
            AttackMetadata(ts, ts, can_id=can_id, pattern=payloads[16 * k:16 * k + 2 * dlc],
                           attack_class=cls)
            for k, (ts, can_id, dlc) in enumerate(zip(
                labeled.ts_us[rows].tolist(), labeled.can_id[rows].tolist(),
                labeled.dlc[rows].tolist()))
        ]
    if kind == "targeted_spoof":
        return [
            AttackMetadata(
                start_us, end_us, can_id=scenario.target_id,
                pattern=scenario.payload.hex().upper(), attack_class=cls,
            )
        ]
    if kind == "fuzzing_max_payload":
        return [AttackMetadata(start_us, end_us, can_id=None, pattern="F" * 16, attack_class=cls)]
    # fabrication / masquerade: the flam frame sits one quantum past a legit
    # frame at the interval edge, so the matching window extends by that much
    return [
        AttackMetadata(
            start_us, end_us + FLAM_DELAY_US,
            can_id=scenario.target_id, pattern=scenario.payload_spec.upper(), attack_class=cls,
        )
    ]
