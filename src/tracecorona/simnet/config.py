"""Scenario configuration: schema, parsing, validation.

Configs are versioned JSON documents.  Each dataclass below is the only
schema of its JSON object: its field names are the keys, its defaults
the defaults and its annotations the accepted types.  Parsing checks
shape and type only; ``validate`` checks values and cross-references
and runs from ``ScenarioConfig.__post_init__``, so ``from_dict``,
``replace`` and direct construction check the same things.  Errors
carry the path of the offending field (``devices[1].id``) so the CLI
can point at it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import types
import typing
from dataclasses import dataclass, field

# the package holds both, so the command line reads them without this module
from . import SCHEMES, ConfigError

MAX_RELAY_FANOUT = 8

SECONDS_PER_DAY = 86400

_RELAY_REQUIRED = ("capture", "victims", "start", "end")
#: Per adversary kind, the keys its JSON object must have, the optional
#: keys that ``to_dict`` writes back, and the keys it accepts but does not write.
_ADVERSARY_KEYS = {
    "relay_oneway": (_RELAY_REQUIRED, ("latency_s", "emit_rssi"), ("fanout_limit",)),
    "relay_twoway": (_RELAY_REQUIRED, ("latency_s", "emit_rssi", "fanout_limit"), ()),
    "eavesdropper": (("sensors",), (), ()),
    "fake_claimer": ((), ("attempts", "at_day"), ()),
}
ADVERSARY_KINDS = tuple(_ADVERSARY_KEYS)


def _require(condition: bool, path: str, problem: str) -> None:
    if not condition:
        raise ConfigError(path, problem)


def _require_clocks_started(config: "ScenarioConfig", start: int, devices) -> None:
    """Devices advertise and scan from ``start`` on, so the local clock of
    each must have reached 0 by then: frame indices are unsigned."""
    for device in devices:
        _require(
            start + config._clock_offsets[device] >= 0,
            "start",
            f"starts before the local clock of device {device!r} reaches 0",
        )


def _each(function, items, name: str = "") -> list:
    """``function`` of each item; an error's path names the item ``name[i]``."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(function(item))
        except ConfigError as exc:
            raise exc.within(f"{name}[{i}]") from None
    return out


# -- JSON codecs ---------------------------------------------------------------
#
# A codec is a (parse, dump) pair.  ``parse`` takes a JSON value and returns
# the stored one, raising ConfigError with a path relative to the value;
# ``dump`` inverts it.  Each class's codecs are built once, from its
# annotations, because reading them per object is several times slower.


def _same(value):
    return value


def _is(value, accepted) -> bool:
    """``isinstance``, except that JSON ``true`` and ``false`` are not numbers."""
    return isinstance(value, accepted) and (type(value) is not bool or accepted is bool)


def _scalar(tp: type):
    accepted = (int, float) if tp is float else tp
    convert = float if tp is float else _same

    def parse(value):
        if not _is(value, accepted):
            raise ConfigError("", f"expected {tp.__name__}, got {type(value).__name__}")
        return convert(value)

    return parse, _same


def _items(codec):
    """A tuple stored from a JSON list."""
    parse_item, dump_item = codec
    parse_list = _scalar(list)[0]
    return (
        lambda values: tuple(_each(parse_item, parse_list(values))),
        lambda values: list(map(dump_item, values)),
    )


def _codec(tp):
    if dataclasses.is_dataclass(tp):
        return functools.partial(_read, tp), _schema(tp)[1]
    if typing.get_origin(tp) is tuple:
        return _items(_codec(typing.get_args(tp)[0]))
    if typing.get_origin(tp) is types.UnionType:  # T | None
        parse, dump = _codec(typing.get_args(tp)[0])
        return (lambda value: None if value is None else parse(value)), dump
    return _scalar(tp)


@functools.cache
def _schema(cls) -> tuple[dict, typing.Callable, list]:
    """The parser of each field, the serializer, and the required fields."""
    hints = typing.get_type_hints(cls)
    parsers, dumpers, required = {}, {}, []
    for f in dataclasses.fields(cls):
        parsers[f.name], dumpers[f.name] = f.metadata.get("codec") or _codec(hints[f.name])
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            required.append(f.name)

    def write(o):
        return {name: dump(getattr(o, name)) for name, dump in dumpers.items()}

    return parsers, write, required


def _read(cls, data):
    """Build ``cls`` from a JSON object after checking its keys and types."""
    if not isinstance(data, dict):
        raise ConfigError("", "must be an object")
    parsers, _, required = _schema(cls)
    kwargs = {}
    for key, value in data.items():
        parse = parsers.get(key)
        if parse is None:
            raise ConfigError(key, "unknown field")
        try:
            kwargs[key] = parse(value)
        except ConfigError as exc:
            raise exc.within(key) from None
    for name in required:
        if name not in kwargs:
            raise ConfigError(name, "missing required field")
    return cls(**kwargs)


def _parse_profile(value):
    if isinstance(value, list):
        segments = []
        for j, seg in enumerate(value):
            if not (
                isinstance(seg, list)
                and len(seg) == 2
                and _is(seg[0], int)
                and _is(seg[1], (int, float))
            ):
                raise ConfigError(f"[{j}]", "must be [offset_seconds, dbm]")
            segments.append((seg[0], float(seg[1])))
        return tuple(segments)
    if not _is(value, (int, float)):
        raise ConfigError("", f"expected float or list, got {type(value).__name__}")
    return float(value)


def _dump_profile(profile):
    return [list(seg) for seg in profile] if isinstance(profile, tuple) else profile


@dataclass(frozen=True)
class DiseaseTimeline:
    """Delays, in days, along the infection-to-notification pipeline."""

    incubation_to_contagious_days: int = 3
    contagious_to_symptoms_days: int = 2
    symptoms_to_test_days: int = 2
    test_to_result_days: int = 1

    def validate(self, config: "ScenarioConfig") -> None:
        for name in (
            "incubation_to_contagious_days",
            "symptoms_to_test_days",
            "test_to_result_days",
        ):
            _require(getattr(self, name) >= 0, name, "must be >= 0")
        _require(
            self.contagious_to_symptoms_days in (1, 2),
            "contagious_to_symptoms_days",
            "must be 1 or 2",
        )


@dataclass(frozen=True)
class DeviceSpec:
    id: str
    clock_offset_s: int = 0
    scheme: str | None = None
    derive_mode: str = "eager"

    def validate(self, config: "ScenarioConfig") -> None:
        if self.scheme is not None and self.scheme not in SCHEMES:
            raise ConfigError("scheme", f"must be one of {SCHEMES}")
        _require(
            self.derive_mode in ("eager", "deferred"),
            "derive_mode",
            "must be 'eager' or 'deferred'",
        )


@dataclass(frozen=True)
class ColocationInterval:
    device_a: str
    device_b: str
    start: int
    end: int
    #: constant dBm, or piecewise segments [[offset_from_start, dbm], ...]
    rssi_profile: float | tuple = field(
        default=-55.0, metadata={"codec": (_parse_profile, _dump_profile)}
    )

    def validate(self, config: "ScenarioConfig") -> None:
        schemes = config._schemes
        _require(self.device_a in schemes, "device_a", "unknown device id")
        _require(self.device_b in schemes, "device_b", "unknown device id")
        _require(self.device_a != self.device_b, "device_b", "devices must differ")
        _require(0 <= self.start < self.end, "end", "interval must satisfy 0 <= start < end")
        _require_clocks_started(config, self.start, (self.device_a, self.device_b))
        _require(
            self.end <= config.duration_days * SECONDS_PER_DAY,
            "end",
            "interval extends past scenario duration",
        )
        _require(
            schemes[self.device_a] == schemes[self.device_b],
            "device_b",
            "co-located devices must run the same scheme",
        )
        if isinstance(self.rssi_profile, tuple):
            _require(len(self.rssi_profile) > 0, "rssi_profile", "must not be empty")
            previous = -1
            for j, (offset, _dbm) in enumerate(self.rssi_profile):
                if offset <= previous:
                    raise ConfigError(
                        f"rssi_profile[{j}]", "offsets must be strictly increasing"
                    )
                previous = offset
            _require(
                self.rssi_profile[0][0] == 0,
                "rssi_profile[0]",
                "first segment must start at offset 0",
            )


@dataclass(frozen=True)
class SensorCoverage:
    id: str
    device: str
    start: int
    end: int

    def validate(self, config: "ScenarioConfig") -> None:
        _require(self.device in config._schemes, "device", "unknown device id")
        _require(0 <= self.start < self.end, "end", "window must satisfy 0 <= start < end")
        _require_clocks_started(config, self.start, (self.device,))


@dataclass(frozen=True)
class AdversarySpec:
    kind: str
    capture: str | None = None
    victims: tuple[str, ...] = ()
    start: int = 0
    end: int = 0
    latency_s: int = 0
    fanout_limit: int = MAX_RELAY_FANOUT
    emit_rssi: float = -55.0
    sensors: tuple[SensorCoverage, ...] = ()
    attempts: int = 10000
    at_day: int | None = None

    def validate(self, config: "ScenarioConfig") -> None:
        _require(self.kind in ADVERSARY_KINDS, "kind", f"must be one of {ADVERSARY_KINDS}")
        if self.kind in ("relay_oneway", "relay_twoway"):
            schemes = config._schemes
            _require(self.capture in schemes, "capture", "unknown device id")
            _require(len(self.victims) > 0, "victims", "must not be empty")
            for j, victim in enumerate(self.victims):
                _require(victim in schemes, f"victims[{j}]", "unknown device id")
                _require(victim != self.capture, f"victims[{j}]", "victim equals capture")
                _require(
                    schemes[self.capture] == schemes[victim],
                    f"victims[{j}]",
                    "relay endpoints must run the same scheme",
                )
            _require(0 <= self.start < self.end, "end", "window must satisfy 0 <= start < end")
            _require_clocks_started(config, self.start, (self.capture, *self.victims))
            _require(self.latency_s >= 0, "latency_s", "must be >= 0")
            _require(
                1 <= self.fanout_limit <= MAX_RELAY_FANOUT,
                "fanout_limit",
                f"must be between 1 and {MAX_RELAY_FANOUT}",
            )
        elif self.kind == "eavesdropper":
            _require(len(self.sensors) > 0, "sensors", "must not be empty")
            _each(lambda sensor: sensor.validate(config), self.sensors, "sensors")
        else:  # fake_claimer
            _require(self.attempts > 0, "attempts", "must be positive")
            _require(
                config.scheme in ("tracecorona", "decentralized"),
                "kind",
                "fake_claimer requires scheme tracecorona or decentralized",
            )
            if self.at_day is not None:
                _require(
                    0 <= self.at_day < config.duration_days,
                    "at_day",
                    "must be within scenario duration",
                )


def _parse_adversary(data) -> AdversarySpec:
    adversary = _read(AdversarySpec, data)
    keys = _ADVERSARY_KEYS.get(adversary.kind)
    if keys is not None:  # an unknown kind is reported by validate
        required, written, dropped = keys
        for key in data:
            if key != "kind" and key not in required + written + dropped:
                raise ConfigError(key, "unknown field")
        for key in required:
            if key not in data:
                raise ConfigError(key, "missing required field")
    return adversary


def _dump_adversary(adversary: AdversarySpec) -> dict:
    required, written, _ = _ADVERSARY_KEYS[adversary.kind]
    out = _schema(AdversarySpec)[1](adversary)
    return {key: out[key] for key in ("kind", *required, *written)}


@dataclass(frozen=True)
class InfectionSpec:
    device: str
    day: int

    def validate(self, config: "ScenarioConfig") -> None:
        _require(self.device in config._schemes, "device", "unknown device id")
        _require(self.day >= 0, "day", "must be >= 0")
        _require(self.day < config.duration_days, "day", "must be before scenario end")


@dataclass(frozen=True)
class RedactionSpec:
    """Tokens whose start time falls in [drop_start, drop_end) are
    withheld from that device's uploads."""

    device: str
    drop_start: int
    drop_end: int

    def validate(self, config: "ScenarioConfig") -> None:
        _require(self.device in config._schemes, "device", "unknown device id")
        _require(self.drop_start < self.drop_end, "drop_end", "must exceed drop_start")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    duration_days: int
    devices: tuple[DeviceSpec, ...]
    scheme: str = "tracecorona"
    colocation_schedule: tuple[ColocationInterval, ...] = ()
    adversaries: tuple[AdversarySpec, ...] = field(
        default=(), metadata={"codec": _items((_parse_adversary, _dump_adversary))}
    )
    infections: tuple[InfectionSpec, ...] = ()
    redactions: tuple[RedactionSpec, ...] = ()
    disease_timeline: DiseaseTimeline = field(default_factory=DiseaseTimeline)
    epsilon: int = 30
    frame_period: int = 900
    min_encounter_duration: int = 300
    feed_cadence: int = SECONDS_PER_DAY
    channel_loss: float = 0.1
    replay_window: int = 7200
    kiss_bug: bool = False
    second_level_enabled: bool = False
    superspreader_enabled: bool = True
    superspreader_threshold: int = 3
    bluetrace: bool = False
    retention_days: int = 14
    version: int = 1

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        return _read(cls, data)

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        _require(self.version == 1, "version", "unsupported config version")
        for name in ("duration_days", "superspreader_threshold", "retention_days"):
            _require(getattr(self, name) >= 1, name, "must be >= 1")
        _require(self.scheme in SCHEMES, "scheme", f"must be one of {SCHEMES}")
        _require(self.frame_period > 0, "frame_period", "must be positive")
        _require(
            0 < self.epsilon < self.frame_period,
            "epsilon",
            "must satisfy 0 < epsilon < frame_period",
        )
        _require(
            0 < self.min_encounter_duration <= self.frame_period,
            "min_encounter_duration",
            "must be in (0, frame_period]",
        )
        _require(
            self.feed_cadence >= 3600,
            "feed_cadence",
            "must be at least 3600 seconds",
        )
        _require(
            0.0 <= self.channel_loss < 1.0, "channel_loss", "must be in [0, 1)"
        )
        _require(self.replay_window >= 0, "replay_window", "must be >= 0")
        _require(len(self.devices) > 0, "devices", "must not be empty")
        schemes = {}
        for i, device in enumerate(self.devices):
            if device.id in schemes:
                raise ConfigError(f"devices[{i}].id", "duplicate device id")
            schemes[device.id] = device.scheme or self.scheme
        # Frozen, so the indices are set past __setattr__; they are not fields.
        object.__setattr__(self, "_schemes", schemes)
        object.__setattr__(
            self, "_clock_offsets", {d.id: d.clock_offset_s for d in self.devices}
        )
        try:
            self.disease_timeline.validate(self)
        except ConfigError as exc:
            raise exc.within("disease_timeline") from None
        for name in ("devices", "colocation_schedule", "adversaries", "infections", "redactions"):
            _each(lambda item: item.validate(self), getattr(self, name), name)

    def scheme_of(self, device_id: str) -> str:
        return self._schemes[device_id]

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return _schema(ScenarioConfig)[1](self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def replace(self, **changes) -> "ScenarioConfig":
        return dataclasses.replace(self, **changes)
