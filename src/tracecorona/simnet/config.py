"""Scenario configuration: schema, parsing, validation.

Configs are versioned JSON documents.  Validation errors carry the path
of the offending field (``devices[1].id``) so the CLI can point at it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

SCHEMES = ("tracecorona", "centralized", "decentralized")
ADVERSARY_KINDS = ("relay_oneway", "relay_twoway", "eavesdropper", "fake_claimer")
MAX_RELAY_FANOUT = 8

SECONDS_PER_DAY = 86400


class ConfigError(Exception):
    """Invalid scenario configuration; message starts with the field path."""

    def __init__(self, path: str, problem: str):
        self.path = path
        self.problem = problem
        super().__init__(f"{path}: {problem}")


def _require(condition: bool, path: str, problem: str) -> None:
    if not condition:
        raise ConfigError(path, problem)


def _get(d: dict, key: str, path: str, default=..., types=None, nullable=False):
    if key not in d:
        if default is ...:
            raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
        return default
    value = d[key]
    if nullable and value is None:
        return None
    if types is not None and not isinstance(value, types):
        raise ConfigError(
            f"{path}.{key}" if path else key,
            f"expected {getattr(types, '__name__', types)}, got {type(value).__name__}",
        )
    return value


def _reject_unknown(d: dict, known: set[str], path: str) -> None:
    for key in d:
        if key not in known:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown field")


@dataclass(frozen=True)
class DiseaseTimeline:
    """Delays, in days, along the infection-to-notification pipeline."""

    incubation_to_contagious_days: int = 3
    contagious_to_symptoms_days: int = 2
    symptoms_to_test_days: int = 2
    test_to_result_days: int = 1

    def validate(self, path: str) -> None:
        _require(
            self.incubation_to_contagious_days >= 0,
            f"{path}.incubation_to_contagious_days",
            "must be >= 0",
        )
        _require(
            self.contagious_to_symptoms_days in (1, 2),
            f"{path}.contagious_to_symptoms_days",
            "must be 1 or 2",
        )
        _require(
            self.symptoms_to_test_days >= 0,
            f"{path}.symptoms_to_test_days",
            "must be >= 0",
        )
        _require(
            self.test_to_result_days >= 0,
            f"{path}.test_to_result_days",
            "must be >= 0",
        )

    def to_dict(self) -> dict:
        return {
            "incubation_to_contagious_days": self.incubation_to_contagious_days,
            "contagious_to_symptoms_days": self.contagious_to_symptoms_days,
            "symptoms_to_test_days": self.symptoms_to_test_days,
            "test_to_result_days": self.test_to_result_days,
        }


@dataclass(frozen=True)
class DeviceSpec:
    id: str
    clock_offset_s: int = 0
    scheme: str | None = None
    derive_mode: str = "eager"

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "clock_offset_s": self.clock_offset_s,
            "scheme": self.scheme,
            "derive_mode": self.derive_mode,
        }


@dataclass(frozen=True)
class ColocationInterval:
    device_a: str
    device_b: str
    start: int
    end: int
    #: constant dBm, or piecewise segments [[offset_from_start, dbm], ...]
    rssi_profile: float | tuple = -55.0

    def rssi_at(self, t: int) -> float:
        if isinstance(self.rssi_profile, (int, float)):
            return float(self.rssi_profile)
        value = float(self.rssi_profile[0][1])
        for offset, dbm in self.rssi_profile:
            if self.start + offset <= t:
                value = float(dbm)
        return value

    def to_dict(self) -> dict:
        profile = self.rssi_profile
        if isinstance(profile, tuple):
            profile = [list(seg) for seg in profile]
        return {
            "device_a": self.device_a,
            "device_b": self.device_b,
            "start": self.start,
            "end": self.end,
            "rssi_profile": profile,
        }


@dataclass(frozen=True)
class SensorCoverage:
    sensor: str
    device: str
    start: int
    end: int

    def to_dict(self) -> dict:
        return {
            "sensor": self.sensor,
            "device": self.device,
            "start": self.start,
            "end": self.end,
        }


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

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind in ("relay_oneway", "relay_twoway"):
            d.update(
                capture=self.capture,
                victims=list(self.victims),
                start=self.start,
                end=self.end,
                latency_s=self.latency_s,
                emit_rssi=self.emit_rssi,
            )
            if self.kind == "relay_twoway":
                d["fanout_limit"] = self.fanout_limit
        elif self.kind == "eavesdropper":
            d["sensors"] = [s.to_dict() for s in self.sensors]
        elif self.kind == "fake_claimer":
            d.update(attempts=self.attempts, at_day=self.at_day)
        return d


@dataclass(frozen=True)
class InfectionSpec:
    device: str
    day: int

    def to_dict(self) -> dict:
        return {"device": self.device, "day": self.day}


@dataclass(frozen=True)
class RedactionSpec:
    """Tokens whose start time falls in [drop_start, drop_end) are
    withheld from that device's uploads."""

    device: str
    drop_start: int
    drop_end: int

    def to_dict(self) -> dict:
        return {
            "device": self.device,
            "drop_start": self.drop_start,
            "drop_end": self.drop_end,
        }


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    duration_days: int
    scheme: str = "tracecorona"
    devices: tuple[DeviceSpec, ...] = ()
    colocation_schedule: tuple[ColocationInterval, ...] = ()
    adversaries: tuple[AdversarySpec, ...] = ()
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

    # -- parsing -------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        _require(isinstance(data, dict), "", "config must be an object")
        known = {
            "version",
            "name",
            "seed",
            "scheme",
            "duration_days",
            "devices",
            "colocation_schedule",
            "adversaries",
            "infections",
            "redactions",
            "disease_timeline",
            "epsilon",
            "frame_period",
            "min_encounter_duration",
            "feed_cadence",
            "channel_loss",
            "replay_window",
            "kiss_bug",
            "second_level_enabled",
            "superspreader_enabled",
            "superspreader_threshold",
            "bluetrace",
            "retention_days",
        }
        _reject_unknown(data, known, "")
        version = _get(data, "version", "", default=1, types=int)
        _require(version == 1, "version", "unsupported config version")

        devices = tuple(
            cls._parse_device(entry, f"devices[{i}]")
            for i, entry in enumerate(_get(data, "devices", "", types=list))
        )
        ids = [d.id for d in devices]
        for i, device_id in enumerate(ids):
            _require(
                ids.index(device_id) == i, f"devices[{i}].id", "duplicate device id"
            )
        id_set = set(ids)

        schedule = tuple(
            cls._parse_interval(entry, f"colocation_schedule[{i}]", id_set)
            for i, entry in enumerate(
                _get(data, "colocation_schedule", "", default=[], types=list)
            )
        )
        adversaries = tuple(
            cls._parse_adversary(entry, f"adversaries[{i}]", id_set)
            for i, entry in enumerate(_get(data, "adversaries", "", default=[], types=list))
        )
        infections = tuple(
            cls._parse_infection(entry, f"infections[{i}]", id_set)
            for i, entry in enumerate(_get(data, "infections", "", default=[], types=list))
        )
        redactions = tuple(
            cls._parse_redaction(entry, f"redactions[{i}]", id_set)
            for i, entry in enumerate(_get(data, "redactions", "", default=[], types=list))
        )

        timeline_data = _get(data, "disease_timeline", "", default={}, types=dict)
        _reject_unknown(
            timeline_data,
            {
                "incubation_to_contagious_days",
                "contagious_to_symptoms_days",
                "symptoms_to_test_days",
                "test_to_result_days",
            },
            "disease_timeline",
        )
        timeline = DiseaseTimeline(
            incubation_to_contagious_days=_get(
                timeline_data, "incubation_to_contagious_days", "disease_timeline",
                default=3, types=int,
            ),
            contagious_to_symptoms_days=_get(
                timeline_data, "contagious_to_symptoms_days", "disease_timeline",
                default=2, types=int,
            ),
            symptoms_to_test_days=_get(
                timeline_data, "symptoms_to_test_days", "disease_timeline",
                default=2, types=int,
            ),
            test_to_result_days=_get(
                timeline_data, "test_to_result_days", "disease_timeline",
                default=1, types=int,
            ),
        )

        return cls(
            name=_get(data, "name", "", types=str),
            seed=_get(data, "seed", "", types=int),
            duration_days=_get(data, "duration_days", "", types=int),
            scheme=_get(data, "scheme", "", default="tracecorona", types=str),
            devices=devices,
            colocation_schedule=schedule,
            adversaries=adversaries,
            infections=infections,
            redactions=redactions,
            disease_timeline=timeline,
            epsilon=_get(data, "epsilon", "", default=30, types=int),
            frame_period=_get(data, "frame_period", "", default=900, types=int),
            min_encounter_duration=_get(
                data, "min_encounter_duration", "", default=300, types=int
            ),
            feed_cadence=_get(data, "feed_cadence", "", default=SECONDS_PER_DAY, types=int),
            channel_loss=_get(
                data, "channel_loss", "", default=0.1, types=(int, float)
            ),
            replay_window=_get(data, "replay_window", "", default=7200, types=int),
            kiss_bug=_get(data, "kiss_bug", "", default=False, types=bool),
            second_level_enabled=_get(
                data, "second_level_enabled", "", default=False, types=bool
            ),
            superspreader_enabled=_get(
                data, "superspreader_enabled", "", default=True, types=bool
            ),
            superspreader_threshold=_get(
                data, "superspreader_threshold", "", default=3, types=int
            ),
            bluetrace=_get(data, "bluetrace", "", default=False, types=bool),
            retention_days=_get(data, "retention_days", "", default=14, types=int),
            version=version,
        )

    @staticmethod
    def _parse_device(entry, path: str) -> DeviceSpec:
        _require(isinstance(entry, dict), path, "must be an object")
        _reject_unknown(entry, {"id", "clock_offset_s", "scheme", "derive_mode"}, path)
        scheme = _get(entry, "scheme", path, default=None, types=str, nullable=True)
        if scheme is not None:
            _require(scheme in SCHEMES, f"{path}.scheme", f"must be one of {SCHEMES}")
        derive_mode = _get(entry, "derive_mode", path, default="eager", types=str)
        _require(
            derive_mode in ("eager", "deferred"),
            f"{path}.derive_mode",
            "must be 'eager' or 'deferred'",
        )
        return DeviceSpec(
            id=_get(entry, "id", path, types=str),
            clock_offset_s=_get(entry, "clock_offset_s", path, default=0, types=int),
            scheme=scheme,
            derive_mode=derive_mode,
        )

    @staticmethod
    def _parse_interval(entry, path: str, ids: set[str]) -> ColocationInterval:
        _require(isinstance(entry, dict), path, "must be an object")
        _reject_unknown(
            entry, {"device_a", "device_b", "start", "end", "rssi_profile"}, path
        )
        a = _get(entry, "device_a", path, types=str)
        b = _get(entry, "device_b", path, types=str)
        _require(a in ids, f"{path}.device_a", "unknown device id")
        _require(b in ids, f"{path}.device_b", "unknown device id")
        _require(a != b, f"{path}.device_b", "devices must differ")
        start = _get(entry, "start", path, types=int)
        end = _get(entry, "end", path, types=int)
        _require(0 <= start < end, f"{path}.end", "interval must satisfy 0 <= start < end")
        profile = _get(entry, "rssi_profile", path, default=-55.0, types=(int, float, list))
        if isinstance(profile, list):
            _require(len(profile) > 0, f"{path}.rssi_profile", "must not be empty")
            previous = -1
            segments = []
            for j, seg in enumerate(profile):
                _require(
                    isinstance(seg, list)
                    and len(seg) == 2
                    and isinstance(seg[0], int)
                    and isinstance(seg[1], (int, float)),
                    f"{path}.rssi_profile[{j}]",
                    "must be [offset_seconds, dbm]",
                )
                _require(
                    seg[0] > previous,
                    f"{path}.rssi_profile[{j}]",
                    "offsets must be strictly increasing",
                )
                previous = seg[0]
                segments.append((seg[0], float(seg[1])))
            _require(
                segments[0][0] == 0,
                f"{path}.rssi_profile[0]",
                "first segment must start at offset 0",
            )
            profile = tuple(segments)
        else:
            profile = float(profile)
        return ColocationInterval(
            device_a=a, device_b=b, start=start, end=end, rssi_profile=profile
        )

    @staticmethod
    def _parse_adversary(entry, path: str, ids: set[str]) -> AdversarySpec:
        _require(isinstance(entry, dict), path, "must be an object")
        kind = _get(entry, "kind", path, types=str)
        _require(kind in ADVERSARY_KINDS, f"{path}.kind", f"must be one of {ADVERSARY_KINDS}")
        if kind in ("relay_oneway", "relay_twoway"):
            allowed = {
                "kind", "capture", "victims", "start", "end", "latency_s",
                "emit_rssi", "fanout_limit",
            }
            _reject_unknown(entry, allowed, path)
            capture = _get(entry, "capture", path, types=str)
            _require(capture in ids, f"{path}.capture", "unknown device id")
            victims = _get(entry, "victims", path, types=list)
            _require(len(victims) > 0, f"{path}.victims", "must not be empty")
            for j, victim in enumerate(victims):
                _require(
                    isinstance(victim, str) and victim in ids,
                    f"{path}.victims[{j}]",
                    "unknown device id",
                )
                _require(victim != capture, f"{path}.victims[{j}]", "victim equals capture")
            start = _get(entry, "start", path, types=int)
            end = _get(entry, "end", path, types=int)
            _require(0 <= start < end, f"{path}.end", "window must satisfy 0 <= start < end")
            fanout = _get(entry, "fanout_limit", path, default=MAX_RELAY_FANOUT, types=int)
            _require(
                1 <= fanout <= MAX_RELAY_FANOUT,
                f"{path}.fanout_limit",
                f"must be between 1 and {MAX_RELAY_FANOUT}",
            )
            return AdversarySpec(
                kind=kind,
                capture=capture,
                victims=tuple(victims),
                start=start,
                end=end,
                latency_s=_get(entry, "latency_s", path, default=0, types=int),
                emit_rssi=float(
                    _get(entry, "emit_rssi", path, default=-55.0, types=(int, float))
                ),
                fanout_limit=fanout,
            )
        if kind == "eavesdropper":
            _reject_unknown(entry, {"kind", "sensors"}, path)
            sensors_data = _get(entry, "sensors", path, types=list)
            _require(len(sensors_data) > 0, f"{path}.sensors", "must not be empty")
            sensors = []
            for j, sensor in enumerate(sensors_data):
                spath = f"{path}.sensors[{j}]"
                _require(isinstance(sensor, dict), spath, "must be an object")
                _reject_unknown(sensor, {"id", "device", "start", "end"}, spath)
                device = _get(sensor, "device", spath, types=str)
                _require(device in ids, f"{spath}.device", "unknown device id")
                start = _get(sensor, "start", spath, types=int)
                end = _get(sensor, "end", spath, types=int)
                _require(0 <= start < end, f"{spath}.end", "window must satisfy 0 <= start < end")
                sensors.append(
                    SensorCoverage(
                        sensor=_get(sensor, "id", spath, types=str),
                        device=device,
                        start=start,
                        end=end,
                    )
                )
            return AdversarySpec(kind=kind, sensors=tuple(sensors))
        # fake_claimer
        _reject_unknown(entry, {"kind", "attempts", "at_day"}, path)
        attempts = _get(entry, "attempts", path, default=10000, types=int)
        _require(attempts > 0, f"{path}.attempts", "must be positive")
        return AdversarySpec(
            kind=kind,
            attempts=attempts,
            at_day=_get(entry, "at_day", path, default=None, types=int, nullable=True),
        )

    @staticmethod
    def _parse_infection(entry, path: str, ids: set[str]) -> InfectionSpec:
        _require(isinstance(entry, dict), path, "must be an object")
        _reject_unknown(entry, {"device", "day"}, path)
        device = _get(entry, "device", path, types=str)
        _require(device in ids, f"{path}.device", "unknown device id")
        day = _get(entry, "day", path, types=int)
        _require(day >= 0, f"{path}.day", "must be >= 0")
        return InfectionSpec(device=device, day=day)

    @staticmethod
    def _parse_redaction(entry, path: str, ids: set[str]) -> RedactionSpec:
        _require(isinstance(entry, dict), path, "must be an object")
        _reject_unknown(entry, {"device", "drop_start", "drop_end"}, path)
        device = _get(entry, "device", path, types=str)
        _require(device in ids, f"{path}.device", "unknown device id")
        drop_start = _get(entry, "drop_start", path, types=int)
        drop_end = _get(entry, "drop_end", path, types=int)
        _require(drop_start < drop_end, f"{path}.drop_end", "must exceed drop_start")
        return RedactionSpec(device=device, drop_start=drop_start, drop_end=drop_end)

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        _require(self.duration_days >= 1, "duration_days", "must be >= 1")
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
        _require(
            self.superspreader_threshold >= 1,
            "superspreader_threshold",
            "must be >= 1",
        )
        _require(self.retention_days >= 1, "retention_days", "must be >= 1")
        _require(len(self.devices) > 0, "devices", "must not be empty")
        # Frozen, so the index is set past __setattr__; it is not a field.
        object.__setattr__(
            self, "_schemes", {d.id: d.scheme or self.scheme for d in self.devices}
        )
        self.disease_timeline.validate("disease_timeline")
        horizon = self.duration_days * SECONDS_PER_DAY
        for i, interval in enumerate(self.colocation_schedule):
            _require(
                interval.end <= horizon,
                f"colocation_schedule[{i}].end",
                "interval extends past scenario duration",
            )
            _require(
                self.scheme_of(interval.device_a) == self.scheme_of(interval.device_b),
                f"colocation_schedule[{i}].device_b",
                "co-located devices must run the same scheme",
            )
        for i, adv in enumerate(self.adversaries):
            if adv.kind in ("relay_oneway", "relay_twoway"):
                for j, victim in enumerate(adv.victims):
                    _require(
                        self.scheme_of(adv.capture) == self.scheme_of(victim),
                        f"adversaries[{i}].victims[{j}]",
                        "relay endpoints must run the same scheme",
                    )
        for i, infection in enumerate(self.infections):
            _require(
                infection.day < self.duration_days,
                f"infections[{i}].day",
                "must be before scenario end",
            )
        for i, adv in enumerate(self.adversaries):
            if adv.kind == "fake_claimer":
                _require(
                    self.scheme in ("tracecorona", "decentralized"),
                    f"adversaries[{i}].kind",
                    "fake_claimer requires scheme tracecorona or decentralized",
                )
                if adv.at_day is not None:
                    _require(
                        0 <= adv.at_day < self.duration_days,
                        f"adversaries[{i}].at_day",
                        "must be within scenario duration",
                    )

    def scheme_of(self, device_id: str) -> str:
        return self._schemes[device_id]

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "name": self.name,
            "seed": self.seed,
            "scheme": self.scheme,
            "duration_days": self.duration_days,
            "devices": [d.to_dict() for d in self.devices],
            "colocation_schedule": [c.to_dict() for c in self.colocation_schedule],
            "adversaries": [a.to_dict() for a in self.adversaries],
            "infections": [i.to_dict() for i in self.infections],
            "redactions": [r.to_dict() for r in self.redactions],
            "disease_timeline": self.disease_timeline.to_dict(),
            "epsilon": self.epsilon,
            "frame_period": self.frame_period,
            "min_encounter_duration": self.min_encounter_duration,
            "feed_cadence": self.feed_cadence,
            "channel_loss": self.channel_loss,
            "replay_window": self.replay_window,
            "kiss_bug": self.kiss_bug,
            "second_level_enabled": self.second_level_enabled,
            "superspreader_enabled": self.superspreader_enabled,
            "superspreader_threshold": self.superspreader_threshold,
            "bluetrace": self.bluetrace,
            "retention_days": self.retention_days,
        }

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
