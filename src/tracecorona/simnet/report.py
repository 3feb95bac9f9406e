"""Scenario report: the deterministic metrics output of a run.

Two serializations, both round-tripping:

* machine-readable: canonical JSON (sorted keys, fixed separators)
* structured text: one ``key = <json>`` line per field in a fixed order

Identical (config, seed) pairs produce byte-identical output in both.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

REPORT_VERSION = 1


@dataclass
class ScenarioReport:
    # First in the text rendering; keyword-only, so it may precede required fields.
    version: int = field(default=REPORT_VERSION, kw_only=True)
    name: str
    scheme: str
    seed: int
    config_digest: str
    duration_days: int
    notifications: list[dict] = field(default_factory=list)
    false_notification_count: int = 0
    attack_success_rate: float = 0.0
    attack_details: dict = field(default_factory=dict)
    relay_fanout: dict = field(default_factory=dict)
    max_linkability_window_s: dict = field(default_factory=dict)
    linkability_recovered: dict = field(default_factory=dict)
    gt_day_identifiers: dict = field(default_factory=dict)
    notification_latency_days: dict = field(default_factory=dict)
    first_notification_day: dict = field(default_factory=dict)
    payload_bytes_uploaded: int = 0
    payload_bytes_downloaded: int = 0
    server_stats: dict = field(default_factory=dict)
    device_token_counts: dict = field(default_factory=dict)
    payload_notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in FIELD_ORDER}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def to_text(self) -> str:
        lines = [
            f"{key} = {json.dumps(getattr(self, key), sort_keys=True)}"
            for key in FIELD_ORDER
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioReport":
        if data.get("version") != REPORT_VERSION:
            raise ValueError("unsupported report version")
        kwargs = {key: data[key] for key in FIELD_ORDER}
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_text(cls, text: str) -> "ScenarioReport":
        data = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            key, _, value = line.partition(" = ")
            data[key] = json.loads(value)
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ScenarioReport":
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
        stripped = content.lstrip()
        if stripped.startswith("{"):
            return cls.from_json(content)
        return cls.from_text(content)


#: Field order of the text rendering; also the JSON key inventory.
FIELD_ORDER = [f.name for f in fields(ScenarioReport)]
