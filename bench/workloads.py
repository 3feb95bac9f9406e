"""The benchmark's workloads.

A workload builds its inputs in ``setup(seed)`` and then runs whole
rounds of the same operations; each round returns how long its timed
part took, how many operations it attempted, which failed, and the
problems its checks found in the outputs of the operations that did
not fail.  Checks run outside the timed part.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from importlib import resources

from tracecorona import cli
from tracecorona.simnet import engine
from tracecorona.simnet.config import SECONDS_PER_DAY, ScenarioConfig
from tracecorona.simnet.report import ScenarioReport

import checks
import population
from hostspeed import HostSpeed, Phase

DAY = SECONDS_PER_DAY


@dataclass
class Round:
    #: timed part at nominal host speed, and as measured
    seconds: float
    raw_seconds: float
    attempted: int
    failed: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)


# -- fixed probes for faults that a seeded population meets only by chance -----


def _probe(name: str, scheme: str, days: int, devices, schedule, infections, **extra) -> ScenarioConfig:
    return ScenarioConfig.from_dict({
        "version": 1, "name": name, "seed": 5, "scheme": scheme, "duration_days": days,
        "devices": devices,
        "colocation_schedule": [
            {"device_a": a, "device_b": b, "start": start, "end": start + 1800}
            for a, b, start in schedule
        ],
        "infections": [{"device": d, "day": day} for d, day in infections],
        "channel_loss": 0.0, **extra,
    })


def two_uploader_probe() -> ScenarioConfig:
    """Two infected devices meet and upload on the same day; each should
    be notified, genuinely, by the other."""
    return _probe(
        "probe_two_uploaders", "tracecorona", 10,
        [{"id": "a"}, {"id": "b", "clock_offset_s": 3}],
        [("a", "b", 36000)], [("a", 0), ("b", 0)],
    )


def check_two_uploader(config, report) -> list[str]:
    got = sorted((n["device"], n["source"], n["genuine"]) for n in report.notifications)
    want = sorted({("a", "b", True), ("b", "a", True)})
    if sorted(set(got)) != want or report.false_notification_count:
        return [f"two uploaders: notifications {got}, {report.false_notification_count} false"]
    return []


def equal_clock_probe() -> ScenarioConfig:
    """``contact`` uploads its token with ``peer`` as a second-level
    warning; ``peer``, whose clock equals ``contact``'s, later uploads as
    infected, and ``contact`` should be notified directly."""
    return _probe(
        "probe_equal_clocks", "tracecorona", 12,
        [{"id": "index"}, {"id": "contact"}, {"id": "peer"}],
        [("index", "contact", 2 * DAY + 36000), ("contact", "peer", 3 * DAY + 36000)],
        [("index", 0), ("peer", 2)],
        second_level_enabled=True,
    )


def check_equal_clock(config, report) -> list[str]:
    if not any(
        n["device"] == "contact" and n["source"] == "peer" and n["level"] == "direct"
        for n in report.notifications
    ):
        return ["equal clocks: contact was not notified of infected peer"]
    return []


def retention_probe() -> ScenarioConfig:
    """Two centralized devices meet on day 0; one is infected on day 8
    and uploads on day 16, when the contact is past the 14-day retention."""
    return _probe(
        "probe_centralized_retention", "centralized", 17,
        [{"id": "a"}, {"id": "b"}], [("a", "b", 36000)], [("a", 8)],
    )


def check_retention(config, report) -> list[str]:
    stale = checks.retention_violations(config, report)
    if stale or report.notifications:
        return [f"centralized retention: {stale} notification(s) about a contact "
                f"more than {config.retention_days} days before the upload"]
    return []


# -- populations -------------------------------------------------------------------

#: The contact rate and durations are those of the reference population
#: in ROADMAP.md (50 devices, 10 days, 1,000 co-location intervals, about
#: 1.09 M link ticks): 4 contacts per device per day, about 1,100 s each.
#: The devices are cut to 4 so that a round fits the run length; see
#: bench/README.md for the reason behind each parameter.
POPULATION = dict(
    devices=4, days=18, contacts_per_device_day=4, duration_s=(600, 1800),
    infection_fraction=0.5, clock_offset_s=10, deferred_fraction=0.25,
)


def _simulate(config: ScenarioConfig):
    """Run one scenario; the report's JSON is part of the timed work."""
    report = engine.run_scenario(config)
    text = report.to_json()
    return report, hashlib.sha256(text.encode()).hexdigest()


class PopulationWorkload:
    """Seeded populations plus fixed probes, one simulation per operation."""

    def __init__(self, schemes: tuple[str, ...], probes):
        self.schemes = schemes
        self.probes = probes  # (name, config factory, check(config, report))
        self.digests: dict[str, str] = {}

    def setup(self, seed: int) -> dict:
        configs = {}
        for scheme in self.schemes:
            lossless = scheme == "tracecorona"
            configs[scheme] = population.generate(
                **POPULATION,
                channel_loss=0.0 if lossless else 0.1,
                scheme=scheme, seed=seed,
                second_level=lossless, separate_infected=lossless,
                name=f"population_{scheme}",
            )
        for name, factory, _check in self.probes:
            configs[name] = factory()
        return configs

    def run_round(self, configs: dict, speed: HostSpeed) -> Round:
        result = Round(seconds=0.0, raw_seconds=0.0, attempted=len(configs))
        reports, digests = {}, {}
        # One timed phase per population and one for the small probes, so
        # that no phase outlasts the host speed measured around it.
        for keys in [[scheme] for scheme in self.schemes] + [[p[0] for p in self.probes]]:
            with Phase(speed) as phase:
                for key in keys:
                    reports[key], digests[key] = _simulate(configs[key])
            result.seconds += phase.scaled_s
            result.raw_seconds += phase.raw_s
        for key, digest in digests.items():
            if self.digests.setdefault(key, digest) != digest:
                result.problems.append(f"{key}: report differs from the first round's")
        for scheme in self.schemes:
            result.problems += [
                f"{scheme}: {p}" for p in checks.check_population(
                    configs[scheme], reports[scheme], retention=scheme != "centralized"
                )
            ]
        for name, _factory, check in self.probes:
            found = check(configs[name], reports[name])
            if found:
                result.failed.append("; ".join(found))
        return result


def population_tracecorona() -> PopulationWorkload:
    return PopulationWorkload(
        ("tracecorona",),
        [
            ("probe_two_uploaders", two_uploader_probe, check_two_uploader),
            ("probe_equal_clocks", equal_clock_probe, check_equal_clock),
        ],
    )


def population_baselines() -> PopulationWorkload:
    return PopulationWorkload(
        ("decentralized", "centralized"),
        [("probe_centralized_retention", retention_probe, check_retention)],
    )


# -- bundled scenarios -----------------------------------------------------------------

#: Scenario seeds per round, drawn from ``--seed``.
BUNDLED_SEEDS = 3
#: Scenario reports per seed: the nine scenarios, with three attacks
#: also run under the other scheme.
BUNDLED_REPORTS = {
    f"{name}_{scheme}" for name, scheme in (
        ("relay_r1", "decentralized"), ("relay_r1", "tracecorona"),
        ("relay_r2", "tracecorona"), ("kiss_replay", "decentralized"),
        ("kiss_replay", "tracecorona"), ("fake_claim", "tracecorona"),
        ("fake_claim", "decentralized"), ("honest_pair", "tracecorona"),
        ("eavesdropper", "tracecorona"),
        ("eavesdropper_decentralized", "decentralized"),
        ("timeline_chain", "tracecorona"), ("timeline_chain_early", "tracecorona"),
    )
}


class BundledWorkload:
    """The nine bundled scenarios through ``tracecorona.cli.main`` for each
    of a few scenario seeds, each followed by ``report`` for the
    comparison matrix; one pass over the seeds is a round."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def setup(self, seed: int) -> dict:
        root = resources.files("tracecorona") / "scenarios"
        configs = {
            p.name[:-5]: ScenarioConfig.from_dict(json.loads(p.read_text()))
            for p in root.iterdir() if p.name.endswith(".json")
        }
        seeds = [1 + (seed * BUNDLED_SEEDS + k) % 1000 for k in range(BUNDLED_SEEDS)]
        return {"configs": configs, "seeds": seeds}

    def run_round(self, inputs: dict, speed: HostSpeed) -> Round:
        result = Round(seconds=0.0, raw_seconds=0.0, attempted=0)
        outputs = []
        for seed in inputs["seeds"]:
            with Phase(speed) as phase:
                outputs.append((seed, *self._run_seed(seed)))
            result.seconds += phase.scaled_s
            result.raw_seconds += phase.raw_s
        for seed, out, codes, matrix_text in outputs:
            result.attempted += len(BUNDLED_REPORTS) + 1
            result.problems += [f"seed {seed}: {p}" for p in self._check(out, codes, matrix_text)]
            shutil.rmtree(out, ignore_errors=True)
        return result

    def _run_seed(self, seed: int):
        out = os.path.join(self.out_dir, f"seed-{seed}")
        shutil.rmtree(out, ignore_errors=True)
        s = str(seed)
        runs = [
            ["attack", "--seed", s, "--out", out],
            ["attack", "--seed", s, "--scheme", "tracecorona", "--name", "relay_r1", "kiss_replay", "--out", out],
            ["attack", "--seed", s, "--scheme", "decentralized", "--name", "fake_claim", "--out", out],
            ["run", "--seed", s, "--out", out, "--config", "honest_pair", "eavesdropper",
             "eavesdropper_decentralized", "timeline_chain", "timeline_chain_early"],
        ]
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in runs:
                codes.append(cli.main(argv))
        matrix_text = io.StringIO()
        with contextlib.redirect_stdout(matrix_text):
            codes.append(cli.main(["report", *sorted(glob.glob(os.path.join(out, "*.json")))]))
        return out, codes, matrix_text.getvalue()

    @staticmethod
    def _check(out: str, codes: list[int], matrix_text: str) -> list[str]:
        if any(codes):
            return [f"exit codes {codes}"]
        # Built directly, not through ScenarioReport.load, so that the checks
        # make no call the tracer would count.
        reports = {}
        for path in glob.glob(os.path.join(out, "*.json")):
            with open(path, encoding="utf-8") as handle:
                reports[os.path.basename(path)[:-5]] = ScenarioReport(**json.load(handle))
        if set(reports) != BUNDLED_REPORTS:
            return [f"reports {sorted(reports)}"]
        return checks.check_bundled(reports, checks.parse_matrix(matrix_text))
