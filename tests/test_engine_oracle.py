"""Sighting runs against the per-second oracle, and the radio's
arithmetic and loss draws against brute force."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_oracle
import match_oracle
from test_report_digests import CONFIGS, FAST_TIMELINE, populations, room
from tracecorona import baselines
from tracecorona.baselines import provenance_lookup
from tracecorona.device import ADVERTISE_ON, ADVERTISE_PERIOD, SCAN_ON, SCAN_PERIOD
from tracecorona.simnet.config import SCHEMES, ScenarioConfig
from tracecorona.simnet.engine import Engine, _BaselineClient

DAY = 86400


def contested_relay() -> ScenarioConfig:
    """Direct links from a to b and c, and a relay of latency 2 between
    the same devices.  At 3663 s a beacon the relay picked up two seconds
    earlier reaches c before both sides complete the direct handshake
    asked for at 3662 s, and asks for one of its own: the group's next
    event must run between two events of the same second."""
    return ScenarioConfig.from_dict({
        "name": "contested_relay", "seed": 1, "duration_days": 1, "scheme": "tracecorona",
        "devices": [{"id": "a"}, {"id": "b", "clock_offset_s": 2}, {"id": "c", "clock_offset_s": -3}],
        "colocation_schedule": [
            {"device_a": "a", "device_b": "b", "start": 3600, "end": 3659},
            {"device_a": "a", "device_b": "c", "start": 3600, "end": 3663},
        ],
        "adversaries": [{"kind": "relay_twoway", "capture": "a", "victims": ["b", "c"],
                         "start": 3600, "end": 3662, "latency_s": 2}],
        "min_encounter_duration": 1, "frame_period": 60, "epsilon": 10,
    })


def long_lossy_contact() -> ScenarioConfig:
    """One 4-hour contact at 90% loss: now and then no beacon is heard for
    longer than ``CONTINUITY_GAP`` inside a sighting run, and the next one
    starts a new sighting."""
    return ScenarioConfig.from_dict({
        "name": "long_lossy_contact", "seed": 1, "duration_days": 3, "scheme": "tracecorona",
        "devices": [{"id": "a", "clock_offset_s": 3}, {"id": "b", "clock_offset_s": -5}],
        "colocation_schedule": [{"device_a": "a", "device_b": "b", "start": 3600, "end": 18000}],
        "infections": [{"device": "a", "day": 0}],
        "disease_timeline": FAST_TIMELINE, "channel_loss": 0.9,
    })


CASES = {
    f"{case}-loss{loss}": config.replace(channel_loss=loss)
    for loss in (0.0, 0.1)
    for case, config in {
        **CONFIGS, **populations(loss), "room": room(loss), "contested_relay": contested_relay()
    }.items()
}
CASES["long_lossy_contact-loss0.9"] = long_lossy_contact()


def held(engine: Engine, client) -> list | None:
    """A baseline device's observations with their provenance: the
    oracle's per-beacon log and ``gt_obs_prov`` entries, or the
    expansion of the engine client's runs and the provenance its lookup
    gives for each."""
    if not isinstance(client, _BaselineClient):
        return None
    if isinstance(engine, engine_oracle.OracleEngine):
        log = engine.observations[client.id]
        assert match_oracle.expand(client.runs) == log
        return [(obs, engine.gt_obs_prov[(client.id, obs.tempid, obs.time)]) for obs in log]
    provenance = provenance_lookup(client.runs)
    return [(obs, provenance(obs.tempid, obs.time)) for obs in match_oracle.expand(client.runs)]


def device_state(engine: Engine) -> dict:
    """What each device holds at the end: tokens with their metadata and
    ground truth (peer and relay), and a baseline device's observations
    with their provenance, sender by sender.  The order between senders
    is the order in which the radio hands their runs over, which no
    report reads (``test_simnet`` ``TestBaselineRuns`` permutes it); the
    order within a sender is read, as a decentralized fetch takes the
    first match per published key."""
    state = {}
    for client in engine.clients.values():
        tokens = sorted(
            (key, vars(token)) for key, token in client.device.store.items()
        )
        observations = held(engine, client)
        if observations is not None:
            observations.sort(key=lambda entry: entry[1]["source"])
        state[client.id] = (tokens, observations)
    return state


def assert_same_run(config: ScenarioConfig) -> None:
    engine, oracle = Engine(config), engine_oracle.OracleEngine(config)
    assert engine.run().to_json() == oracle.run().to_json()
    assert device_state(engine) == device_state(oracle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_per_second_oracle(case):
    assert_same_run(CASES[case])


# -- random schedules, crowded links included -----------------------------------

offsets = st.integers(-30, 30)
# starts past the largest negative clock offset: frames are never negative
windows = st.tuples(st.integers(60, 4 * 3600), st.integers(1, 1800))


@st.composite
def small_configs(draw):
    ids = ["a", "b", "c"]
    schedule = []
    for start, length in draw(st.lists(windows, max_size=4)):
        a, b = draw(st.permutations(ids))[:2]
        profile = draw(st.sampled_from([-55, [[0, -70], [draw(st.integers(1, 600)), -50]]]))
        schedule.append({"device_a": a, "device_b": b, "start": start,
                         "end": start + length, "rssi_profile": profile})
    adversaries = []
    if draw(st.booleans()):
        start, length = draw(windows)
        adversaries.append({
            "kind": draw(st.sampled_from(["relay_oneway", "relay_twoway"])),
            "capture": "a", "victims": draw(st.sampled_from([["b"], ["b", "c"]])),
            "start": start, "end": start + length, "latency_s": draw(st.integers(0, 5)),
        })
    return ScenarioConfig.from_dict({
        "name": "random", "seed": draw(st.integers(0, 99)), "duration_days": 1,
        "scheme": draw(st.sampled_from(SCHEMES)),
        "devices": [{"id": i, "clock_offset_s": draw(offsets)} for i in ids],
        "colocation_schedule": schedule, "adversaries": adversaries,
        "min_encounter_duration": draw(st.sampled_from([1, 60, 300])),
        "frame_period": draw(st.sampled_from([300, 900])),
        "channel_loss": draw(st.sampled_from([0.0, 0.1, 0.5])),
    })


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_random_schedules_match_oracle(config):
    assert_same_run(config)


def test_room_contests_the_connection_slots():
    engine = Engine(room(0.0))
    engine.run()
    assert max(c.device.peak_open_channels for c in engine.clients.values()) == 8


@st.composite
def groups(draw):
    """3-10 devices whose links overlap in time, most of them starting
    together so that a device's eight connection slots are contested,
    and a two-way relay from the first device to several others next to
    a direct link between the first device and its first victim.  Ten
    devices and the main scheme, where slots are contested, are drawn
    twice as often; 60 s frames put frame boundaries in every window."""
    ids = [f"d{i}" for i in range(draw(st.sampled_from([10, 10, 3, 6])))]
    pairs = list(itertools.combinations(ids, 2))
    dropped = draw(st.sets(st.sampled_from(pairs[1:]), max_size=len(ids)))
    start = 3600 + draw(st.integers(0, 900))
    starts = st.one_of(st.just(start), st.integers(start + 1, start + 20))
    schedule = [
        {"device_a": a, "device_b": b, "start": first, "end": first + draw(st.integers(60, 300)),
         "rssi_profile": draw(st.sampled_from([-60, [[0, -70], [30, -50]]]))}
        for a, b in pairs if (a, b) not in dropped
        for first in [draw(starts)]
    ]
    relay_start = draw(starts)
    adversaries = [{
        "kind": "relay_twoway", "capture": "d0",
        "victims": ids[1 : len(ids) - draw(st.integers(0, len(ids) - 2))],
        "start": relay_start, "end": relay_start + draw(st.integers(60, 300)),
        "latency_s": draw(st.sampled_from(range(6))),
        "fanout_limit": draw(st.sampled_from([8, 1, 3])),
    }]
    clocks = st.one_of(st.just(0), st.integers(-3, 3))
    return ScenarioConfig.from_dict({
        "name": "group", "seed": draw(st.integers(0, 99)), "duration_days": 1,
        "scheme": draw(st.sampled_from(["tracecorona", *SCHEMES])),
        "devices": [{"id": i, "clock_offset_s": draw(clocks)} for i in ids],
        "colocation_schedule": schedule, "adversaries": adversaries,
        "min_encounter_duration": draw(st.sampled_from([1, 2, 5])), "frame_period": 60,
        "channel_loss": draw(st.sampled_from([0.0, 0.1, 0.5])),
    })


@settings(max_examples=40, deadline=None)
@given(groups())
def test_groups_match_oracle(config):
    assert_same_run(config)


# -- run boundaries ----------------------------------------------------------------


def relay(offset_a, offset_b, start, length, latency, scheme):
    return ScenarioConfig.from_dict({
        "name": "runs", "seed": 1, "duration_days": 1, "scheme": scheme,
        "devices": [{"id": "a", "clock_offset_s": offset_a},
                    {"id": "b", "clock_offset_s": offset_b}],
        "adversaries": [{"kind": "relay_twoway", "capture": "a", "victims": ["b"],
                         "start": start, "end": start + length, "latency_s": latency}],
        "channel_loss": 0.0,
    })


@settings(max_examples=200, deadline=None)
@given(offsets, offsets, st.integers(60, DAY - 3600), st.integers(1, 3600), st.integers(0, 5),
       st.sampled_from(SCHEMES))
def test_runs_are_the_deliverable_seconds(offset_a, offset_b, start, length, latency, scheme):
    """The runs a beam loads are its deliverable seconds, each run of one
    identifier and one frame of the receiver's clock, taken until the
    identifier, the frame or the RSSI changes, across duty-cycle gaps."""
    engine = Engine(relay(offset_a, offset_b, start, length, latency, scheme))
    for client in engine.clients.values():
        client.register(engine)  # a centralized identifier needs the server's pseudonym
    (link,) = engine._links()
    for beam in link.beams:
        src, dst = beam.src.device, beam.dst.device

        def frame(u):
            return dst.local_time(u) // beam.dst.rotation_period

        deliverable = [
            u for u in range(start + latency, min(start + length + latency, DAY))
            if src.is_advertising(u - latency) and dst.is_scanning(u)
        ]
        runs = []
        beam.load()
        while beam.pending:
            runs.append((beam.pending, beam.identifier, beam.rssi))
            beam.load()
        assert [u for seconds, _, _ in runs for u in seconds] == deliverable
        for seconds, identifier, _ in runs:
            assert {beam.src.identifier_at(u - latency) for u in seconds} == {identifier}
            assert len({frame(u) for u in seconds}) == 1
        # maximal: any two runs in a row differ in identifier, frame or RSSI
        for (before, id_before, rssi_before), (after, id_after, rssi_after) in zip(runs, runs[1:]):
            assert (id_before, frame(before[-1]), rssi_before) != (
                id_after, frame(after[0]), rssi_after)


@pytest.mark.parametrize("scheme", ["decentralized", "centralized"])
def test_baseline_runs_build_no_observation(monkeypatch, scheme):
    # three days of contacts at 10% loss and no infection: every beacon
    # is held through three midnights without one object per beacon
    def refuse(*args):
        raise AssertionError("an observation was built")

    monkeypatch.setattr(baselines, "Observation", refuse)
    engine = Engine(ScenarioConfig.from_dict({
        "name": "runs", "seed": 2, "duration_days": 3, "scheme": scheme,
        "devices": [{"id": "a", "clock_offset_s": -7}, {"id": "b", "clock_offset_s": 4}],
        "colocation_schedule": [
            {"device_a": "a", "device_b": "b", "start": day * DAY + 3600, "end": day * DAY + 7200}
            for day in range(3)
        ],
        "channel_loss": 0.1,
    }))
    engine.run()
    assert all(len(client.runs) > 10 for client in engine.clients.values())


def test_duty_cycles_match_the_arithmetic():
    # the run search steps by these periods
    device = Engine(relay(0, 0, 0, 1, 0, "tracecorona")).clients["a"].device
    assert [device.is_advertising(t) for t in range(ADVERTISE_PERIOD)] == [
        t < ADVERTISE_ON for t in range(ADVERTISE_PERIOD)]
    assert [device.is_scanning(t) for t in range(SCAN_PERIOD)] == [
        t < SCAN_ON for t in range(SCAN_PERIOD)]


# -- loss ------------------------------------------------------------------------------


def heard(config: ScenarioConfig) -> dict:
    engine = Engine(config)
    engine.run()
    return {c.id: held(engine, c) for c in engine.clients.values()}


@settings(max_examples=40, deadline=None)
@given(offsets, offsets, windows, windows, st.sampled_from(["decentralized", "centralized"]))
def test_unrelated_colocation_leaves_losses_alone(offset_a, offset_b, pair, other, scheme):
    def config(schedule):
        return ScenarioConfig.from_dict({
            "name": "loss", "seed": 3, "duration_days": 1, "scheme": scheme,
            "devices": [{"id": "a", "clock_offset_s": offset_a},
                        {"id": "b", "clock_offset_s": offset_b}, {"id": "c"}, {"id": "d"}],
            "colocation_schedule": schedule, "channel_loss": 0.3,
        })

    def colocation(a, b, window):
        start, length = window
        return {"device_a": a, "device_b": b, "start": start, "end": start + length}

    alone = heard(config([colocation("a", "b", pair)]))
    crowded = heard(config([colocation("a", "b", pair), colocation("c", "d", other)]))
    assert crowded["a"] == alone["a"] and crowded["b"] == alone["b"]
