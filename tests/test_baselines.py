"""Baseline schemes: centralized matching, decentralized keys, attacks."""

import bisect
import random
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import match_oracle
from tracecorona import baselines, crypto
from tracecorona.baselines import (
    BaselineMatch,
    CentralizedServer,
    DecentralizedServer,
    Observation,
    Run,
    match_observations,
    new_daily_key,
    provenance_lookup,
    tempid_at,
)
from tracecorona.simnet.config import ScenarioConfig
from tracecorona.simnet.engine import Engine, run_scenario

DAY = 86400


class TestCentralized:
    def test_registrations_distinct(self):
        server = CentralizedServer(random.Random(0))
        assert server.register() != server.register()

    def test_server_rederives_all_96_slots(self):
        server = CentralizedServer(random.Random(1))
        uid = server.register()
        client_side = [crypto.derive_tempid_centralized(uid, t_k) for t_k in range(96)]
        server_side = [server.tempid_for(uid, t_k) for t_k in range(96)]
        assert client_side == server_side

    def test_match_finds_true_contacts(self):
        server = CentralizedServer(random.Random(2))
        alice, bob, carol = (server.register() for _ in range(3))
        t = 36000
        observed = [Run(server.tempid_for(bob, t // 900), (t,), -55.0)]
        assert server.match(observed) == [bob]
        assert carol not in server.match(observed)

    def test_unregistered_tempid_no_match(self):
        server = CentralizedServer(random.Random(3))
        server.register()
        assert server.match([Run(bytes(16), (1000,), -55.0)]) == []

    def test_empty_upload_empty_result(self):
        server = CentralizedServer(random.Random(4))
        server.register()
        assert server.match([]) == []

    def test_relayed_tempid_flags_victim(self):
        # one-way relay: the victim's identifier is replayed into the
        # soon-infected uploader's observation set at a valid slot
        server = CentralizedServer(random.Random(5))
        infected = server.register()
        victim = server.register()
        slot_time = 7 * 900 + 100
        relayed = server.tempid_for(victim, slot_time // 900)
        matched = server.ingest_upload(infected, [Run(relayed, (slot_time + 60,), -70.0)], 0)
        assert victim in matched

    def test_contact_graph_reconstruction(self, monkeypatch):
        server = CentralizedServer(random.Random(6))
        users = [server.register() for _ in range(4)]
        infected = users[0]
        contacts = users[1:3]
        observed = [
            Run(server.tempid_for(u, 40), range(40 * 900 + 5, 40 * 900 + 65), -55.0)
            for u in contacts
        ]
        server.ingest_upload(infected, observed, 3)
        # the edges are kept at ingest, not found by matching the upload again
        monkeypatch.setattr(server, "match", None)
        assert server.contact_edges() == {(infected, u) for u in contacts}

    @pytest.mark.parametrize("bluetrace", [False, True])
    def test_match_derives_once_per_user_and_uploaded_interval(self, monkeypatch, bluetrace):
        server = CentralizedServer(random.Random(8), bluetrace=bluetrace)
        users = [server.register() for _ in range(5)]
        # a run over each of three intervals, cut in two halves: a
        # contact's identifier in the middle one, a stranger's everywhere else
        heard = {40: bytes(16), 41: server.tempid_for(users[2], 41), 43: bytes(16)}
        uploaded = [
            Run(heard[t_k], range(t_k * 900 + half, t_k * 900 + half + 450), -55.0)
            for t_k in heard for half in (0, 450)
        ]
        expected = [
            u for u in users
            if any(server.tempid_for(u, t // 900) == run.tempid
                   for run in uploaded for t in run.times)
        ]
        calls = []
        tempid_for = server.tempid_for
        monkeypatch.setattr(
            server, "tempid_for", lambda u, t_k: calls.append((u, t_k)) or tempid_for(u, t_k)
        )
        assert server.match(uploaded) == expected == [users[2]]
        assert 0 < len(calls) <= len(users) * len(heard)

    def test_bluetrace_variant_server_only(self):
        server = CentralizedServer(random.Random(7), bluetrace=True)
        uid = server.register()
        tid = server.tempid_for(uid, 5)
        # stable server-side, but not the keyless client derivation
        assert tid == server.tempid_for(uid, 5)
        assert tid != crypto.derive_tempid_centralized(uid, 5)
        day = [server.tempid_for(uid, t_k) for t_k in range(10)]
        assert day[5] == tid and len(set(day)) == 10


def obs_at(key, local_time, rssi=-55.0):
    return Observation(tempid_at(key, local_time), local_time, rssi)


def runs_of(observations):
    """One one-second run per observation."""
    return [Run(obs.tempid, (obs.time,), obs.rssi) for obs in observations]


class TestDecentralized:
    def test_daily_key_deterministic(self):
        assert new_daily_key(b"seed", 3) == new_daily_key(b"seed", 3)
        assert new_daily_key(b"seed", 3) != new_daily_key(b"seed", 4)

    def test_honest_contact_notifies(self):
        key = new_daily_key(b"a", 2)
        t = 2 * 86400 + 5 * 3600
        matches = match_observations([key], runs_of([obs_at(key, t)]))
        assert len(matches) == 1
        assert matches[0].key == key

    def test_replay_90_minutes_late_succeeds(self):
        key = new_daily_key(b"a", 2)
        emit = 2 * 86400 + 5 * 3600
        replayed = Observation(tempid_at(key, emit), emit + 90 * 60, -60.0)
        assert match_observations([key], runs_of([replayed]))

    def test_replay_beyond_two_hours_fails(self):
        key = new_daily_key(b"a", 2)
        emit = 2 * 86400 + 5 * 3600
        replayed = Observation(tempid_at(key, emit), emit + 3 * 3600, -60.0)
        assert not match_observations([key], runs_of([replayed]))

    def test_kiss_bug_accepts_same_day_regardless_of_slot(self):
        key = new_daily_key(b"a", 2)
        emit = 2 * 86400 + 5 * 3600
        late_same_day = Observation(tempid_at(key, emit), emit + 10 * 3600, -60.0)
        assert not match_observations([key], runs_of([late_same_day]))
        assert match_observations([key], runs_of([late_same_day]), kiss_bug=True)

    def test_kiss_bug_other_day_still_rejected(self):
        key = new_daily_key(b"a", 2)
        emit = 2 * 86400 + 23 * 3600
        next_day = Observation(tempid_at(key, emit), emit + 4 * 3600, -60.0)
        assert not match_observations([key], runs_of([next_day]), kiss_bug=True)

    def test_publish_and_match_through_server(self):
        server = DecentralizedServer()
        key = new_daily_key(b"x", 1)
        t = 1 * 86400 + 1000
        server.publish([key])
        matches = match_observations(server.download(), runs_of([obs_at(key, t)]))
        assert matches and server.download() == [key]

    def test_fetch_matches_each_key_once(self, monkeypatch):
        # a 20-minute contact at 10% loss holds hundreds of heard seconds of
        # a's key; the fetch builds one match for its one notification
        built = []

        def counting(*args):
            built.append(BaselineMatch(*args))
            return built[-1]

        monkeypatch.setattr(baselines, "BaselineMatch", counting)
        report = run_scenario(ScenarioConfig.from_dict({
            "name": "once", "seed": 1, "duration_days": 10, "scheme": "decentralized",
            "devices": [{"id": "a"}, {"id": "b", "clock_offset_s": 3}],
            "colocation_schedule": [
                {"device_a": "a", "device_b": "b", "start": 3 * DAY + 36000,
                 "end": 3 * DAY + 37200},
            ],
            "infections": [{"device": "a", "day": 0}],
            "channel_loss": 0.1,
        }))
        assert [n["device"] for n in report.notifications] == ["b"]
        assert len(built) == len(report.notifications)

    def test_published_tek_links_all_144_slot_ids(self):
        key = new_daily_key(b"owner", 6)
        broadcast = {
            tempid_at(key, 6 * 86400 + s * 600) for s in range(144)
        }
        derived = set(crypto.derive_tempids_decentralized(key.tek, key.day))
        assert broadcast == derived
        assert len(derived) == 144


class TestRetention:
    @pytest.mark.parametrize("replay_window", [0, 7200, DAY])
    @pytest.mark.parametrize("retention_days", [1, 14])
    def test_servers_keep_a_day_for_the_retention_period(self, retention_days, replay_window):
        """An edge uploaded on day d is held at the midnight of day
        d + retention_days and dropped at the next.  A key of day d
        matches runs up to replay_window seconds past its day, and a
        client holds a run for retention_days after the run's day, so the
        key is held one day longer, and a day more per whole day of the
        window: as long as a held run could match it."""
        engine = Engine(ScenarioConfig.from_dict({
            "name": "retention", "seed": 1, "duration_days": 30, "scheme": "centralized",
            "devices": [{"id": "a"}], "retention_days": retention_days,
            "replay_window": replay_window,
        }))
        day, central = 3, engine.cen_server
        key = new_daily_key(b"x", day)
        engine.dec_server.publish([key])
        infected, contact = central.register(), central.register()
        central.ingest_upload(infected, [Run(central.tempid_for(contact, 7), (6400,), -55.0)], day)
        engine._midnight(day + retention_days)
        assert central.contact_edges() == {(infected, contact)}
        engine._midnight(day + retention_days + 1)
        assert central.contact_edges() == set()
        late = 1 + replay_window // DAY
        engine._midnight(day + retention_days + late)
        assert engine.dec_server.download() == [key]
        engine._midnight(day + retention_days + late + 1)
        assert engine.dec_server.download() == [] and engine.dec_server.count == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("publish"), st.lists(st.integers(0, 9), max_size=4)),
        st.tuples(st.just("forget"), st.integers(0, 10)),
        st.tuples(st.just("read"), st.none()),
    ), max_size=12))
    def test_read_position_spans_expiries(self, steps):
        """A reader that keeps the count it has read gets each key
        published after its last read once, unless it was dropped before
        this read, whatever was dropped in between."""
        server, published, read, position = DecentralizedServer(), [], [], 0
        for step, arg in steps + [("read", None)]:
            if step == "publish":
                keys = [new_daily_key(bytes([len(published) + i]), d) for i, d in enumerate(arg)]
                server.publish(keys)
                published += [[key, True] for key in keys]
            elif step == "forget":
                server.forget_before(arg)
                for entry in published:
                    entry[1] = entry[1] and entry[0].day >= arg
            else:
                got = server.download(position)
                assert got == [key for key, held in published[position:] if held]
                read += got
                position = server.count
        assert server.count == len(published)
        assert len(read) == len(set(read))


#: Published keys for the matching property: two devices on day 1, one on day 2.
KEYS = [new_daily_key(bytes([i]), day) for i, day in ((0, 1), (1, 1), (2, 2))]


@st.composite
def observation(draw):
    """A slot identifier of one of KEYS, or a stranger's, heard up to a
    day before or after its slot."""
    key = draw(st.sampled_from(KEYS))
    emitted = key.day * DAY + draw(st.integers(0, 143)) * crypto.DECENTRALIZED_SLOT_SECONDS
    tempid = draw(st.one_of(st.just(tempid_at(key, emitted)), st.binary(min_size=16, max_size=16)))
    return Observation(tempid, emitted + draw(st.integers(-DAY, DAY)), -55.0)


@st.composite
def observation_logs(draw):
    """Observations in any order, some identifiers heard again later or earlier."""
    heard = draw(st.lists(observation(), min_size=1, max_size=10))
    again = draw(st.lists(st.tuples(st.sampled_from(heard), st.integers(-3 * 3600, 3 * 3600))))
    return draw(st.permutations(heard + [obs._replace(time=obs.time + s) for obs, s in again]))


def first_per_key(keys, observations, replay_window, kiss_bug):
    """The naive scan's first match of each entry of ``keys``, in order."""
    return [
        m for key in keys
        for m in match_oracle.match_observations([key], observations, replay_window, kiss_bug)[:1]
    ]


class TestMatchingIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(KEYS), max_size=4),
        observation_logs(),
        st.integers(0, 3 * 3600),
        st.booleans(),
    )
    @example(
        keys=[KEYS[0], KEYS[0]],
        observations=[obs_at(KEYS[0], DAY + 600, rssi=-55.0)] * 2
        + [Observation(tempid_at(KEYS[0], DAY + 600), DAY + 20 * 3600, -55.0)],
        replay_window=7200,
        kiss_bug=True,
    )
    def test_indexed_equals_naive_scan(self, keys, observations, replay_window, kiss_bug):
        assert match_observations(keys, runs_of(observations), replay_window, kiss_bug) == (
            first_per_key(keys, observations, replay_window, kiss_bug)
        )


@st.composite
def held_runs(draw):
    """Published keys, a replay window, the kiss flag, and the runs a
    device holds: slot identifiers of KEYS or strangers' heard near the
    window's or the day's edges or anywhere within a day of the slot,
    some with seconds lost as channel loss leaves them (held as a list
    or as the packed ``array('q')`` a client holds), some repeating
    an identifier already heard over the same seconds or near them, all
    trimmed at a horizon as midnight leaves them.  Each run's
    provenance is its index."""
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=4))
    replay_window = draw(st.integers(0, 3 * 3600))
    runs = []
    for i in range(draw(st.integers(1, 8))):
        if runs and draw(st.booleans()):
            earlier = draw(st.sampled_from(runs))
            tempid, start = earlier.tempid, earlier.times[0] + draw(st.integers(-5, 5))
        else:
            key = draw(st.sampled_from(KEYS))
            slot_start = key.day * DAY + draw(st.integers(0, 143)) * 600
            tempid = draw(st.one_of(
                st.just(tempid_at(key, slot_start)), st.binary(min_size=16, max_size=16)
            ))
            edge = draw(st.sampled_from([
                slot_start - replay_window, slot_start + 600 + replay_window,
                key.day * DAY, (key.day + 1) * DAY, slot_start,
            ]))
            start = edge + draw(st.integers(-DAY if edge == slot_start else -900, 900))
        length = draw(st.integers(1, 1200))
        times = range(start, start + length)
        if length > 1 and draw(st.booleans()):
            lost = draw(st.sets(st.integers(1, length - 1), max_size=length // 2))
            times = [t for t in times if t - start not in lost]
            if draw(st.booleans()):
                times = array("q", times)
        runs.append(Run(tempid, times, -55.0 - i, i))
    horizon = draw(st.integers(min(r.times[0] for r in runs) - 1, max(r.times[-1] for r in runs)))
    trimmed = [
        run._replace(times=run.times[bisect.bisect_left(run.times, horizon):])
        for run in runs if run.times[-1] >= horizon
    ]
    return keys, trimmed, replay_window, draw(st.booleans())


class TestRuns:
    @settings(max_examples=300, deadline=None)
    @given(held_runs())
    def test_runs_match_as_their_observations(self, held):
        keys, runs, replay_window, kiss_bug = held
        assert match_observations(keys, runs, replay_window, kiss_bug) == (
            first_per_key(keys, match_oracle.expand(runs), replay_window, kiss_bug)
        )

    @settings(max_examples=200, deadline=None)
    @given(held_runs())
    def test_provenance_is_the_last_writer(self, held):
        _, runs, _, _ = held
        last_writer = {}
        for run in runs:
            for t in run.times:
                last_writer[(run.tempid, t)] = run.provenance
        lookup = provenance_lookup(runs)
        assert {held: lookup(*held) for held in last_writer} == last_writer
        tempid, t = next(iter(last_writer))
        with pytest.raises(KeyError):
            lookup(tempid, t - 3 * DAY)
