"""Byte identity of simulator reports.

Pins the SHA-256 of ``run_scenario(config).to_json()`` for every bundled
scenario at seed 1 under each scheme its config accepts, plus one
centralized BlueTrace variant, as bundled (10% channel loss) and
lossless.  The lossless set adds three seeded populations per scheme,
built by the benchmark's generator, a crowded room, a relay whose victim
re-uploads what was relayed, and a day-long contact.  A change meant to
alter only what a run costs must leave every digest as it is; a change
that alters what a run computes must say why and update the digests it
moves.  Without loss a report depends on no random draw of the radio,
so the lossless digests also hold across changes to how loss is drawn.
"""

import hashlib
import importlib.util
import itertools
import json
from importlib import resources
from pathlib import Path

import pytest

from tracecorona.simnet.config import SCHEMES, ConfigError, ScenarioConfig
from tracecorona.simnet.engine import run_scenario

SCENARIOS = resources.files("tracecorona") / "scenarios"


def _configs() -> dict[str, ScenarioConfig]:
    configs = {}
    for path in sorted(SCENARIOS.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        base = ScenarioConfig.from_dict(json.loads(path.read_text()))
        for scheme in SCHEMES:
            try:
                configs[f"{base.name}-{scheme}"] = base.replace(scheme=scheme, seed=1)
            except ConfigError:
                pass  # e.g. fake_claim under centralized
    relay = configs["relay_r1-centralized"]
    configs["relay_r1-centralized-bluetrace"] = relay.replace(bluetrace=True)
    return configs


CONFIGS = _configs()

_spec = importlib.util.spec_from_file_location(
    "bench_population", Path(__file__).resolve().parents[1] / "bench" / "population.py"
)
population = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(population)

#: small populations: four devices over ten days, so that infected
#: devices upload inside the run
POPULATION = dict(
    devices=4, days=10, contacts_per_device_day=3, duration_s=(600, 1800),
    infection_fraction=0.5, clock_offset_s=10, deferred_fraction=0.25,
)


def populations(channel_loss: float) -> dict[str, ScenarioConfig]:
    return {
        f"population-{scheme}-{seed}": population.generate(
            **POPULATION, channel_loss=channel_loss, scheme=scheme, seed=seed,
            second_level=scheme == "tracecorona",
        )
        for scheme in SCHEMES
        for seed in (1, 2, 3)
    }


def room(channel_loss: float) -> ScenarioConfig:
    """Ten devices, all 45 pairs together from 09:00 to 09:30: each
    device has nine neighbours and eight connection slots, which its
    links contend for."""
    ids = [f"d{i}" for i in range(10)]
    return ScenarioConfig.from_dict({
        "name": "room", "seed": 1, "duration_days": 1, "scheme": "tracecorona",
        "devices": [{"id": device, "clock_offset_s": 0} for device in ids],
        "colocation_schedule": [
            {"device_a": a, "device_b": b, "start": 9 * 3600, "end": 9 * 3600 + 1800,
             "rssi_profile": -60}
            for a, b in itertools.combinations(ids, 2)
        ],
        "min_encounter_duration": 60, "channel_loss": channel_loss,
    })


#: Infection to positive result in one day: contagious at once,
#: symptoms the next day, tested and told the same day.
FAST_TIMELINE = {"incubation_to_contagious_days": 0, "contagious_to_symptoms_days": 1,
                 "symptoms_to_test_days": 0, "test_to_result_days": 0}


def relay_reaction(clock_offset_s: int = 3) -> ScenarioConfig:
    """w and v meet from 10:00 to 10:30 while a two-way relay tunnels v
    to c; w and v are infected on day 0 and upload on day 1, and v,
    warned by w's record, uploads its tokens again at second level.
    c's direct matches of v's records ran through the relay."""
    return ScenarioConfig.from_dict({
        "name": "relay_reaction", "seed": 1, "duration_days": 3, "scheme": "tracecorona",
        "devices": [{"id": "w"}, {"id": "v", "clock_offset_s": clock_offset_s}, {"id": "c"}],
        "colocation_schedule": [{"device_a": "w", "device_b": "v", "start": 36000, "end": 37800}],
        "adversaries": [{"kind": "relay_twoway", "capture": "c", "victims": ["v"],
                         "start": 36000, "end": 37800, "latency_s": 1}],
        "infections": [{"device": "w", "day": 0}, {"device": "v", "day": 0}],
        "disease_timeline": FAST_TIMELINE, "second_level_enabled": True, "channel_loss": 0.0,
    })


def long_contact() -> ScenarioConfig:
    """a and b together all of day 0 with 5-minute frames: b matches 288
    of a's records, more possession proofs than one upload carries."""
    return ScenarioConfig.from_dict({
        "name": "long_contact", "seed": 1, "duration_days": 3, "scheme": "tracecorona",
        "devices": [{"id": "a"}, {"id": "b", "clock_offset_s": 3}],
        "colocation_schedule": [{"device_a": "a", "device_b": "b", "start": 0, "end": 86400}],
        "infections": [{"device": "a", "day": 0}],
        "frame_period": 300, "min_encounter_duration": 60,
        "disease_timeline": FAST_TIMELINE, "channel_loss": 0.0,
    })


LOSSLESS = {
    **{case: config.replace(channel_loss=0.0) for case, config in CONFIGS.items()},
    **populations(0.0),
    "room-tracecorona": room(0.0),
    "relay_reaction-tracecorona": relay_reaction(),
    "long_contact-tracecorona": long_contact(),
}

DIGESTS = {
    "eavesdropper-centralized": "c556c5dcd0b7bd9404118fceadb471d6eaf62fbf1245edb622cc32978df3f13a",
    "eavesdropper-decentralized":
        "10dc1f6da02262c9e8acce51e6eee5c8f93eecab7f3a3ba1cb73fb2acc10cb1b",
    "eavesdropper-tracecorona": "339ac001cc8123b0f366e90c8657de5fa048a10740005cb521299aaad0a7d17f",
    "eavesdropper_decentralized-centralized":
        "b0d02a6d51f1b9ba8a76414465d36f0396f7d4ec0b1006ac31309d23966a164b",
    "eavesdropper_decentralized-decentralized":
        "bc6ca1cf904886baf5cca3ac20111dcf1966c127a8cfaed06bcfbef8bda715d5",
    "eavesdropper_decentralized-tracecorona":
        "b568660b4f4d31845235cf509c041ffbfccdf4b94830e7fc82cd396cef9ea683",
    "fake_claim-decentralized": "7e52919404e9033a3d0ea1b399eccb570821564d05892b8b948fd4456153d35d",
    "fake_claim-tracecorona": "1ced89fcbf7c823e74c7ed53b05b71adb9c3a1d2fbe85f59874d69747fe7ea4d",
    "honest_pair-centralized": "630ef4878a2dfd20bc646a81944787fab006d2f56b8046c5158ad59f8249f49c",
    "honest_pair-decentralized":
        "a668b7c075a73168a24ac621a0538709cb933596077d1d14930102a521e4e483",
    "honest_pair-tracecorona": "879d76f8c7bde482e5ad3413e4340b57f5abf4c55ca0c3dde81df54001943a97",
    "kiss_replay-centralized": "be40dc133deaf23c1edb64e82f692534d599738a01c6be7b807da79444ac6af9",
    "kiss_replay-decentralized":
        "1a8159c7244e683e1111652967e76242fd873ced11c781e2f14a48c38cd7eae8",
    "kiss_replay-tracecorona": "d4ec797b9ea43ba679ba4d148dde4f06e2096910d9c93b38df266500b72d74bd",
    "relay_r1-centralized": "e1c0e4b43c061479cd10a368edfc9d74fa3e8fefa2cec9eda8631b57fff5f03f",
    "relay_r1-centralized-bluetrace":
        "82f30fb0ad5ea62fb1606ac83823fba8666cc5e77fb9fd68c6e45487265cd835",
    "relay_r1-decentralized": "4064e2ba2493e6956b8a51a77b1ea21a8eeefafa73c58a3081d30b46e0cd8ef8",
    "relay_r1-tracecorona": "a0bd1a7d93597684c16ca86a2a6ed1c5ea3678de7c538fc5324dc9ee6c91bf2f",
    "relay_r2-centralized": "f667159b69b618c3d31155801a3825e64b92a01f1a5b0681cbe3cf9ef8d77965",
    "relay_r2-decentralized": "125d01ee304e1b7422540cebdb7415e8dbdc1b6ab083bad923f55ca021849046",
    "relay_r2-tracecorona": "69add42eaba71ec64329a12fb87985c67d0d0e33c4f6c046e875dad52679059a",
    "timeline_chain-centralized":
        "6fcc1e6f37372a3af263677db033a388f34eed4aff92393884640b20e9f903b1",
    "timeline_chain-decentralized":
        "24ae81d7370d917281af4ea9ef813f185521a4543a7d0add62dd59230bc4e559",
    "timeline_chain-tracecorona":
        "548bf5f79b1395317ace0282790e9518aff4c6d5a4f7165c7c40bd6f988a254c",
    "timeline_chain_early-centralized":
        "1df4a58db67d183f5f1d96ec9a7a8596edfe8efc165cf56dbb15e38b439d7d5a",
    "timeline_chain_early-decentralized":
        "742c35434cc9cb7ae48951daf38c66992eca3965ceb6ec600d95798dd09dbf4c",
    "timeline_chain_early-tracecorona":
        "d2a494a75144e854980844b86e84f1067fd1d8a4cffe499893e8c3d8ec31e8bd",
}


LOSSLESS_DIGESTS = {
    "eavesdropper-centralized": "87c9b8dfd0fb6b63745ce0952bc80d4b3c63368f78df729550f3307b6f893e69",
    "eavesdropper-decentralized":
        "4313c23cf36a30f93a5e20de921aeafd2a514dcd96f61071f2bfa21010ed22a9",
    "eavesdropper-tracecorona": "f44513434a3ea1de2eb0748b311f364cf392f2b5355811aa6e259c2a290d9c75",
    "eavesdropper_decentralized-centralized":
        "ed0ee71f00a82c4ad44f67803bf71fd9eb06438bc2ea5d6bcc047d3acb4c2409",
    "eavesdropper_decentralized-decentralized":
        "9dc92baebf7ed63716aa93a489fe623744bd288593d92ae311d44e76e41f2665",
    "eavesdropper_decentralized-tracecorona":
        "691b3c08bb3f74f036fc58f5419e6c724d1ec41b8de6f925c3eb5b8a0615c65b",
    "fake_claim-decentralized": "cd7002c4a38c9bd99ba313aa8acb7642b8bbfbc2d29031df33a0e8bc8557fb16",
    "fake_claim-tracecorona": "30fd3506c593505f7828c946d8783cbc1540438a8ae6fdcd99341117d57470bc",
    "honest_pair-centralized": "0c831cad48498c2c4b44a130c966d7ad857d52d82f28fd62c5bc6c14c45ab77c",
    "honest_pair-decentralized":
        "ec24b30ac3f82681a194b4c7cbdce30f624b83d591f51487b55082b338e575f3",
    "honest_pair-tracecorona": "4f67d169a574e6869e70114ff33e871ee6a7587d2d78a59db33baa6f0f6f1890",
    "kiss_replay-centralized": "c3d6ef3b85ac63fbc07fadfe12f8fc3e01d8d82bd363f43734274f2a77c497d1",
    "kiss_replay-decentralized":
        "7f35ac07ffbef46e8fbd2d918c14110358cdd95760ae6e91d5eb0efc17f747c7",
    "kiss_replay-tracecorona": "fd0f6c7f277a53cfe648ff4310dcbc298c1be17e86382f091efcf119565795f7",
    "long_contact-tracecorona":
        "9e1a420b4b34c18a33129fa34644c52a51776485b561b57194274d35201a2156",
    "population-centralized-1": "2063c891341031fdec22f2892bb7335ee79ea7d130afe9c9e88c86e52f394c42",
    "population-centralized-2": "a2f58eb6fb76378858037e8cec4df47309d964386f3f08752b926fb7fc7fbf34",
    "population-centralized-3": "0547c081d41a250c7541d6051a0e4ba21d8e5f1379bcf55c5dcad360d602546f",
    "population-decentralized-1":
        "2730b3f6c1128b6506176df283a24e39a2c2a619e874af8a4f22f157811600f2",
    "population-decentralized-2":
        "55d11eb42eaf2ad5c55af51bf82933accf3ed2e38d3fc071cf44693b129d9f94",
    "population-decentralized-3":
        "a694e7fe5b18d1cdcc09ae325f050ec36be80e93d8328ad05c62ed3c49a1469a",
    "population-tracecorona-1": "bfcf61bbe85910d79f82e97e3e22a0c2effbe4b8b78b29dc0c53a7ee8d1a1edf",
    "population-tracecorona-2": "8ced094e4038cf2ae771950f74e2a28495c1f354a81e9bd36bdafacdb09feb78",
    "population-tracecorona-3": "6e5cd090118f9ca94a00067b598455384efbc3d3f7783b36fced206298a51842",
    "relay_r1-centralized": "b35cc612f04c46b79129cecc776cc578426c596f89478811226ce4e9193ba62c",
    "relay_r1-centralized-bluetrace":
        "83ed2abf05cc8a0ef18cb1b9d4eff2bfc20253f5502b092ee54933fd58414ef5",
    "relay_r1-decentralized": "3b0cb4cb4a9cf321651af0b90479f70053506004edd6e16a29934251d054a85a",
    "relay_r1-tracecorona": "e004da2071c3043e32e1f4605237aba5c23a66a7cf520e93119607a7c56f068d",
    "relay_r2-centralized": "7b2c5afa91e71b332d3a1f2d4be0c0c78a21dafa7e65b2efe7acaacdee3ea78d",
    "relay_r2-decentralized": "599ac63d62f2e49e6fcd188443674206bf680b8193461a3a631c4118a9d8de2f",
    "relay_r2-tracecorona": "3bc5eb94ff9ca46366a16c1518f45869e74ca955e96192cf43e6977ed6c22883",
    "relay_reaction-tracecorona":
        "c9a55249f12935418bd40ee7996d343c94d7702cd4af50cf0459d264ccf553e8",
    "room-tracecorona": "79eac6c77cf93cf262071ffa0bb2b74ca920a07aeb49031a7aa80f0eeb8d3cb1",
    "timeline_chain-centralized":
        "c233d3a312f4cf19f3469405401374f3a79e569535a3e743d1f7545b52936434",
    "timeline_chain-decentralized":
        "4879e91300f7e3fc3593cadf3a19464ca4d6fa18cd313edcacbc6ef5ea0f0da6",
    "timeline_chain-tracecorona":
        "24da4245ed611cc27b4430e5ea079bbecd564183df72579ca1940bc0725c774a",
    "timeline_chain_early-centralized":
        "ab20d3e617e355fcb2c1fbf7bb55fa69a1bc1936f867750bd43394eaed219492",
    "timeline_chain_early-decentralized":
        "7ed610541300a0a96889b2bec4f1176d316b7e691b0d8be9bfa1b4f87cbf6d4a",
    "timeline_chain_early-tracecorona":
        "7c0050352d89b8a47a3adff26bb6838b9800a8517cbf70c9d1f4ee61bdd6d1cc",
}


def _digest(config: ScenarioConfig) -> str:
    return hashlib.sha256(run_scenario(config).to_json().encode()).hexdigest()


def test_every_accepted_case_is_pinned():
    assert sorted(CONFIGS) == sorted(DIGESTS)
    assert sorted(LOSSLESS) == sorted(LOSSLESS_DIGESTS)


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_report_digest(case):
    assert _digest(CONFIGS[case]) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(LOSSLESS))
def test_lossless_report_digest(case):
    assert _digest(LOSSLESS[case]) == LOSSLESS_DIGESTS[case]
