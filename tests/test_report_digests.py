"""Byte identity of simulator reports.

Pins the SHA-256 of ``run_scenario(config).to_json()`` for every bundled
scenario at seed 1 under each scheme its config accepts, plus one
centralized BlueTrace variant.  A change meant to alter only what a run
costs must leave every digest as it is; a change that alters what a run
computes must say why and update the digests it moves.
"""

import hashlib
import json
from importlib import resources

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
    "honest_pair-centralized": "373621edccccbbe626f6de99066dcb35d91f057d2c81d59ec7ce102cf0d9d3f8",
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
    "relay_r2-centralized": "3ff6448d57112427173999305c231a2a09cefbfacfff528bb69d12a25de61f23",
    "relay_r2-decentralized": "125d01ee304e1b7422540cebdb7415e8dbdc1b6ab083bad923f55ca021849046",
    "relay_r2-tracecorona": "0fe70c8d8bb43ec5785aefd742dd3568c5619c005a093d2bd0e2d3969e1c0f7e",
    "timeline_chain-centralized":
        "7ab62518bd0d640a8ce8be39e6a6543ae6e0fd73cab18b1222b2f9913b56d115",
    "timeline_chain-decentralized":
        "24ae81d7370d917281af4ea9ef813f185521a4543a7d0add62dd59230bc4e559",
    "timeline_chain-tracecorona":
        "548bf5f79b1395317ace0282790e9518aff4c6d5a4f7165c7c40bd6f988a254c",
    "timeline_chain_early-centralized":
        "10dc326e06e1721874ff600cc9f54bd2337da4e8eab2ba162190868f718e41be",
    "timeline_chain_early-decentralized":
        "742c35434cc9cb7ae48951daf38c66992eca3965ceb6ec600d95798dd09dbf4c",
    "timeline_chain_early-tracecorona":
        "d2a494a75144e854980844b86e84f1067fd1d8a4cffe499893e8c3d8ec31e8bd",
}


def test_every_accepted_case_is_pinned():
    assert sorted(CONFIGS) == sorted(DIGESTS)


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_report_digest(case):
    text = run_scenario(CONFIGS[case]).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[case]
