"""The population generator is a pure function of its arguments.

    PYTHONPATH=src python -m pytest bench/test_population.py
"""

import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import population  # noqa: E402
from workloads import POPULATION  # noqa: E402


def _generate(seed, scheme="tracecorona", **changes):
    params = dict(POPULATION, channel_loss=0.0, scheme=scheme, seed=seed,
                  second_level=True, separate_infected=True)
    params.update(changes)
    return population.generate(**params)


def test_equal_seeds_give_identical_configs():
    for seed in (0, 1, 7):
        assert _generate(seed).canonical_json() == _generate(seed).canonical_json()


def test_different_seeds_give_different_configs():
    texts = {_generate(seed).canonical_json() for seed in range(5)}
    assert len(texts) == 5


def test_population_shape():
    config = _generate(3)
    days, devices = POPULATION["days"], POPULATION["devices"]
    contacts = POPULATION["contacts_per_device_day"]
    assert len(config.colocation_schedule) == days * contacts * devices // 2
    assert len({d.clock_offset_s for d in config.devices}) == devices
    low, high = POPULATION["duration_s"]
    assert all(low <= c.end - c.start <= high for c in config.colocation_schedule)
    infected = {i.device for i in config.infections}
    assert all(
        not {c.device_a, c.device_b} <= infected for c in config.colocation_schedule
    )
    deferred = round(POPULATION["deferred_fraction"] * devices)
    assert sum(d.derive_mode == "deferred" for d in config.devices) == deferred


def test_link_seconds_do_not_depend_on_the_seed():
    def link_seconds(seed):
        return sum(c.end - c.start for c in _generate(seed).colocation_schedule)

    assert len({link_seconds(seed) for seed in range(5)}) == 1
