"""Seeded synthetic populations for the benchmark.

A population is a scenario config with a regular contact pattern: each
day is cut into ``contacts_per_device_day`` windows, and in every
window the devices are paired at random, so each device is in exactly
one contact per window and never in two at once.  Durations are drawn
uniformly from ``duration_s``; a share of the devices is infected on a
random day early enough for its upload to land inside the scenario.

The config is built only through ``ScenarioConfig.from_dict``, so it
passes the same parsing and validation as a config file.
"""

from __future__ import annotations

import random

from tracecorona.simnet.config import SECONDS_PER_DAY, ScenarioConfig

#: Contacts happen between 07:00 and 21:00, before the engine's charging
#: tick (22:00) and feed fetches (23:00, 23:30).
DAY_START = 7 * 3600
DAY_END = 21 * 3600


def generate(
    *,
    devices: int,
    days: int,
    contacts_per_device_day: int,
    duration_s: tuple[int, int],
    infection_fraction: float,
    clock_offset_s: int,
    deferred_fraction: float,
    channel_loss: float,
    scheme: str,
    seed: int,
    second_level: bool = False,
    separate_infected: bool = False,
    name: str = "population",
) -> ScenarioConfig:
    """Build one population.

    ``clock_offset_s`` bounds the devices' clock offsets, drawn without
    repetition from ``[-clock_offset_s, clock_offset_s]``; ``deferred_fraction`` of the
    devices derive tokens at charging time.  Infection days are spread
    evenly over the days whose uploads land inside the scenario.  With ``separate_infected`` no
    two infected devices meet: when both sides of an encounter upload
    it, the engine credits the record to the later uploader and marks
    the other side's notification false (see ``bench/README.md``), and
    that fault is measured by a fixed probe instead of by chance.
    """
    if devices < 2 or devices % 2:
        raise ValueError("devices must be an even number >= 2")
    low, high = duration_s
    window = (DAY_END - DAY_START) // contacts_per_device_day
    if not 0 < low <= high <= window:
        raise ValueError(f"durations must fit a {window} s contact window")
    rng = random.Random(f"population|{seed}|{scheme}|{devices}|{days}")
    ids = [f"d{i:03d}" for i in range(devices)]
    deferred = set(rng.sample(ids, round(deferred_fraction * devices)))
    # Distinct offsets: two devices with equal clocks publish byte-identical
    # records for their shared token, which the engine's client dedupe
    # then mistakes for its own upload (see ``bench/README.md``).
    if 2 * clock_offset_s + 1 < devices:
        raise ValueError("clock_offset_s too small to give every device its own offset")
    offsets = rng.sample(range(-clock_offset_s, clock_offset_s + 1), devices)
    device_entries = [
        {
            "id": device_id,
            "clock_offset_s": offset,
            "derive_mode": "deferred" if device_id in deferred else "eager",
        }
        for device_id, offset in zip(ids, offsets)
    ]

    # Infection days are spread evenly over [0, latest] and dealt to
    # randomly chosen devices: how long an infected device collects
    # contacts before it uploads sets much of the matching work, and an
    # even spread keeps that work alike from seed to seed.  Under the
    # default disease timeline an infection on day d uploads on day d + 8,
    # which must fall inside the scenario.
    latest = max(0, days - 9)
    infected = rng.sample(ids, max(1, round(infection_fraction * devices)))
    spacing = max(1, len(infected) - 1)
    infections = sorted(
        ({"device": device_id, "day": round(k * latest / spacing)}
         for k, device_id in enumerate(infected)),
        key=lambda entry: entry["device"],
    )
    infected = sorted(infected)

    # Each window's durations are the same evenly spaced spread, shuffled
    # over its pairs, so every seed carries the same link-seconds.
    pairs_per_window = devices // 2
    spread = [
        low + (high - low) * k // max(1, pairs_per_window - 1)
        for k in range(pairs_per_window)
    ]
    schedule = []
    for day in range(days):
        for slot in range(contacts_per_device_day):
            window_start = day * SECONDS_PER_DAY + DAY_START + slot * window
            durations = spread[:]
            rng.shuffle(durations)
            for (a, b), duration in zip(_pairs(rng, ids, infected, separate_infected), durations):
                start = window_start + rng.randrange(window - duration + 1)
                schedule.append(
                    {
                        "device_a": a,
                        "device_b": b,
                        "start": start,
                        "end": start + duration,
                        "rssi_profile": rng.choice([-52, -58, -64, -70]),
                    }
                )

    data = {
        "version": 1,
        "name": name,
        "seed": seed,
        "scheme": scheme,
        "duration_days": days,
        "devices": device_entries,
        "colocation_schedule": schedule,
        "infections": infections,
        "channel_loss": channel_loss,
        "second_level_enabled": second_level,
    }
    return ScenarioConfig.from_dict(data)


def _pairs(rng, ids, infected, separate_infected):
    """One random pairing of all devices; with ``separate_infected``
    every infected device is paired with a healthy one."""
    if not separate_infected:
        order = ids[:]
        rng.shuffle(order)
        return list(zip(order[::2], order[1::2]))
    sick = infected[:]
    healthy = [d for d in ids if d not in set(infected)]
    if len(sick) > len(healthy):
        raise ValueError("separate_infected needs at most half the devices infected")
    rng.shuffle(sick)
    rng.shuffle(healthy)
    pairs = list(zip(sick, healthy))
    rest = healthy[len(sick):]
    pairs += list(zip(rest[::2], rest[1::2]))
    rng.shuffle(pairs)
    return pairs
