"""Output checks computed from the generated inputs, not from saved output.

Each check returns a list of problems; an empty list means the outputs
have the property.  Upload days come from the disease timeline in the
config, and co-locations from its schedule.
"""

from __future__ import annotations

from collections import defaultdict

from tracecorona.simnet.config import SECONDS_PER_DAY

NOON = 12 * 3600
#: Slack for clock offsets and the dwell time when a token's local
#: timestamp is compared with the schedule's true times.
CLOCK_SLACK_S = 60
#: A co-location at least this long, with lossless or mildly lossy
#: radio, always yields a token or an observation.
GUARANTEED_CONTACT_S = 1500


def _contacts(config) -> dict:
    by_pair = defaultdict(list)
    for c in config.colocation_schedule:
        by_pair[frozenset((c.device_a, c.device_b))].append((c.start, c.end))
    return by_pair


def _result_day(config, infection_day: int) -> int:
    t = config.disease_timeline
    return (
        infection_day
        + t.incubation_to_contagious_days
        + t.contagious_to_symptoms_days
        + t.symptoms_to_test_days
        + t.test_to_result_days
    )


def upload_days(config, notifications) -> dict[str, int]:
    """Day of each infected device's noon upload.

    Under the token scheme a direct notification sends an infected
    device to test early: its result comes ``symptoms_to_test +
    test_to_result`` days after the notification, if that is sooner.
    """
    timeline = config.disease_timeline
    early = timeline.symptoms_to_test_days + timeline.test_to_result_days
    days = {}
    for infection in config.infections:
        day = _result_day(config, infection.day)
        if config.scheme == "tracecorona":
            direct = [
                n["day"] for n in notifications
                if n["device"] == infection.device and n["level"] == "direct"
            ]
            if direct and min(direct) < day:
                day = min(day, min(direct) + early)
        days[infection.device] = day
    return days


def check_population(config, report, *, retention: bool = True) -> list[str]:
    """Notifications of a benign population against its schedule.

    A direct notification needs a co-location with its source before the
    source's upload and, with ``retention``, within ``retention_days`` of
    it; a second-level one needs a co-location with a source that was
    itself notified directly, before that notification.  Every long
    co-location with an infected device inside the retention window must
    produce a direct notification from it.
    """
    problems = []
    contacts = _contacts(config)
    notes = report.notifications
    uploads = upload_days(config, notes)
    keep_s = config.retention_days * SECONDS_PER_DAY
    first_direct: dict[str, int] = {}
    direct_times = defaultdict(list)
    for n in notes:
        if n["level"] == "direct":
            direct_times[n["device"]].append(n["time"])
            first_direct.setdefault(n["device"], n["time"])

    def met(a: str, b: str, before: int, after: int) -> bool:
        return any(
            start < before and end > after - CLOCK_SLACK_S
            for start, end in contacts.get(frozenset((a, b)), ())
        )

    for n in notes:
        device, source, t = n["device"], n["source"], n["time"]
        label = f"{device}@{t} {n['level']} from {source}"
        if not n["genuine"]:
            problems.append(f"{label}: not genuine")
        if n["level"] == "second_level":
            sent = first_direct.get(source)
            if sent is None or sent > t:
                problems.append(f"{label}: source was never notified directly")
            elif not met(device, source, sent, sent - keep_s - SECONDS_PER_DAY):
                problems.append(f"{label}: no co-location with the source")
        elif n["superspreader_flag"]:
            if len([x for x in direct_times[source] if x <= t]) < config.superspreader_threshold:
                problems.append(f"{label}: source below the superspreader threshold")
            elif not met(device, source, t, t - keep_s - SECONDS_PER_DAY):
                problems.append(f"{label}: no co-location with the source")
        else:
            if source not in uploads:
                problems.append(f"{label}: source is not infected")
                continue
            day = uploads[source]
            upload_t = day * SECONDS_PER_DAY + NOON
            before, oldest = upload_t, day * SECONDS_PER_DAY - keep_s
            if config.scheme == "decentralized":
                # The upload publishes the daily keys of the upload day and
                # the days before it, and the source keeps broadcasting the
                # upload day's identifiers until midnight.
                before = (day + 1) * SECONDS_PER_DAY
                oldest = (day - config.retention_days + 1) * SECONDS_PER_DAY
            if t < upload_t:
                problems.append(f"{label}: notified before the source uploaded")
            elif not met(device, source, min(before, t), oldest if retention else 0):
                problems.append(f"{label}: no co-location within retention")

    if report.false_notification_count != 0:
        problems.append(f"false_notification_count = {report.false_notification_count}")

    notified = {(n["device"], n["source"]) for n in notes if n["level"] == "direct"}
    for source, day in uploads.items():
        window = ((day - config.retention_days + 1) * SECONDS_PER_DAY, day * SECONDS_PER_DAY)
        for pair, spans in contacts.items():
            if source not in pair:
                continue
            (other,) = pair - {source}
            guaranteed = any(
                end - start >= GUARANTEED_CONTACT_S
                and start >= window[0] and end <= window[1]
                for start, end in spans
            )
            if guaranteed and (other, source) not in notified:
                problems.append(f"{other}: no notification for its contact with {source}")
    return problems


def retention_violations(config, report) -> int:
    """Notifications whose only co-location with the source lies more
    than ``retention_days`` before the source's upload."""
    contacts = _contacts(config)
    uploads = upload_days(config, report.notifications)
    stale = 0
    for n in report.notifications:
        day = uploads.get(n["source"])
        if day is None:
            continue
        oldest = day * SECONDS_PER_DAY - config.retention_days * SECONDS_PER_DAY
        spans = contacts.get(frozenset((n["device"], n["source"])), ())
        if not any(end > oldest - CLOCK_SLACK_S for _start, end in spans):
            stale += 1
    return stale


# -- bundled scenarios ------------------------------------------------------------


def parse_matrix(text: str) -> dict[str, dict[str, str]]:
    lines = [line.split() for line in text.strip().splitlines()]
    header = lines[0]
    return {cells[0]: dict(zip(header[1:], cells[1:])) for cells in lines[1:]}


def check_bundled(reports: dict, matrix: dict) -> list[str]:
    """The paper's properties on one seed's reports, keyed
    ``<scenario>_<scheme>``, and on the comparison matrix."""
    problems = []

    def need(condition: bool, text: str) -> None:
        if not condition:
            problems.append(text)

    tc, dec = matrix.get("tracecorona", {}), matrix.get("decentralized", {})
    need(tc.get("relay") == "resist", f"tracecorona relay verdict {tc.get('relay')}")
    need(tc.get("fake_claim") == "resist", f"tracecorona fake_claim verdict {tc.get('fake_claim')}")
    need(tc.get("linkability") == "<=15min", f"tracecorona linkability {tc.get('linkability')}")
    need(dec.get("relay") == "vulnerable", f"decentralized relay verdict {dec.get('relay')}")
    need(dec.get("fake_claim") == "vulnerable", f"decentralized fake_claim verdict {dec.get('fake_claim')}")

    r1_tc = reports["relay_r1_tracecorona"]
    need(r1_tc.false_notification_count == 0 and r1_tc.attack_success_rate == 0,
         "tracecorona falls to the one-way relay")
    need(reports["kiss_replay_tracecorona"].false_notification_count == 0,
         "tracecorona falls to the same-day replay")
    fake_tc = reports["fake_claim_tracecorona"].attack_details["0"]
    need(fake_tc["successes"] == 0, "a forged possession proof was accepted")
    need(max(reports["eavesdropper_tracecorona"].max_linkability_window_s.values()) <= 900,
         "tracecorona linkable for more than 900 s")

    r1_dec = reports["relay_r1_decentralized"]
    need(r1_dec.false_notification_count >= 1 and r1_dec.attack_success_rate > 0,
         "decentralized resists the one-way relay")
    need(reports["kiss_replay_decentralized"].false_notification_count >= 1,
         "decentralized resists the same-day replay")
    need(reports["fake_claim_decentralized"].attack_success_rate == 1.0,
         "decentralized resists fake claims")

    eav = reports["eavesdropper_decentralized_decentralized"]
    recovered = eav.linkability_recovered.get("walker", {})
    need(bool(recovered), "eavesdropper recovered no published day")
    for day, identifiers in recovered.items():
        need(len(identifiers) == 144 and identifiers == eav.gt_day_identifiers["walker"][day],
             f"eavesdropper day {day}: {len(identifiers)} identifiers, not the day's 144")

    need(max(reports["relay_r2_tracecorona"].relay_fanout.values()) <= 8,
         "relay_r2 fan-out above 8")

    control = reports["timeline_chain_tracecorona"]
    early = reports["timeline_chain_early_tracecorona"]
    need(control.notification_latency_days.get("first_contact") == 5,
         f"timeline latency {control.notification_latency_days.get('first_contact')}")
    gained = (control.first_notification_day.get("second_contact", 0)
              - early.first_notification_day.get("second_contact", 99))
    need(gained >= 2, f"early chain gains {gained} days")

    honest = reports["honest_pair_tracecorona"]
    need(len(honest.notifications) == 1 and honest.notifications[0]["genuine"]
         and honest.false_notification_count == 0,
         "honest_pair does not give exactly one genuine notification")
    return problems
