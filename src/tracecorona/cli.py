"""Operator command line.

Subcommands: ``run`` executes scenarios, ``serve``/``ingest``/
``dump-stats`` operate the tracing server, ``keys`` prints a frame
keypair, ``attack`` runs the bundled attack scenarios, ``report``
renders the per-scheme comparison matrix, and ``verify-vectors``
recomputes the golden crypto vectors.

Exit codes: 0 success, 1 runtime failure, 2 configuration or usage
error.  ``TC_LOG_LEVEL`` controls logging verbosity.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import os
import random
import sys
from importlib import resources

from . import crypto
from .authority import HealthAuthority
from .server import TracingServer
from .simnet.config import SCHEMES, ConfigError, ScenarioConfig
from .simnet.engine import run_scenario
from .simnet.report import ScenarioReport
from .wire import WireError, WireServer, log_epoch_line, log_record_line, read_log

log = logging.getLogger("tracecorona")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

ATTACK_SCENARIOS = ("relay_r1", "relay_r2", "kiss_replay", "fake_claim")


def _load_config(ref: str) -> ScenarioConfig:
    """A config reference is a file path or a bundled scenario name."""
    if os.path.exists(ref):
        return ScenarioConfig.load(ref)
    candidate = resources.files("tracecorona") / "scenarios" / f"{ref}.json"
    if candidate.is_file():
        return ScenarioConfig.from_dict(json.loads(candidate.read_text()))
    raise ConfigError("<config>", f"no such file or bundled scenario: {ref}")


def _run_one(ref: str, seed: int | None, scheme: str | None) -> ScenarioReport:
    config = _load_config(ref)
    changes = {}
    if seed is not None:
        changes["seed"] = seed
    if scheme is not None:
        changes["scheme"] = scheme
    if changes:
        config = config.replace(**changes)
    log.info("running scenario %s (scheme=%s seed=%d)", config.name, config.scheme, config.seed)
    return run_scenario(config)


def _write_report(report: ScenarioReport, out: str | None, multi: bool) -> None:
    if out is None:
        sys.stdout.write(report.to_text())
        return
    if multi or os.path.isdir(out):
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, f"{report.name}_{report.scheme}.json")
    else:
        path = out
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    log.info("wrote %s", path)


def cmd_run(args) -> int:
    refs = args.config
    if args.jobs > 1 and len(refs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            reports = list(
                pool.map(_run_one, refs, [args.seed] * len(refs), [args.scheme] * len(refs))
            )
    else:
        reports = [_run_one(ref, args.seed, args.scheme) for ref in refs]
    for report in reports:
        _write_report(report, args.out, multi=len(reports) > 1)
    return EXIT_OK


def cmd_serve(args) -> int:
    authority = HealthAuthority(random.Random(args.seed))
    if os.path.exists(args.log) and os.path.getsize(args.log) > 0:
        server = TracingServer.replay_log(args.log, authority)
    else:
        server = TracingServer(authority, log_path=args.log)
    wire_server = WireServer(server, host=args.host, port=args.port)
    host, port = wire_server.address
    print(f"serving on {host}:{port}, log {args.log}", flush=True)
    try:
        wire_server.serve_forever()
    except KeyboardInterrupt:
        wire_server.shutdown()
    return EXIT_OK


def cmd_ingest(args) -> int:
    try:
        records = [record for _epoch, record in read_log(args.input)[1]]
    except (OSError, ValueError, WireError) as exc:
        print(f"cannot read records: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    with open(args.log, "a", encoding="ascii") as handle:
        if args.epoch is not None:
            handle.write(log_epoch_line(args.epoch) + "\n")
        for record in records:
            handle.write(log_record_line(record) + "\n")
    print(f"ingested {len(records)} records into {args.log}")
    return EXIT_OK


def cmd_dump_stats(args) -> int:
    if not os.path.exists(args.log):
        print(f"no such log: {args.log}", file=sys.stderr)
        return EXIT_CONFIG
    authority = HealthAuthority(random.Random(0))
    server = TracingServer.replay_log(args.log, authority)
    stats = server.stats_snapshot()
    by_tag = {"direct": 0, "second_level": 0, "possible_superspreader": 0}
    for _epoch, record in server._records:
        by_tag[record.tag.name.lower()] += 1
    stats["records_by_tag"] = by_tag
    print(json.dumps(stats, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_keys(args) -> int:
    keypair = crypto.generate_frame_keypair(args.frame, random.Random(args.seed))
    print(
        json.dumps(
            {
                "frame_index": keypair.frame_index,
                "private_key": keypair.private_key.hex(),
                "public_key": keypair.public_key.hex(),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_attack(args) -> int:
    names = args.name or list(ATTACK_SCENARIOS)
    for name in names:
        report = _run_one(name, args.seed, args.scheme)
        _write_report(report, args.out, multi=True)
        print(
            f"{report.name} scheme={report.scheme} "
            f"attack_success_rate={report.attack_success_rate:.4f} "
            f"false_notifications={report.false_notification_count}"
        )
    return EXIT_OK


def cmd_report(args) -> int:
    """Aggregate scenario reports into a per-scheme verdict matrix.

    Relay verdicts follow the adversary kinds recorded in each report:
    a one-way relay or replay succeeding at all is "vulnerable"; a
    real-time two-way relay that stays within the 8-connection fan-out
    bound leaves the scheme at "resist" (the attack is possible but
    cannot scale).
    """
    if not args.reports:
        print("no report files given", file=sys.stderr)
        return EXIT_CONFIG
    rows: dict[str, dict[str, str]] = {}
    for path in args.reports:
        if not os.path.exists(path):
            print(f"no such report: {path}", file=sys.stderr)
            return EXIT_CONFIG
        report = ScenarioReport.load(path)
        row = rows.setdefault(report.scheme, {})
        max_fanout = max((v for v in report.relay_fanout.values()), default=0)
        for detail in report.attack_details.values():
            kind = detail["kind"]
            succeeded = detail["successes"] > 0
            if kind == "relay_oneway":
                verdict = "vulnerable" if succeeded else "resist"
            elif kind == "relay_twoway":
                verdict = "vulnerable" if succeeded and max_fanout > 8 else "resist"
            elif kind == "fake_claimer":
                row["fake_claim"] = "vulnerable" if succeeded else "resist"
                continue
            else:
                continue
            if row.get("relay") != "vulnerable":
                row["relay"] = verdict
        worst = max(report.max_linkability_window_s.values(), default=0)
        if worst > 0:
            row["linkability"] = (
                "<=15min" if worst <= 900 else f"unbounded({worst}s)"
            )
        latencies = [v for v in report.notification_latency_days.values()]
        if latencies:
            best = min(latencies)
            current = row.get("latency_days")
            if current is None or best < int(current):
                row["latency_days"] = str(best)
    columns = ["relay", "fake_claim", "linkability", "latency_days"]
    header = ["scheme"] + columns
    widths = [max(len(h), 14) for h in header]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for scheme in sorted(rows):
        row = rows[scheme]
        cells = [scheme] + [row.get(c, "-") for c in columns]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    print("\n".join(lines))
    return EXIT_OK


def cmd_verify_vectors(args) -> int:
    data = json.loads(
        (resources.files("tracecorona") / "vectors" / "crypto_vectors.json").read_text()
    )
    failures = 0

    for entry in data["frame_keypairs"]:
        keypair = crypto.generate_frame_keypair(
            entry["frame_index"], random.Random(entry["seed"])
        )
        ok = (
            keypair.private_key.hex() == entry["private_key"]
            and keypair.public_key.hex() == entry["public_key"]
        )
        failures += not ok
        print(f"keypair seed={entry['seed']} frame={entry['frame_index']}: "
              f"{'ok' if ok else 'MISMATCH'}")

    for entry in data["tokens"]:
        private_a = bytes.fromhex(entry["private_a"])
        private_b = bytes.fromhex(entry["private_b"])
        public_a = bytes.fromhex(entry["public_a"])
        public_b = bytes.fromhex(entry["public_b"])
        token = crypto.derive_token(private_a, public_b)
        ok = (
            token == crypto.derive_token(private_b, public_a)
            and token.hex() == entry["token_secret"]
            and crypto.token_hash(token).hex() == entry["token_hash"]
            and crypto.encrypt_metadata(token, entry["start_time"]).hex()
            == entry["metadata_ciphertext"]
            and crypto.decrypt_metadata(
                token, bytes.fromhex(entry["metadata_ciphertext"])
            )
            == entry["start_time"]
        )
        failures += not ok
        print(f"token seeds=({entry['seed_a']},{entry['seed_b']}): "
              f"{'ok' if ok else 'MISMATCH'}")

    tempids = data["tempids"]
    user = bytes.fromhex(tempids["user_id"])
    tek = bytes.fromhex(tempids["tek"])
    master = bytes.fromhex(tempids["master_key"])
    iv = bytes.fromhex(tempids["iv"])
    auth_tag = bytes.fromhex(tempids["auth_tag"])
    for t_k, expected in tempids["centralized"].items():
        ok = crypto.derive_tempid_centralized(user, int(t_k)).hex() == expected
        failures += not ok
        print(f"centralized t_k={t_k}: {'ok' if ok else 'MISMATCH'}")
    for t_k, expected in tempids["bluetrace"].items():
        ok = (
            crypto.derive_tempid_bluetrace(user, int(t_k), iv, auth_tag, master).hex()
            == expected
        )
        failures += not ok
        print(f"bluetrace t_k={t_k}: {'ok' if ok else 'MISMATCH'}")
    for slot, expected in tempids["decentralized_day3_slots"].items():
        ok = crypto.derive_tempid_decentralized(tek, 3, int(slot)).hex() == expected
        failures += not ok
        print(f"decentralized slot={slot}: {'ok' if ok else 'MISMATCH'}")

    if failures:
        print(f"{failures} vector(s) failed", file=sys.stderr)
        return EXIT_RUNTIME
    print("all vectors ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracecorona",
        description="Encounter-token contact tracing laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one or more scenarios")
    p_run.add_argument("--config", nargs="+", required=True,
                       help="config path(s) or bundled scenario name(s)")
    p_run.add_argument("--seed", type=int, default=None, help="seed override")
    p_run.add_argument("--scheme", default=None,
                       choices=SCHEMES)
    p_run.add_argument("--out", default=None, help="report file or directory")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(fn=cmd_run)

    p_serve = sub.add_parser("serve", help="serve the tracing-server wire API")
    p_serve.add_argument("--log", required=True, help="append-only log path")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0)
    p_serve.add_argument("--seed", type=int, default=0, help="TAN issuance seed")
    p_serve.set_defaults(fn=cmd_serve)

    p_ingest = sub.add_parser("ingest", help="append framed records to a log")
    p_ingest.add_argument("--log", required=True)
    p_ingest.add_argument("--input", required=True,
                          help="file of base64 framed records, one per line")
    p_ingest.add_argument("--epoch", type=int, default=None)
    p_ingest.set_defaults(fn=cmd_ingest)

    p_stats = sub.add_parser("dump-stats", help="replay a log and print stats")
    p_stats.add_argument("--log", required=True)
    p_stats.set_defaults(fn=cmd_dump_stats)

    p_keys = sub.add_parser("keys", help="print a deterministic frame keypair")
    p_keys.add_argument("--seed", type=int, required=True)
    p_keys.add_argument("--frame", type=int, default=0)
    p_keys.set_defaults(fn=cmd_keys)

    p_attack = sub.add_parser("attack", help="run bundled attack scenarios")
    p_attack.add_argument("--name", nargs="*", default=None,
                          help=f"scenario names (default: {' '.join(ATTACK_SCENARIOS)})")
    p_attack.add_argument("--seed", type=int, default=None)
    p_attack.add_argument("--scheme", default=None,
                          choices=SCHEMES)
    p_attack.add_argument("--out", default=None)
    p_attack.set_defaults(fn=cmd_attack)

    p_report = sub.add_parser("report", help="per-scheme comparison matrix")
    p_report.add_argument("reports", nargs="*", help="scenario report files")
    p_report.set_defaults(fn=cmd_report)

    p_verify = sub.add_parser("verify-vectors", help="recheck golden crypto vectors")
    p_verify.set_defaults(fn=cmd_verify_vectors)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("TC_LOG_LEVEL", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure contract: exit 1
        log.exception("runtime failure")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
