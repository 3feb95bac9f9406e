"""Per-layer tracing by wrapping the program's public functions.

Nothing under ``src/`` knows about this module.  ``Tracer.install``
replaces each listed function or method with a wrapper that records a
span (layer, name, thread, parent, start, end) and adds the span's self
time, its duration minus the time of the wrapped calls nested in it,
to its layer.  Module-level functions are replaced in every loaded
``tracecorona`` module that holds a reference to them, so calls made
through ``from x import f`` names are traced as well.

Layers take the module names: ``simnet.engine`` is reported as
``engine``, ``simnet.config`` as ``config``, ``simnet.report`` as
``report``.  Counters beyond call counts come from small hooks that
read a call's arguments or result.  ``gc`` pauses come from
``gc.callbacks``.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import json
import sys
import threading
import time
from collections import Counter

from tracecorona import authority, baselines, cli, crypto, device, exposure, server, wire
from tracecorona.simnet import config, engine, report

LAYERS = (
    "engine", "device", "crypto", "baselines", "server", "wire",
    "authority", "exposure", "config", "report", "cli",
)

#: Spans kept for the trace file; counters and self times cover all calls.
MAX_SPANS = 100_000


class _CountingHeap:
    """Stand-in for ``heapq`` in the engine module: counts pushes and
    the peak queue length."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def heappush(self, queue, item):
        heapq.heappush(queue, item)
        counts = self._tracer.counts
        counts["engine.events"] += 1
        if len(queue) > counts["engine.queue_peak"]:
            counts["engine.queue_peak"] = len(queue)

    heappop = staticmethod(heapq.heappop)


class Tracer:
    def __init__(self):
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        #: inclusive time per wrapped function, "layer.name"
        self.inclusive_s: Counter = Counter()
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: (id, parent id or 0, name id, thread, start, end), in end order
        self._spans: list[tuple] = []
        self._undo: list = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, layer: str, name: str, fn, hook=None):
        full = f"{layer}.{name}"
        calls_key = f"{full}.calls"
        if full not in self._name_ids:
            self._name_ids[full] = len(self._names)
            self._names.append(full)
        name_id = self._name_ids[full]
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # frame: [time of nested wrapped calls, span id]
            frame = [0.0, next(tracer._ids)]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(stack, layer, calls_key, name_id, start)
                if hook is not None:
                    hook(tracer, args, kwargs, None, exc)
                raise
            tracer._close(stack, layer, calls_key, name_id, start)
            if hook is not None:
                hook(tracer, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _close(self, stack, layer, calls_key, name_id, start) -> None:
        end = time.perf_counter()
        child_s, span_id = stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.inclusive_s[self._names[name_id]] += duration
        self.counts[calls_key] += 1
        parent = 0
        if stack:
            stack[-1][0] += duration
            parent = stack[-1][1]
        if len(self._spans) < MAX_SPANS:
            self._spans.append(
                (span_id, parent, name_id, threading.get_ident(), start, end)
            )

    # -- installation -----------------------------------------------------------

    def _patch_function(self, module, name: str, layer: str, hook=None) -> None:
        original = getattr(module, name)
        traced = self._wrapper(layer, name, original, hook)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("tracecorona"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, name: str, layer: str, hook=None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrapper(layer, name, raw.__func__, hook))
        else:
            traced = self._wrapper(layer, name, raw, hook)
        setattr(cls, name, traced)
        self._undo.append((cls, name, raw))

    def install(self) -> None:
        f, m = self._patch_function, self._patch_method
        # engine
        f(engine, "run_scenario", "engine", _on_run_scenario)
        m(engine.Engine, "run", "engine")
        engine.heapq = _CountingHeap(self)
        self._undo.append((engine, "heapq", heapq))
        # device
        for name in ("on_beacon", "complete_handshake", "keypair", "charge",
                     "purge_expired", "try_open_channel", "abort_handshake"):
            m(device.Device, name, "device", _on_beacon if name == "on_beacon" else None)
        m(device.TokenStore, "purge", "device")
        # crypto
        for name in ("generate_frame_keypair", "validate_public_key", "derive_token",
                     "token_hash", "encrypt_metadata", "derive_tempid_centralized",
                     "derive_tempid_bluetrace", "derive_tempid_decentralized",
                     "derive_tempids_decentralized"):
            f(crypto, name, "crypto")
        f(crypto, "decrypt_metadata", "crypto", _on_decrypt)
        # baselines
        f(baselines, "match_observations", "baselines", _on_match_observations)
        for name in ("new_daily_key", "tempid_at"):
            f(baselines, name, "baselines")
        m(baselines.CentralizedServer, "match", "baselines", _on_central_match)
        m(baselines.CentralizedServer, "ingest_upload", "baselines", _on_central_ingest)
        for name in ("register", "tempid_for"):
            m(baselines.CentralizedServer, name, "baselines")
        for name in ("publish", "download"):
            m(baselines.DecentralizedServer, name, "baselines")
        # server
        for name in ("upload_infected", "upload_second_level", "upload_superspreader_proof"):
            m(server.TracingServer, name, "server", _on_upload)
        m(server.TracingServer, "fetch_feed", "server", _on_fetch_feed)
        m(server.TracingServer, "stats_snapshot", "server", _on_stats)
        m(server.TracingServer, "replay_log", "server", _on_replay)
        for name in ("advance_epoch", "register_active", "report_notification"):
            m(server.TracingServer, name, "server")
        # wire
        f(wire, "encode_records", "wire", _on_encode_records)
        f(wire, "decode_records", "wire", _on_decode_records)
        for name in ("read_log", "log_record_line", "handle_request",
                     "encode_upload_infected", "encode_upload_second_level",
                     "encode_upload_superspreader", "encode_fetch_feed"):
            f(wire, name, "wire")
        # authority
        m(authority.HealthAuthority, "issue_tan", "authority")
        m(authority.HealthAuthority, "verify_tan", "authority", _on_verify_tan)
        # exposure
        f(exposure, "match_feed", "exposure", _on_match_feed)
        for name in ("build_upload_records", "redact_tokens",
                     "detect_superspreader_candidate", "risk_score"):
            f(exposure, name, "exposure")
        # config
        m(config.ScenarioConfig, "from_dict", "config")
        for name in ("validate", "replace", "load", "canonical_json", "digest", "to_dict"):
            m(config.ScenarioConfig, name, "config")
        # report
        for name in ("to_json", "to_text"):
            m(report.ScenarioReport, name, "report", _on_report_text)
        for name in ("load", "from_json", "from_dict"):
            m(report.ScenarioReport, name, "report")
        # cli
        f(cli, "main", "cli")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Sums so far, in the form the per-layer metrics take."""
        values = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        values.update(self.counts)
        values.update(self.maxima)
        values["server.replay_s"] = self.inclusive_s["server.replay_log"]
        values["gc.pause_s"] = self.gc_pause_s
        values["gc.collections"] = self.gc_collections
        return values

    def write(self, path: str, extra: dict) -> None:
        """Write the kept spans and the totals as one JSON document."""
        spans = [
            [span_id, parent, self._names[name_id], thread, round(start, 7), round(end, 7)]
            for span_id, parent, name_id, thread, start, end in self._spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "columns": ["id", "parent", "name", "thread", "start", "end"],
                    "spans": spans,
                    "spans_total": next(self._ids) - 1,
                    "totals": self.snapshot(),
                    **extra,
                },
                handle,
            )


# -- counter hooks: (tracer, args, kwargs, result, exception) ----------------------


def _on_run_scenario(tracer, args, kwargs, result, exc):
    cfg = args[0] if args else kwargs["config"]
    link_seconds = sum(c.end - c.start for c in cfg.colocation_schedule)
    for adv in cfg.adversaries:
        if adv.kind in ("relay_oneway", "relay_twoway"):
            link_seconds += (adv.end - adv.start) * len(adv.victims)
        elif adv.kind == "eavesdropper":
            link_seconds += sum(s.end - s.start for s in adv.sensors)
    tracer.counts["engine.link_seconds"] += link_seconds


def _on_beacon(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["device.handshake_requests"] += 1


def _on_decrypt(tracer, args, kwargs, result, exc):
    if isinstance(exc, crypto.AuthenticationFailure):
        tracer.counts["crypto.decrypt_metadata.failed"] += 1


def _on_match_observations(tracer, args, kwargs, result, exc):
    teks, observations = args[0], args[1]
    tracer.counts["baselines.pairs_scanned"] += len(teks) * len(observations)
    tracer.maxima["baselines.observations_max"] = max(
        tracer.maxima["baselines.observations_max"], len(observations)
    )
    if result is not None:
        tracer.counts["baselines.matches"] += len(result)


def _on_central_match(tracer, args, kwargs, result, exc):
    central, uploaded = args[0], args[1]
    tracer.counts["baselines.pairs_scanned"] += len(central._registry) * len(uploaded)
    if result is not None:
        tracer.counts["baselines.matches"] += len(result)


def _on_central_ingest(tracer, args, kwargs, result, exc):
    tracer.maxima["baselines.observations_max"] = max(
        tracer.maxima["baselines.observations_max"], len(args[2])
    )


def _on_upload(tracer, args, kwargs, result, exc):
    if result is not None and result.accepted:
        tracer.counts["server.records_stored"] += result.stored


def _on_fetch_feed(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["server.records_served"] += len(result.records)


def _on_stats(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.maxima["server.records_held"] = max(
            tracer.maxima["server.records_held"], result["records_published"]
        )


def _on_replay(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.maxima["server.records_held"] = max(
            tracer.maxima["server.records_held"], len(result._records)
        )


def _on_encode_records(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["wire.records_encoded"] += len(args[0])
        tracer.counts["wire.bytes"] += len(result)


def _on_decode_records(tracer, args, kwargs, result, exc):
    if result is not None:
        offset = args[1] if len(args) > 1 else kwargs.get("offset", 0)
        tracer.counts["wire.records_decoded"] += len(result[0])
        tracer.counts["wire.bytes"] += result[1] - offset


def _on_verify_tan(tracer, args, kwargs, result, exc):
    if result is False:
        tracer.counts["authority.verify_tan.rejected"] += 1


def _on_match_feed(tracer, args, kwargs, result, exc):
    feed = args[1] if len(args) > 1 else kwargs["feed"]
    tracer.counts["exposure.records_scanned"] += len(feed.records)
    if result is not None:
        tracer.counts["exposure.notifications"] += len(result)


def _on_report_text(tracer, args, kwargs, result, exc):
    if result is not None:
        tracer.counts["report.bytes"] += len(result)
