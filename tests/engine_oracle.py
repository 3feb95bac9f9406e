"""Per-second radio loop used only as a test oracle.

Ticks every link and every sensor once per simulated second, as the
first engine did, and delivers each beacon on its own through the
device's per-beacon rules.  Loss is drawn as the engine draws it: from
each link direction's own generator, once per deliverable second in
time order.  Everything else (clients, handshakes, daily cadence,
report) is the engine's, so that the sighting-run engine can be checked
against a second implementation of the same radio.  A baseline client
gets each beacon as a one-second run; the oracle also keeps what the
first engine kept per beacon: each client's observation log, expired at
midnight, and the provenance of each (client, identifier, local second)
in ``gt_obs_prov``, last writer wins.
"""

import random

from tracecorona.baselines import Observation
from tracecorona.device import APP_UUID, BeaconMessage
from tracecorona.simnet.config import SECONDS_PER_DAY
from tracecorona.simnet.engine import Engine, _BaselineClient, _TraceCoronaClient


class OracleEngine(Engine):
    def __init__(self, config):
        super().__init__(config)
        self._loss_rngs = {}
        self.observations = {
            c.id: [] for c in self.clients.values() if isinstance(c, _BaselineClient)
        }
        self.gt_obs_prov = {}

    def _run_link(self, link, first=False):
        self._tick_link(link, self._now)

    def _sense(self, coverage):
        self._tick_sensor(coverage, self._now)

    def _tick_link(self, link, t):
        if t >= link.end:
            return
        loss = self.config.channel_loss
        arrival = t + link.latency
        for beam in link.beams:  # a -> b, then b -> a on a two-way link
            src, dst = beam.src, beam.dst
            if not src.device.is_advertising(t):
                continue
            if arrival >= self.config.duration_days * SECONDS_PER_DAY:
                continue
            if not dst.device.is_scanning(arrival):
                continue
            if loss:
                rng = self._loss_rngs.get(beam)
                if rng is None:
                    rng = self._loss_rngs[beam] = random.Random(beam.seed)
                if rng.random() < loss:
                    continue
            identifier, rssi = src.identifier_at(t), link.rssi_at(t)
            if link.latency == 0:
                self._receive(dst, src, identifier, rssi, t, link)
            else:
                self._push(arrival, self._receive, dst, src, identifier, rssi, arrival, link)
        self._push(t + 1, self._tick_link, link, t + 1)

    def _receive(self, dst, src, identifier, rssi, t, link):
        if isinstance(dst, _TraceCoronaClient):
            beacon = BeaconMessage(uuid=APP_UUID, ephemeral_id=identifier)
            request = dst.device.on_beacon(beacon, rssi, t)
            if request is not None:
                self.start_handshake(dst, src, request, t, link)
            return
        dst.on_run(self, src, identifier, rssi, (t,), link)
        local = dst.device.local_time(t)
        self.observations[dst.id].append(Observation(identifier, local, rssi))
        self.gt_obs_prov[(dst.id, identifier, local)] = {
            "source": src.id,
            "via": link.adversary,
        }

    def _midnight(self, day):
        super()._midnight(day)
        for device_id, log in self.observations.items():
            client = self.clients[device_id]
            horizon = client.device.local_time(day * SECONDS_PER_DAY) - client.retention_s
            log[:] = [obs for obs in log if obs.time >= horizon]

    def _tick_sensor(self, coverage, t):
        if t >= coverage.end:
            return
        client = self.clients[coverage.device]
        if client.device.is_advertising(t):
            self.sensor_log.append((coverage.id, t, client.id, client.identifier_at(t)))
        self._push(t + 1, self._tick_sensor, coverage, t + 1)


def run_scenario(config):
    return OracleEngine(config).run()
