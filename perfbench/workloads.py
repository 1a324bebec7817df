"""The three workloads, each driven only through the program's public surface.

A workload is built from a seed (inputs generated here, outside every
timer) and then measured as repeated *units*: one complete, fixed-size,
deterministic piece of work on a freshly built system.  Every unit of one
seed must make identical forwarding decisions, which the runner checks
through :func:`stats.decision_digest`.

* ``pop_replay`` — one :class:`SilkRoadSwitch` replays a Figure-16-style
  PoP trace through the default replay driver (``PccWorkload.replay``)
  with a ConnTable sized so peak load reaches ~85 %.
* ``fleet_chaos`` — :func:`run_fleet` on four switches under a fixed
  plan of the ``mixed`` failure pattern, serially.
* ``serve_mix`` — a :class:`ServeSession` behind :class:`ControlServer`
  on 127.0.0.1, with chaos, flight recorder and timeline armed, driven by
  one closed-loop client over one keep-alive connection.

Units record raw ``(kind, start, end)`` intervals; the runner re-expresses
them at the reference speed of :mod:`speed`.  Every workload reports the
same three latency families:

``step``
    wall time to advance simulated time by one fixed step.  serve_mix:
    client latency of ``POST /advance``.  Replays: wall time between
    ticks the benchmark schedules every step on the replay's own event
    queue (through the replay's ``attach`` hook), excluding the read.
``control``
    a pool write.  serve_mix: client latency of pool-write and drain-poll
    requests.  Replays: wall time of each ``apply_update`` call the replay
    driver makes for the trace's DIP-pool updates.
``read``
    an operator read.  serve_mix: client latency of ``GET /state`` and
    ``GET /metrics``.  Replays: a snapshot of the load balancer's metric
    registry every :data:`TICKS_PER_READ` ticks.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import (
    ControlServer,
    FleetSilkRoad,
    ObsOptions,
    ServeConfig,
    ServeSession,
    SilkRoadConfig,
    SilkRoadSwitch,
    audit_switch,
    run_fleet,
)
from repro.experiments.common import PccWorkload, build_workload
from repro.faults.fleet import resolve_fleet_run

from stats import decision_digest

perf = time.perf_counter

#: Tick priority on the replay queue: after every same-time event, like
#: the timeline sampler's epochs.
TICK_PRIORITY = 10

#: Replays read the registry every TICKS_PER_READ ticks (2 s of simulated
#: time): a full snapshot costs ~3 ms on the single switch.
TICKS_PER_READ = 8

#: Registry counters summed into each unit's result (over every switch
#: instance for the fleet).
COUNTERS = (
    "conn_table.cuckoo_moves_total",
    "conn_table.inserts_total",
    "conn_table.insert_failures_total",
    "learning_filter.flushes_timeout_total",
    "learning_filter.flushes_full_total",
    "learning_filter.flushes_forced_total",
    "learning_filter.batch_size.sum",
    "learning_filter.batch_size.count",
    "switch_cpu.install_retries_total",
    "update.updates_completed_total",
)


@dataclass
class UnitResult:
    """What one unit measured and what its correctness checks found."""

    conns: int
    #: perf_counter start and end of the timed phase
    span: Tuple[float, float]
    #: (latency family, start, end) per latency sample
    samples: List[Tuple[str, float, float]]
    attempted: int
    failed: int
    digest: str
    counters: Dict[str, float]
    reasons: List[str] = field(default_factory=list)
    #: set by serve_mix: (start, end) of every client request.
    requests: List[Tuple[float, float]] = field(default_factory=list)
    audit_ok: bool = True
    #: which of the run's inputs the unit replayed (set by the runner)
    input: int = 0


def sum_counters(snapshot: Dict[str, float]) -> Dict[str, float]:
    """Each of :data:`COUNTERS`, summed over every scope that has it."""
    out = {name: 0.0 for name in COUNTERS}
    for key, value in snapshot.items():
        for name in COUNTERS:
            if key == name or key.endswith("." + name):
                out[name] += value
    return out


class ReplayProbe:
    """Timing probes riding a replay's own event queue.

    Installed through ``PccWorkload.replay``'s ``attach`` hook: a tick
    every ``step_s`` of simulated time over the measured window
    ``[0, horizon_s]`` records the interval since the previous tick, and
    every :data:`TICKS_PER_READ` ticks times a registry snapshot;
    ``apply_update`` is timed per call.
    """

    def __init__(self, step_s: float, horizon_s: float) -> None:
        self.step_s = step_s
        self.horizon_s = horizon_s
        self.samples: List[Tuple[str, float, float]] = []
        self.load_peak = 0.0
        self.queue = None
        self.lb = None
        self._last: Optional[float] = None
        self._ticks = 0

    def attach(self, sim, lb) -> None:
        self.queue = sim.queue
        self.lb = lb
        inner = lb.apply_update
        samples = self.samples

        def apply_update(*args, **kwargs):
            t0 = perf()
            try:
                return inner(*args, **kwargs)
            finally:
                samples.append(("control", t0, perf()))

        lb.apply_update = apply_update
        self.queue.schedule(0.0, self._tick, TICK_PRIORITY)

    def _tick(self) -> None:
        now = perf()
        if self._last is not None:
            self.samples.append(("step", self._last, now))
        lb = self.lb
        if self._ticks % TICKS_PER_READ == 0:
            lb.metrics.snapshot()
            self.samples.append(("read", now, perf()))
        self.load_peak = max(self.load_peak, _load_factor(lb))
        self._ticks += 1
        t = self._ticks * self.step_s
        if t <= self.horizon_s:
            self.queue.schedule(t, self._tick, TICK_PRIORITY)
        self._last = perf()


def _load_factor(lb) -> float:
    """ConnTable load factor; the fullest switch's for a fleet."""
    if "conn_table.load_factor" in lb.metrics:
        return lb.metrics.get("conn_table.load_factor").value
    return max(
        (sw.metrics.get("conn_table.load_factor").value for _, _, sw in lb.instances()),
        default=0.0,
    )


class ProbedWorkload(PccWorkload):
    """A :class:`PccWorkload` whose replays also carry a :class:`ReplayProbe`.

    Chaining the probe onto ``attach`` lets runners that build the
    replay themselves (``run_fleet``) be probed without any new hook.
    """

    probe: Optional[ReplayProbe] = None

    @classmethod
    def of(cls, workload: PccWorkload) -> "ProbedWorkload":
        return cls(
            cluster=workload.cluster,
            connections=workload.connections,
            updates=workload.updates,
            horizon_s=workload.horizon_s,
            updates_per_min=workload.updates_per_min,
        )

    def replay(self, lb_factory, faults=None, attach=None, **kwargs):
        probe = self.probe

        def both(sim, lb):
            if attach is not None:
                attach(sim, lb)
            if probe is not None:
                probe.attach(sim, lb)

        return super().replay(lb_factory, faults=faults, attach=both, **kwargs)


class Workload:
    """One seeded workload: a timed set-up probe and a repeatable unit."""

    name = ""

    def setup_once(self) -> Tuple[float, float]:
        """Build the system and announce its VIPs (after a
        ``gc.collect()``); returns the build's (start, end) and discards
        the system."""
        raise NotImplementedError

    def run_unit(self) -> UnitResult:
        raise NotImplementedError


def _time_build(build: Callable[[], object], services) -> Tuple[float, float]:
    gc.collect()
    t0 = perf()
    lb = build()
    for service in services:
        lb.announce_vip(service.vip, service.dips)
    return t0, perf()


class PopReplay(Workload):
    """Figure-16-style PoP trace replayed through one switch."""

    name = "pop_replay"
    SCALE = 1.0  # 10 VIPs x 16 DIPs, 30 000 new connections / minute
    HORIZON_S = 60.0
    #: the top of the paper's Figure 16 update-rate range.
    UPDATES_PER_MIN = 50.0
    #: ~85 % of the trace's peak live connections: SRAM is scarce.
    CONN_TABLE_CAPACITY = 12_000
    STEP_S = 0.25

    def __init__(self, seed: int) -> None:
        self.workload = ProbedWorkload.of(
            build_workload(
                self.UPDATES_PER_MIN, scale=self.SCALE, seed=seed, horizon_s=self.HORIZON_S
            )
        )

    def _build(self) -> SilkRoadSwitch:
        return SilkRoadSwitch(SilkRoadConfig(conn_table_capacity=self.CONN_TABLE_CAPACITY))

    def setup_once(self) -> Tuple[float, float]:
        return _time_build(self._build, self.workload.cluster.services)

    def run_unit(self) -> UnitResult:
        probe = ReplayProbe(self.STEP_S, self.HORIZON_S)
        self.workload.probe = probe
        t0 = perf()
        report, conns, lb = self.workload.replay(self._build)
        span = (t0, perf())
        self.workload.probe = None
        audit = audit_switch(lb, connections=conns)
        reasons = [] if audit.ok else ["audit: " + "; ".join(audit.violations)]
        # No faults are injected, so every drop is unattributed.
        if report.dropped_connections:
            reasons.append(f"{report.dropped_connections} unattributed drops")
        counters = sum_counters(lb.metrics.snapshot())
        counters["events"] = probe.queue.processed
        counters["load_peak"] = probe.load_peak
        return UnitResult(
            conns=len(conns),
            span=span,
            samples=probe.samples,
            attempted=len(conns),
            failed=report.dropped_connections,
            digest=decision_digest(conns),
            counters=counters,
            reasons=reasons,
            audit_ok=audit.ok,
        )


class FleetChaos(Workload):
    """``run_fleet`` on four switches under the ``mixed`` failure pattern."""

    name = "fleet_chaos"
    NUM_SWITCHES = 4
    PATTERN = "mixed"
    SCALE = 0.3  # 3 VIPs
    HORIZON_S = 60.0
    #: With 3 VIPs, run_fleet's default 60/min random-walks pool sizes so
    #: far that pool reads vary by input more than by code.
    UPDATES_PER_MIN = 20.0
    #: The fault plan is fixed; the seed varies the traffic.  A fleet run's
    #: cost follows its plan (ECMP handoffs ranged 0-4 000 across ten
    #: seeded plans, and throughput by 2x), so seeded plans would make the
    #: run-to-run spread a property of the plans, not of the code.  2001 is
    #: the fault seed ``run_fleet`` derives for seed 1; at its default
    #: 4 faults/min it schedules a crash, a flap, a detection delay and a
    #: reassignment.  Denser plans put ~8 % of the steps into fault
    #: recovery, right at the step p90, which then jumps between runs.
    FAULT_SEED = 2001
    FAULTS_PER_MIN = 4.0
    STEP_S = 0.25

    def __init__(self, seed: int) -> None:
        self.seed = seed
        workload, self.plan, self.config, self.fleet_config, self.fault_seed = (
            resolve_fleet_run(
                seed=seed,
                fault_seed=self.FAULT_SEED,
                pattern=self.PATTERN,
                num_switches=self.NUM_SWITCHES,
                scale=self.SCALE,
                horizon_s=self.HORIZON_S,
                updates_per_min=self.UPDATES_PER_MIN,
                faults_per_min=self.FAULTS_PER_MIN,
            )
        )
        self.workload = ProbedWorkload.of(workload)

    def _build(self) -> FleetSilkRoad:
        return FleetSilkRoad(
            num_switches=self.NUM_SWITCHES,
            config=self.config,
            fleet_config=self.fleet_config,
        )

    def setup_once(self) -> Tuple[float, float]:
        return _time_build(self._build, self.workload.cluster.services)

    def run_unit(self) -> UnitResult:
        probe = ReplayProbe(self.STEP_S, self.HORIZON_S)
        self.workload.probe = probe
        t0 = perf()
        result = run_fleet(
            seed=self.seed,
            fault_seed=self.fault_seed,
            pattern=self.PATTERN,
            num_switches=self.NUM_SWITCHES,
            config=self.config,
            fleet_config=self.fleet_config,
            plan=self.plan,
            workload=self.workload,
        )
        span = (t0, perf())
        self.workload.probe = None
        audit = result.audit
        failed = audit.unattributed_violations + audit.unattributed_drops
        reasons = [] if audit.ok else [str(audit)]
        fleet = result.fleet
        counters = sum_counters(fleet.merged_registry().snapshot())
        counters["events"] = probe.queue.processed
        counters["load_peak"] = probe.load_peak
        counters["handoffs"] = fleet.handoffs
        sim_s = self.HORIZON_S - min(c.start for c in result.connections)
        counters["probes_per_sim_s"] = fleet.controller.probes_sent / sim_s
        return UnitResult(
            conns=len(result.connections),
            span=span,
            samples=probe.samples,
            attempted=len(result.connections),
            failed=failed,
            digest=decision_digest(result.connections),
            counters=counters,
            reasons=reasons,
            audit_ok=audit.audit.ok,
        )


class HttpClient:
    """One keep-alive HTTP/1.1 connection; times each request."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.requests: List[Tuple[float, float]] = []

    async def call(
        self, method: str, path: str, body: Optional[Dict[str, object]] = None
    ) -> Tuple[int, bytes, Tuple[float, float]]:
        """Send one request; returns (status, body, (start, end))."""
        payload = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("latin-1")
        t0 = perf()
        self.writer.write(head + payload)
        await self.writer.drain()
        status = int((await self.reader.readline()).split(b" ", 2)[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        data = await self.reader.readexactly(length) if length else b""
        span = (t0, perf())
        self.requests.append(span)
        return status, data, span

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class _VipCycle:
    """One VIP's pool-write cycle: add -> reweight -> drain -> poll.

    The added DIP is a spare the first time and afterwards the DIP the
    previous cycle drained, so pools and spares stay bounded.  An op is
    sent only once the client's last ``/state`` shows its precondition,
    so every request's expected status is 200.
    """

    vip: str
    phase: str = "add"
    recycled: Optional[str] = None
    new_dip: Optional[str] = None
    known: frozenset = frozenset()
    draining: Optional[str] = None
    #: sequence number of the request that started the current phase.
    since: int = 0


class Operator:
    """Chooses the next pool-write request from the latest state read."""

    WEIGHT = 2

    def __init__(self, state: Dict[str, object]) -> None:
        self.cycles = [
            _VipCycle(vip=v["vip"], known=frozenset(v["dips"])) for v in state["vips"]
        ]
        self.cursor = 0
        self.seq = 0
        self.state = state
        self.state_seq = 0

    def observe_state(self, state: Dict[str, object]) -> None:
        self.state = state
        self.state_seq = self.seq

    def _vip_state(self, vip: str) -> Dict[str, object]:
        for v in self.state["vips"]:
            if v["vip"] == vip:
                return v
        raise KeyError(vip)

    def _added(self, cycle: _VipCycle) -> Optional[str]:
        """The DIP this cycle added, once a fresh read shows it settled."""
        if self.state_seq < cycle.since:
            return None
        v = self._vip_state(cycle.vip)
        if v["update_phase"] != "idle" or v["queued_updates"]:
            return None
        if cycle.new_dip is not None:
            return cycle.new_dip if cycle.new_dip in v["dips"] else None
        fresh = [d for d in v["dips"] if d not in cycle.known]
        return fresh[0] if fresh else None

    def next_request(self) -> Optional[Tuple[_VipCycle, str, str, Optional[dict]]]:
        """(cycle, method, path, body) of the next op, or None to skip."""
        n = len(self.cycles)
        for k in range(n):
            cycle = self.cycles[(self.cursor + k) % n]
            request = self._request_for(cycle)
            if request is not None:
                self.cursor = (self.cursor + k + 1) % n
                self.seq += 1
                return (cycle,) + request
        return None

    def _request_for(self, cycle: _VipCycle):
        if cycle.phase == "add":
            body = {"dip": cycle.recycled} if cycle.recycled else None
            return "POST", f"/vips/{cycle.vip}/dips", body
        if cycle.phase == "wait":
            dip = self._added(cycle)
            if dip is None:
                return None
            cycle.new_dip = dip
            return "PATCH", f"/dips/{dip}", {"weight": self.WEIGHT}
        if cycle.phase == "drain":
            dips = self._vip_state(cycle.vip)["dips"]
            cycle.draining = next(d for d in dips if d != cycle.new_dip)
            return "POST", f"/dips/{cycle.draining}/drain", None
        return "GET", f"/dips/{cycle.draining}/drain", None

    def on_response(self, cycle: _VipCycle, body: bytes) -> Optional[str]:
        """Advance the cycle after a 200; returns a problem, if any."""
        if cycle.phase == "add":
            cycle.known = frozenset(self._vip_state(cycle.vip)["dips"])
            cycle.new_dip = cycle.recycled
            cycle.recycled = None
            cycle.phase, cycle.since = "wait", self.seq
        elif cycle.phase == "wait":
            cycle.phase = "drain"
        elif cycle.phase == "drain":
            cycle.phase = "poll"
        else:
            status = json.loads(body).get("status")
            if status == "drained":
                cycle.recycled, cycle.draining, cycle.phase = cycle.draining, None, "add"
            elif status != "draining":
                return f"drain poll returned status {status!r}"
        return None


class ServeMix(Workload):
    """A chaos-armed serving session driven over loopback HTTP."""

    name = "serve_mix"
    SCALE = 0.5  # 5 VIPs, 250 new connections / s
    STEP_S = 0.1
    STEPS = 400
    #: one read every READ_EVERY steps, alternating /state and /metrics.
    READ_EVERY = 2

    def __init__(self, seed: int) -> None:
        self.config = ServeConfig(
            seed=seed,
            scale=self.SCALE,
            chaos=True,
            obs=ObsOptions(record=True, timeline_period_s=1.0),
        )

    def setup_once(self) -> Tuple[float, float]:
        return asyncio.run(self._setup())

    async def _setup(self) -> Tuple[float, float]:
        gc.collect()
        t0 = perf()
        server = ControlServer(ServeSession(self.config))
        await server.start()
        span = (t0, perf())
        await server.stop()
        return span

    def run_unit(self) -> UnitResult:
        return asyncio.run(self._session())

    async def _session(self) -> UnitResult:
        session = ServeSession(self.config)
        server = ControlServer(session)
        await server.start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        client = HttpClient(reader, writer)
        try:
            return await self._drive(session, client)
        finally:
            await client.close()
            await server.stop()

    async def _drive(self, session: ServeSession, client: HttpClient) -> UnitResult:
        samples: List[Tuple[str, float, float]] = []
        bad: List[str] = []
        load_gauge = session.lb.metrics.get("conn_table.load_factor")
        load_peak = 0.0

        async def call(kind, method, path, body=None):
            status, data, span = await client.call(method, path, body)
            samples.append((kind,) + span)
            if status != 200:
                bad.append(f"{method} {path} -> {status}: {data[:200]!r}")
                return None
            return data

        status, data, _ = await client.call("GET", "/state")
        if status != 200:
            raise RuntimeError(f"GET /state -> {status}")
        operator = Operator(json.loads(data))
        advance = {"dt": self.STEP_S}
        t0 = perf()
        for step in range(self.STEPS):
            await call("step", "POST", "/advance", advance)
            load_peak = max(load_peak, load_gauge.value)
            request = operator.next_request()
            if request is not None:
                cycle, method, path, body = request
                data = await call("control", method, path, body)
                if data is not None:
                    problem = operator.on_response(cycle, data)
                    if problem:
                        bad.append(problem)
            if step % self.READ_EVERY == 0:
                if step % (2 * self.READ_EVERY) == 0:
                    data = await call("read", "GET", "/state")
                    if data is not None:
                        operator.observe_state(json.loads(data))
                else:
                    await call("read", "GET", "/metrics")
        status, data, _ = await client.call("POST", "/shutdown")
        span = (t0, perf())
        if status != 200:
            raise RuntimeError(f"POST /shutdown -> {status}")
        report = json.loads(data)
        conns = session.connections
        reasons = list(bad)
        unattributed = int(report["unattributed_violations"])
        if unattributed:
            reasons.append(f"{unattributed} unattributed PCC violations")
        # A single switch attributes no drops, so every drop is unattributed.
        dropped = sum(1 for c in conns if c.ever_dropped)
        if dropped:
            reasons.append(f"{dropped} unattributed drops")
        if not report["audit_ok"]:
            reasons.append("audit: " + str(report["audit_detail"]))
        counters = sum_counters(session.lb.metrics.snapshot())
        counters["events"] = session.queue.processed
        counters["load_peak"] = load_peak
        requests = len(client.requests)
        return UnitResult(
            conns=len(conns),
            span=span,
            samples=samples,
            attempted=requests + len(conns),
            failed=len(bad) + unattributed + dropped,
            digest=decision_digest(conns),
            counters=counters,
            reasons=reasons,
            requests=client.requests,
            audit_ok=bool(report["audit_ok"]),
        )


WORKLOADS = {cls.name: cls for cls in (PopReplay, FleetChaos, ServeMix)}
