#!/usr/bin/env python3
"""Benchmark of the SilkRoad reproduction: one workload, one run.

    python3 perfbench/run.py --workload pop_replay --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run generates its inputs from ``--seed``, then repeats fixed-size units of
the workload for ``--seconds`` and checks every unit's correctness.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
is the separate traced run: it alternates untraced units with units whose
layer functions are wrapped in spans, adds one ``cProfile`` unit for call
counts, writes the spans of the last traced unit to
``.perfbench_out/spans-<workload>.npz`` and prints the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Exit status: 0 when every check passed, 1 when a correctness check failed
(the JSON line is still printed), 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from speed import Reference
from stats import MIN_BEYOND, OpTally, beyond, tail
from tracing import LAYERS, SpanRecorder, calls_by_layer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: (name, unit) of every end-to-end metric, printed by ``--trace 0``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("conns_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("step_p50_ms", "ms"),
    ("step_p90_ms", "ms"),
    ("control_p50_ms", "ms"),
    ("control_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
)

#: Set-up is timed this many times before every unit (median reported):
#: one build is too short to time steadily.
SETUPS_PER_UNIT = 3
#: Inputs generated per run; units take them in turn.  Seed-to-seed
#: differences in the inputs (update mixes, pool sizes, load peaks) move
#: the metrics as much as the machine does, and pooling several inputs
#: per run averages them down.
INPUTS_PER_RUN = 3


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC}/repro (run from a full checkout)", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def _layer_metrics() -> List[Tuple[str, str]]:
    names: List[Tuple[str, str]] = []
    for layer in LAYERS:
        names.append((f"{layer}.self_share", "fraction"))
        names.append((f"{layer}.calls_per_conn", "1/conn"))
    names += [
        ("repro.calls_per_conn", "1/conn"),
        ("netsim.events_per_conn", "1/conn"),
        ("asicsim.learning_filter.flushes_per_conn", "1/conn"),
        ("asicsim.learning_filter.entries_per_flush", "1/flush"),
        ("core.control_plane.install_retries", "count"),
        ("asicsim.cuckoo.moves_per_insert", "1/insert"),
        ("asicsim.cuckoo.load_peak", "fraction"),
        ("asicsim.cuckoo.insert_failures", "count"),
        ("deploy.fleet.handoffs", "count"),
        ("deploy.fleet.probes_per_sim_s", "1/s"),
        ("core.pcc_update.updates_completed", "count"),
        ("serve.session.advance_ms", "ms/call"),
        ("serve.session.state_ms", "ms/call"),
        ("serve.http.overhead_ms", "ms/call"),
        ("obs.export.render_ms", "ms/call"),
        ("trace.overhead", "fraction"),
    ]
    return names


def _tally(units) -> OpTally:
    tally = OpTally()
    for unit in units:
        tally.record(unit.attempted, unit.failed, "; ".join(unit.reasons))
        if not unit.audit_ok:
            tally.fail_all("; ".join(unit.reasons) or "audit failed")
    for i in {unit.input for unit in units}:
        digests = sorted({unit.digest for unit in units if unit.input == i})
        if len(digests) > 1:
            tally.fail_all(f"decision digests of input {i} differ between repeats: {digests}")
    return tally


def _run_unit(inputs, i: int):
    """Unit ``i``, on input ``i mod len(inputs)``, tagged with that input."""
    unit = inputs[i % len(inputs)].run_unit()
    unit.input = i % len(inputs)
    return unit


def _tails_supported(units) -> bool:
    """Whether every latency family has enough samples for its p90."""
    counts = {"step": 0, "control": 0, "read": 0}
    for unit in units:
        for kind, _, _ in unit.samples:
            counts[kind] += 1
    return all(beyond(n, 90.0) >= MIN_BEYOND for n in counts.values())


def measure(inputs, seconds: float) -> Tuple[Dict[str, float], list, OpTally]:
    """The untraced run: end-to-end metrics over repeated units."""
    inputs[0].setup_once()  # warm lazy imports and caches; not reported
    setups = []
    units = []
    with Reference() as ref:
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds or not _tails_supported(units):
            workload = inputs[len(units) % len(inputs)]
            setups += [workload.setup_once() for _ in range(SETUPS_PER_UNIT)]
            gc.collect()
            units.append(_run_unit(inputs, len(units)))
    pooled: Dict[str, List[float]] = {"step": [], "control": [], "read": []}
    for unit in units:
        for kind, t0, t1 in unit.samples:
            pooled[kind].append(ref.seconds(t0, t1) * 1e3)
    conns = sum(u.conns for u in units)
    metrics = {
        "setup_s": statistics.median(ref.seconds(*span) for span in setups),
        "conns_per_s": conns / sum(ref.seconds(*u.span) for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for kind, values in pooled.items():
        metrics[f"{kind}_p50_ms"] = statistics.median(values)
        metrics[f"{kind}_p90_ms"] = tail(values, 90.0)
    raw_rate = conns / sum(ref.raw_seconds(*u.span) for u in units)
    print(
        f"# {len(units)} units, {conns} connections, {len(setups)} set-ups, "
        f"{len(ref.durations)} reference slices; latency samples: "
        + ", ".join(f"{k}={len(v)}" for k, v in pooled.items())
    )
    print(
        f"# times at the reference speed; raw conns_per_s {raw_rate:.1f} "
        f"(machine at {raw_rate / metrics['conns_per_s']:.3f}x reference)"
    )
    return metrics, units, _tally(units)


def trace(inputs, seconds: float) -> Tuple[Dict[str, float], list, OpTally]:
    """The traced run: per-layer self time, call counts, registry counts."""
    inputs[0].setup_once()
    self_s = dict.fromkeys(LAYERS, 0.0)
    root_s = session_s = 0.0
    per_call = {"advance": [], "state": [], "render": []}
    plain, traced = [], []
    with Reference() as ref:
        t_start = time.perf_counter()
        while not traced or time.perf_counter() - t_start < seconds:
            i = len(traced)
            gc.collect()
            plain.append(_run_unit(inputs, i))
            gc.collect()
            recorder = SpanRecorder()
            recorder.install()
            root = recorder.open_root(run_id=i)
            try:
                traced.append(_run_unit(inputs, i))
            finally:
                recorder.close_root(root)
                recorder.uninstall()
            for layer, layer_s in recorder.layer_self_seconds().items():
                if layer:
                    self_s[layer] += layer_s
            root_s += recorder.root_seconds()
            session_s += recorder.top_level_seconds("serve.session")
            for key, qualname in (
                ("advance", "repro.serve.session.ServeSession.advance"),
                ("state", "repro.serve.session.ServeSession.state"),
                ("render", "repro.obs.export.to_prometheus_text"),
            ):
                per_call[key] += recorder.durations_of(qualname)
    recorder.write(OUT / f"spans-{inputs[0].name}.npz")

    profile = cProfile.Profile()
    gc.collect()
    profile.enable()
    counted = _run_unit(inputs, 0)
    profile.disable()
    calls = calls_by_layer(profile, SRC)

    def rate(group) -> float:
        return sum(u.conns for u in group) / sum(ref.seconds(*u.span) for u in group)

    def mean_ms(values: Sequence[float]) -> float:
        return statistics.mean(values) * 1e3 if values else 0.0

    requests = [span for unit in traced for span in unit.requests]
    request_s = sum(ref.raw_seconds(*span) for span in requests)
    conns = counted.conns
    c = counted.counters
    flushes = (
        c["learning_filter.flushes_timeout_total"]
        + c["learning_filter.flushes_full_total"]
        + c["learning_filter.flushes_forced_total"]
    )
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = self_s[layer] / root_s
        metrics[f"{layer}.calls_per_conn"] = calls[layer] / conns
    metrics.update({
        "repro.calls_per_conn": calls["repro"] / conns,
        "netsim.events_per_conn": c["events"] / conns,
        "asicsim.learning_filter.flushes_per_conn": flushes / conns,
        "asicsim.learning_filter.entries_per_flush": (
            c["learning_filter.batch_size.sum"] / c["learning_filter.batch_size.count"]
            if c["learning_filter.batch_size.count"] else 0.0
        ),
        "core.control_plane.install_retries": c["switch_cpu.install_retries_total"],
        "asicsim.cuckoo.moves_per_insert": (
            c["conn_table.cuckoo_moves_total"] / c["conn_table.inserts_total"]
        ),
        "asicsim.cuckoo.load_peak": c["load_peak"],
        "asicsim.cuckoo.insert_failures": c["conn_table.insert_failures_total"],
        "deploy.fleet.handoffs": c.get("handoffs", 0.0),
        "deploy.fleet.probes_per_sim_s": c.get("probes_per_sim_s", 0.0),
        "core.pcc_update.updates_completed": c["update.updates_completed_total"],
        "serve.session.advance_ms": mean_ms(per_call["advance"]),
        "serve.session.state_ms": mean_ms(per_call["state"]),
        "serve.http.overhead_ms": (
            (request_s - session_s) / len(requests) * 1e3 if requests else 0.0
        ),
        "obs.export.render_ms": mean_ms(per_call["render"]),
        "trace.overhead": rate(traced) / rate(plain) - 1.0,
    })
    print(
        f"# {len(plain)} untraced + {len(traced)} traced + 1 profiled units; "
        f"{len(recorder.name)} spans in the last traced unit"
    )
    return metrics, plain + traced + [counted], _tally(plain + traced + [counted])


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv or None)
    _load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    t0 = time.perf_counter()
    cls = WORKLOADS[args.workload]
    inputs = [cls(args.seed * INPUTS_PER_RUN + j) for j in range(INPUTS_PER_RUN)]
    print(
        f"# {args.workload} seed={args.seed}: {len(inputs)} inputs "
        f"in {time.perf_counter() - t0:.2f}s"
    )
    if args.trace:
        metrics, units, tally = trace(inputs, args.seconds)
        names = _layer_metrics()
    else:
        metrics, units, tally = measure(inputs, args.seconds)
        names = list(END_TO_END)

    digests = {u.input: u.digest[:16] for u in units}
    print(
        "# decision digests "
        + " ".join(f"{i}:{d}" for i, d in sorted(digests.items()))
        + f"; error_rate {tally.error_rate:g}"
    )
    for reason in tally.reasons[:20]:
        print(f"# FAILED: {reason}")
    for name, unit in names:
        print(f"{name:44s} {metrics[name]:14.6g} {unit}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed_total,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    try:
        status = main()
    except Exception:  # report, and exit without a result line
        traceback.print_exc()
        status = 2
    sys.exit(status)
