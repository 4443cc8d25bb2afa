"""Benchmark for groupmatch: one workload per run, seeded, single process.

    python3 perfbench/run.py --workload catalog-verify --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median of several set-ups, each timed from before ``import groupmatch``
until every group of the workload is built), ``run_s`` (the time of one
pass of the op list, each op taking the median of its latencies over the
passes), ``op_ms_p50`` and ``op_ms_p90`` (over every op of every pass)
and ``peak_rss_mb``.  Passes repeat until ``--seconds`` have gone by,
at least two passes are done and at least 100 ops have run.  Every time
is scaled to the host speed of ``calibrate.REFERENCE_S`` by the
calibration kernel timed around it; the wall times are printed beside.

With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer metrics, ``trace.overhead_ratio`` and the
``--jobs`` pool-scaling row.  Spans go to ``perfbench/out/``.

Every op passes a correctness gate (see ``workloads.py``), and must give
byte-identical output on every pass.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, scaled_setup, setup  # noqa: E402

OUT = HERE / "out"
MIN_OPS = 100     # so that op_ms_p90 has at least 10 samples beyond it
MIN_PASSES = 2    # so that every op's latency in run_s is a median of several
POOL_GROUP = "C14"
SETUP_PROBE_TIMEOUT_S = 60


def machine_stamp() -> dict:
    """Which machine produced the numbers; call before any work starts."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "loadavg": list(os.getloadavg())}


def probe_setup(workload: str) -> tuple[float, float]:
    """(wall seconds, speed scale) of a set-up in a fresh interpreter, so the import is cold."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                          capture_output=True, text=True, check=True,
                          timeout=SETUP_PROBE_TIMEOUT_S)
    seconds, scale = done.stdout.split()[-2:]
    return float(seconds), float(scale)


def run_pass(ops, reference: list | None, call_op=None, calibration: list | None = None):
    """Run every op once, in order.

    Returns (latencies, digests, errors); ``errors`` lists (label, why) of
    ops that raised, failed the gate, or differ from ``reference``.  With
    a ``calibration`` list, a calibration sample is appended to it before
    every op and after the last.
    """
    latencies, digests, errors = [], [], []
    for i, (label, call, judge) in enumerate(ops):
        if calibration is not None:
            calibration.append(calibrate.sample())
        start = perf_counter()
        try:
            result = call_op(call) if call_op else call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latencies.append(perf_counter() - start)
            digests.append(None)
            errors.append((label, f"raised {type(exc).__name__}: {exc}"))
            continue
        latencies.append(perf_counter() - start)
        try:
            output, error = judge(result)
        except Exception as exc:  # malformed output fails the gate
            output, error = b"", f"gate could not read the output: {type(exc).__name__}: {exc}"
        digest = hashlib.sha256(output).hexdigest()
        digests.append(digest)
        if error is None and reference is not None and reference[i] != digest:
            error = "output differs from the first pass"
        if error is not None:
            errors.append((label, error))
    if calibration is not None:
        calibration.append(calibrate.sample())
    return latencies, digests, errors


def pool_row(gm) -> tuple[dict, list]:
    """check_automatching on C14 at jobs=1 and jobs=2, tracing off."""
    group = gm.groups.parse_group_spec(POOL_GROUP)
    times, errors = {}, []
    for jobs in (1, 2):
        start = perf_counter()
        report = gm.theorems.check_automatching(group, jobs=jobs)
        times[jobs] = perf_counter() - start
        if report.status != "pass":
            errors.append((f"pool jobs={jobs}", f"status {report.status}"))
    metrics = {"theorems.pool.jobs1_s": (times[1], "s"),
               "theorems.pool.jobs2_s": (times[2], "s"),
               "theorems.pool.speedup": (times[1] / times[2], "ratio")}
    return metrics, errors


@dataclass
class Outcome:
    metrics: dict            # name -> (value, unit)
    samples: dict            # name -> sample count behind the value
    ops: list
    passes: list             # per pass, the wall latency of each op in seconds
    digests: list            # per op, SHA-256 of its output in the first pass
    errors: list             # (label, why) of every failed op
    extra_attempts: int = 0  # calls made outside the passes
    wall: dict = field(default_factory=dict)  # name -> unscaled value, for display
    calibrations: list = field(default_factory=list)  # per pass, the calibration samples

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes) + self.extra_attempts


def timings(setups: list, passes: list) -> dict:
    """The timing metrics, name -> value, from (seconds, scale) set-ups and
    per-pass op latencies."""
    latencies = [x for p in passes for x in p]
    return {
        "setup_s": statistics.median(seconds * scale for seconds, scale in setups),
        "run_s": sum(statistics.median(op) for op in zip(*passes)),
        "op_ms_p50": statistics.median(latencies) * 1000,
        "op_ms_p90": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
    }


def measure(workload, seed: int, seconds: float) -> Outcome:
    gm, groups, *first = scaled_setup(workload)
    setups = [tuple(first)] + [probe_setup(workload.name)
                               for _ in range(workload.setup_repeats - 1)]
    ops = workload.build_ops(gm, groups, seed)
    passes, scaled, calibrations, errors, reference = [], [], [], [], None
    started = perf_counter()
    while (perf_counter() - started < seconds or len(passes) < MIN_PASSES
           or len(passes) * len(ops) < MIN_OPS):
        calibration = []
        latencies, digests, errs = run_pass(ops, reference, calibration=calibration)
        reference = reference or digests
        passes.append(latencies)
        calibrations.append(calibration)
        scaled.append([x * k for x, k in zip(latencies, calibrate.scales(calibration))])
        errors.extend(errs)
    units = {"setup_s": "s", "run_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms"}
    metrics = {name: (value, units[name]) for name, value in timings(setups, scaled).items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wall = timings([(s, 1.0) for s, _ in setups], passes)
    ops_run = len(passes) * len(ops)
    samples = {"setup_s": len(setups), "run_s": len(passes),
               "op_ms_p50": ops_run, "op_ms_p90": ops_run}
    return Outcome(metrics, samples, ops, passes, reference, errors, wall=wall,
                   calibrations=calibrations)


def measure_traced(workload, seed: int) -> Outcome:
    tracer = tracing.Tracer()
    gm, groups, _ = setup(workload, on_import=lambda gm: tracing.install(tracer, gm))
    tracer.restore()
    metrics, errors = pool_row(gm)
    ops = workload.build_ops(gm, groups, seed)
    plain, reference, errs = run_pass(ops, None)
    errors.extend(errs)
    tracing.install(tracer, gm)
    try:
        traced, _, errs = run_pass(ops, reference, tracer.wrap("op", lambda call: call()))
    finally:
        tracer.restore()
    errors.extend(errs)
    metrics.update(tracing.layer_metrics(tracer))
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    tracer.dump(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    return Outcome(metrics, {}, ops, [plain, traced], reference, errors, extra_attempts=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stamp = machine_stamp()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            outcome = measure_traced(workload, args.seed)
        else:
            outcome = measure(workload, args.seed, args.seconds)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stamp["numpy"] = sys.modules["numpy"].__version__
    attempted, failed = outcome.attempted, len(outcome.errors)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print("machine: " + json.dumps(stamp, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        count = f"  (n={outcome.samples[name]})" if name in outcome.samples else ""
        wall = f"  [wall {outcome.wall[name]:.6g} {unit}]" if name in outcome.wall else ""
        print(f"{name} = {value:.6g} {unit}{count}{wall}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for label, why in outcome.errors[:10]:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    combined = hashlib.sha256("".join(d or "-" for d in outcome.digests).encode()).hexdigest()
    print(f"output sha256 over {len(outcome.digests)} ops: {combined}")

    per_op = [{"op": op[0], "sha256": digest, "ms": [p[i] * 1000 for p in outcome.passes]}
              for i, (op, digest) in enumerate(zip(outcome.ops, outcome.digests))]
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "machine": stamp, "attempted": attempted, "failed": failed,
              "metrics": metrics, "wall": outcome.wall, "samples": outcome.samples,
              "failures": outcome.errors,
              "calibration_ms": [[x * 1000 for x in c] for c in outcome.calibrations],
              "ops": per_op}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
