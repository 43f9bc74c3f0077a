"""fadecap benchmark: end-to-end and per-layer metrics with oracle checks.

Usage, from the root of a fadecap checkout:

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists): ``curves``,
``threshold_opt`` and ``mc_oracle``. The benchmark drives the library
from outside through the calls ``fadecap sweep`` makes
(``DistributionSpec.build``, then ``capacity`` or ``mc_capacity`` per
point), as a closed loop with one caller: each operation starts when the
previous one returns.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time from fresh interpreters, then whole passes over the workload's
operations until ``--seconds`` have elapsed. Its times are given at the
reference speed of calibrate.py, so that they do not follow the load
other tenants put on a shared machine. ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics, with the
tracing overhead as traced minus untraced wall time. Either way every
result is checked against an mpmath oracle computed outside the timed
regions. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# one worker thread: BLAS and OpenMP pools pinned before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate as C
import workloads as W

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# An operation fails if it raises or misses its oracle by more than
# CAPACITY_ATOL + CAPACITY_RTOL * |reference| nats. The library agrees
# with the oracles to <= 7e-11 nats over these workloads.
CAPACITY_ATOL = 1e-9
CAPACITY_RTOL = 1e-9
# Monte-Carlo estimates must lie within this many standard errors.
MC_SIGMAS = 6.0
SETUP_REPEATS = 5
TRACE_ROUNDS = 2

clock = time.perf_counter


@dataclass(frozen=True)
class Failure:
    """An operation that raised; the exception itself is not kept."""

    error: str
    message: str


def import_fadecap():
    """fadecap from this checkout's sources, never an installed copy. Its
    modules are looked up at call time, so the tracer's patches are seen."""
    sys.path.insert(0, str(SRC))
    import fadecap
    import fadecap.cli

    if not Path(fadecap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"fadecap imported from {fadecap.__file__}, not from {SRC}")
    return fadecap


def tolerance(ref: float) -> float:
    return CAPACITY_ATOL + CAPACITY_RTOL * abs(ref)


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------


def execute(fc, laws, op: W.Op):
    dist = laws[op.law]
    if op.kind == "point":
        return [fc.schemes.capacity(dist, s, op.S, z_t=z_t) for s, z_t in W.CURVE_SCHEMES]
    if op.kind == "tci_opt":
        return fc.schemes.capacity(dist, "tci", op.S, optimize_threshold=True)
    if op.kind == "gaps":
        return fc.asymptotics.gap_report(dist)
    return [fc.mc.mc_capacity(dist, s, op.S, z_t=z_t, n_samples=W.MC_SAMPLES, seed=op.mc_seed + j)
            for j, (s, z_t) in enumerate(W.MC_SCHEMES)]


def run_pass(fc, laws, ops, outcomes, tracer=None, slowdowns=None) -> list[float]:
    """Run ``ops`` back to back; returns each operation's latency in seconds.

    Given a ``slowdowns`` list, the reference work is timed before the
    first operation and after each one, each latency is given at the
    reference speed, and the slowdown it was divided by is appended to the
    list (see calibrate.py).
    """
    latencies = []
    before = C.reference_time() if slowdowns is not None else None
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = execute(fc, laws, op)
        except Exception as exc:  # counted as a failed operation, never fatal
            out = Failure(type(exc).__name__, str(exc))
        latency = clock() - t0
        outcomes.append((op, out))
        if slowdowns is not None:
            after = C.reference_time()
            slowdowns.append(C.slowdown([before, after]))
            latency /= slowdowns[-1]
            before = after
        latencies.append(latency)
    return latencies


class Oracle:
    """mpmath references for every operation of a workload and seed."""

    def __init__(self, workload: str, seed: int):
        import mpmath as mp

        import oracles as O

        mp.mp.dps = O.DPS
        self.O = O
        self.laws = {
            "gamma2": O.gamma2_law(),
            "miso22": O.miso_law(2, 2),
            "maxexp4": O.maxexp_law(4),
            "tab": O.TabulatedLaw("tab", W.tab_grid(seed)),
        }
        self.refs = {}
        self.tci_at = {}
        for op in W.pass_ops(workload, seed):
            if op.ref_key not in self.refs:
                self.refs[op.ref_key] = self._reference(op)

    def _reference(self, op):
        O, law = self.O, self.laws[op.law]
        if op.kind == "gaps":
            return tuple(float(g) for g in O.gaps(law))
        if op.kind == "tci_opt":
            hi = float(law.top) * (1 - 1e-9) if op.law == "tab" else 60.0
            return tuple(float(v) for v in O.tci_best(law, op.S, 1e-4, hi))
        schemes = W.CURVE_SCHEMES if op.kind == "point" else W.MC_SCHEMES
        return tuple(self.capacity(op.law, s, op.S, z_t) for s, z_t in schemes)

    def capacity(self, law: str, scheme: str, S: float, z_t) -> float:
        if law == "gamma2":
            return float(self.O.gamma2_capacity(scheme, S, z_t))
        return float(self.O.capacity(self.laws[law], scheme, S, z_t))

    def tci_value(self, law: str, S: float, z_t: float) -> float:
        key = (law, S, z_t)
        if key not in self.tci_at:
            self.tci_at[key] = float(self.O.capacity(self.laws[law], "tci", S, z_t))
        return self.tci_at[key]

    def check(self, op: W.Op, out):
        """(passed, [(key, error), ...]): errors in nats, or in standard
        errors for mc, keyed by scheme."""
        if isinstance(out, Failure):
            return False, []
        ref = self.refs[op.ref_key]
        if op.kind == "point":
            errs = [(s, abs(r.capacity_nats - v)) for (s, _), r, v in zip(W.CURVE_SCHEMES, out, ref)]
            passed = all(e <= tolerance(v) and not r.degenerate
                         for (_, e), r, v in zip(errs, out, ref))
            return passed, errs
        if op.kind == "tci_opt":
            _, best = ref
            value = self.tci_value(op.law, op.S, out.threshold_z_t)
            err = abs(out.capacity_nats - value)
            passed = err <= tolerance(value) and best - out.capacity_nats <= tolerance(best)
            return passed, [("tci", err)]
        if op.kind == "gaps":
            got = (out.gap_awgn_oa, out.gap_oa_ci, out.gap_awgn_ci)
            err = max(abs(a - b) for a, b in zip(got, ref))
            return err <= CAPACITY_ATOL and out.gap_oa_ra == 0.0, [("gaps", err)]
        # a constant-rate estimate (CI) has no sampling error: the capacity
        # tolerance stands in for it
        sigmas = [abs(e.mean_nats - v) / (e.std_error + tolerance(v) / MC_SIGMAS)
                  for e, v in zip(out, ref)]
        passed = all(x <= MC_SIGMAS for x in sigmas) and not any(e.degenerate for e in out)
        return passed, [("mc", max(sigmas))]


def judge(oracle: Oracle, outcomes):
    """Failures by error type and the worst error per scheme key."""
    failed, worst, errors = 0, {}, {}
    for op, out in outcomes:
        passed, errs = oracle.check(op, out)
        if not passed:
            failed += 1
            kind = out.error if isinstance(out, Failure) else "OracleMismatch"
            errors[kind] = errors.get(kind, 0) + 1
        for key, err in errs:
            worst[key] = max(worst.get(key, 0.0), err)
    return failed, worst, errors


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up time at the reference speed, slowdown) from fresh
    interpreters; the first, which may compile bytecode and fill the page
    cache, is discarded."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        slow = C.slowdown(probe["reference_s"])
        samples.append((probe["setup_s"] / slow, slow))
    return samples[1:]


def build_laws(fc, workload: str, seed: int):
    return {name: W.build_law(fc.cli, fc.distributions, name, seed)
            for name in W.WORKLOAD_LAWS[workload]}


def warm_up(fc, laws, workload: str, seed: int):
    """One untimed call per distinct (law, kind, scheme), so lazy
    initialisation in numpy and scipy is not timed."""
    seen = set()
    for op in W.pass_ops(workload, seed):
        key = (op.law, op.kind, op.scheme)
        if key not in seen:
            seen.add(key)
            run_pass(fc, laws, [op], [])


def run_timed(fc, workload: str, seed: int, seconds: float):
    setup = measure_setup(workload, seed)
    laws = build_laws(fc, workload, seed)
    oracle = Oracle(workload, seed)
    warm_up(fc, laws, workload, seed)

    outcomes, passes, slowdowns = [], [], []
    begin = clock()
    while not passes or clock() - begin < seconds:
        passes.append(run_pass(fc, laws, W.pass_ops(workload, seed, len(passes)), outcomes,
                               slowdowns=slowdowns))

    failed, worst, errors = judge(oracle, outcomes)
    # Latencies are at the reference speed (calibrate.py): a shared machine
    # changes speed by 25-40% for seconds to minutes at a time, and raw
    # times, even a window's fastest repeat, spread from run to run by as
    # much. A pass's wall time sums each operation's median over passes.
    per_op = [statistics.median(repeats) for repeats in zip(*passes)]
    pooled = [latency for p in passes for latency in p]
    attempted = len(outcomes)
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setup), "s"),
        "wall_s": (sum(per_op), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(pooled), "ms"),
        "op_ms_p95": (1e3 * statistics.quantiles(pooled, n=20, method="inclusive")[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
    }
    notes = {
        "passes": len(passes),
        "ops_per_pass": len(per_op),
        "latency_samples": len(pooled),
        "slowdown_median": round(statistics.median(slowdowns), 4),
        "setup_slowdowns": [round(s, 4) for _, s in setup],
        "errors": errors,
        "max_abs_err": {k: float(f"{v:.3g}") for k, v in worst.items()},
    }
    return attempted, failed, metrics, notes


def run_traced(fc, workload: str, seed: int):
    import tracer as T

    build_ms = {}
    for name in W.LAW_SPECS:
        times = []
        for _ in range(5):
            t0 = clock()
            W.build_law(fc.cli, fc.distributions, name, seed)
            times.append(clock() - t0)
        build_ms[name] = 1e3 * statistics.median(times)
    laws = build_laws(fc, workload, seed)
    oracle = Oracle(workload, seed)
    warm_up(fc, laws, workload, seed)

    # untraced and traced passes alternate, so that a change in machine
    # speed hits both; each side keeps its fastest pass
    ops = W.pass_ops(workload, seed)
    outcomes, untraced, traced = [], [], []
    for _ in range(TRACE_ROUNDS):
        untraced.append(sum(run_pass(fc, laws, ops, outcomes)))
        pass_tracer = T.Tracer()
        traced_laws = {name: pass_tracer.traced_sampler(d) for name, d in laws.items()}
        with pass_tracer.installed(fc):
            traced.append((sum(run_pass(fc, traced_laws, ops, outcomes, pass_tracer)), pass_tracer))
    traced_wall, pass_tracer = min(traced, key=lambda pair: pair[0])
    untraced_wall = min(untraced)

    # the heavy-tailed probe is traced on its own so that it does not
    # change the pass's counts; its failures are reported per layer
    probe = W.probe_ops(workload, seed)
    probe_tracer = T.Tracer()
    probe_outcomes = []
    if probe:
        probe_laws = {W.PROBE_LAW: W.build_law(fc.cli, fc.distributions, W.PROBE_LAW, seed)}
        with probe_tracer.installed(fc):
            run_pass(fc, probe_laws, probe, probe_outcomes, probe_tracer)

    failed, worst, errors = judge(oracle, outcomes)
    m = {f"distributions.build_ms.{name}": v for name, v in build_ms.items()}
    m.update(pass_tracer.layer_metrics(ops, W.MC_SAMPLES))
    for scheme in ("awgn", "oa", "ra", "ci", "tci", "ctci"):
        m[f"schemes.max_abs_err_nats.{scheme}"] = worst.get(scheme, 0.0)
    m["asymptotics.max_abs_err_nats"] = worst.get("gaps", 0.0)
    m["mc.max_err_sigma"] = worst.get("mc", 0.0)
    origins = pass_tracer.raised_at_origin() + probe_tracer.raised_at_origin()
    for layer in T.LAYERS:
        m[f"{layer}.raised"] = sum(1 for lay, _ in origins if lay == layer)
    m["probe.frechet_failed"] = sum(isinstance(out, Failure) for _, out in probe_outcomes)
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.traced_wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall

    units = _per_layer_units()
    metrics = {name: (value, units[name]) for name, value in m.items()}
    raised = {}
    for layer, error in origins:
        raised[f"{layer}:{error}"] = raised.get(f"{layer}:{error}", 0) + 1
    trace_file = _write_trace(workload, seed, ops, pass_tracer, probe, probe_tracer, metrics)
    notes = {"errors": errors, "raised_at": raised, "probe_ops": len(probe),
             "trace_file": str(trace_file.relative_to(HERE.parent))}
    return len(outcomes), failed, metrics, notes


def _per_layer_units() -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _write_trace(workload, seed, ops, pass_tracer, probe, probe_tracer, metrics) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    columns = ["name", "start_s", "end_s", "parent", "op", "error", "info"]

    def dump(tracer, op_list):
        t0 = tracer.spans[0].start if tracer.spans else 0.0
        return {"ops": [list(op.ref_key) + [op.mc_seed] for op in op_list],
                "spans": [s.as_list(t0) for s in tracer.spans]}

    record = {
        "workload": workload, "seed": seed, "environment": environment(),
        "span_columns": columns,
        "pass": dump(pass_tracer, ops), "probe": dump(probe_tracer, probe),
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    path.write_text(json.dumps(record))
    return path


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOAD_LAWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "fadecap" / "__init__.py").is_file():
        print(f"perfbench: no fadecap sources under {SRC}", file=sys.stderr)
        return 2
    fc = import_fadecap()
    if args.trace:
        attempted, failed, metrics, notes = run_traced(fc, args.workload, args.seed)
    else:
        attempted, failed, metrics, notes = run_timed(fc, args.workload, args.seed, args.seconds)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"environment={json.dumps(environment())}")
    print(f"# {json.dumps(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
