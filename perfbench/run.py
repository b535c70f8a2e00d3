#!/usr/bin/env python3
"""The strainamp benchmark: one workload in one process.

    python3 perfbench/run.py --workload model_jets --seed 0 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Inputs are made from ``--seed``; repetitions run for ``--seconds``; every
output is checked. ``--trace 0`` reports the end-to-end metrics, in seconds
calibrated against the host's current speed (see Calibration), ``--trace 1``
the per-layer metrics of a traced run (spans recorded from outside the
program, see tracing.py) plus per-call probes of the public operators on the
workload's own state. Every metric is printed by name with its unit; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. Spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),  # config through grid, initial data and make_state
    "wall_s": ("s", "lower"),  # run(): stepping, monitors, diagnostics, checkpoints
    "peak_rss_mb": ("MB", "lower"),
    "pass_frac": ("ratio", "higher"),  # 1 - fail_frac over the output checks
}
# name: (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "grid.fft_fwd_per_step": ("count", "lower", "wall_s: full_sampled, then model_jets"),
    "grid.fft_inv_per_step": ("count", "lower", "wall_s: full_sampled, then model_jets"),
    "grid.fft_bytes_per_step": ("bytes", "lower", "wall_s: full_sampled, then model_jets"),
    "grid.fft_share": ("ratio", "lower", "wall_s: full_sampled, then model_jets"),
    "grid.fft6_ms": ("ms", "lower", "wall_s: full_sampled, then model_jets"),
    "grid.fft6_ms_1t": ("ms", "lower", "wall_s: full_sampled, then model_jets"),
    "grid.fft_scaling": ("ratio", "higher", "wall_s: full_sampled, then model_jets"),
    "operators.strain_project_ms": ("ms", "lower", "wall_s: model_jets; flat on velocity_ckpt"),
    "operators.s_squared_ms": ("ms", "lower", "wall_s: model_jets"),
    "operators.advection_ms": ("ms", "lower", "wall_s: full_sampled"),
    "operators.omega_outer_ms": ("ms", "lower", "wall_s: full_sampled"),
    "operators.velocity_of_ms": ("ms", "lower", "wall_s: full_sampled"),
    "operators.lambda_fields_ms": ("ms", "lower", "wall_s: full_sampled, via diagnostics"),
    "dynamics.steps": ("count", "lower", "wall_s: all three"),
    "dynamics.step_ms_p50": ("ms", "lower", "wall_s: all three"),
    "dynamics.step_ms_tail": ("ms", "lower", "wall_s: all three"),
    "dynamics.step_samples": ("count", "higher", "the count behind step_ms_tail"),
    "dynamics.cfl_ms": ("ms", "lower", "wall_s: model_jets"),
    "dynamics.loop_other_ms": ("ms", "lower", "wall_s: model_jets"),
    "dynamics.ckpt_write_ms": ("ms", "lower", "wall_s: velocity_ckpt"),
    "dynamics.ckpt_read_ms": ("ms", "lower", "setup_s: velocity_ckpt"),
    "dynamics.ckpt_bytes": ("bytes", "lower", "wall_s and setup_s: velocity_ckpt"),
    "diagnostics.samples": ("count", "lower", "wall_s: full_sampled"),
    "diagnostics.sample_ms_p50": ("ms", "lower", "wall_s: full_sampled; peak_rss_mb if cached"),
    "diagnostics.sample_share": ("ratio", "lower", "wall_s: full_sampled"),
    "initdata.initial_strain_ms": ("ms", "lower", "setup_s: all three"),
    "dynamics.make_state_ms": ("ms", "lower", "setup_s: all three"),
    "bench.trace_overhead_frac": ("ratio", "lower", "none: traced over untraced wall_s, minus 1"),
}

MIN_REPS = 2  # timed repetitions per run, even past --seconds
# Host speed on a shared machine drifts by tens of percent over seconds to
# minutes, and the drift shows in CPU time as much as in wall time. So every
# timed repetition is bracketed by a fixed calibration kernel (below) and its
# times are reported in calibrated seconds: measured seconds times
# CALIBRATION_REF_S[n] over the kernel's time at that moment. The constants are
# the kernel's median per-call time on the 2-vCPU host the benchmark was
# tuned on; they only fix the unit, and raw medians are printed alongside.
CALIBRATION_REF_S = {16: 6.1e-4, 32: 6.4e-3, 64: 4.7e-2}
CALIBRATION_MIN_CALLS, CALIBRATION_MIN_S = 5, 0.15
EXTRA_SETUPS = 2  # set-up-only repetitions after each timed repetition
TRACE_SHARE = 0.85  # share of --seconds for untraced/traced pairs; the rest probes
PROBE_REPS = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--n", type=int, default=None,
                    help="grid size override (the self-test uses 16)")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="reference table of outputs from the seed code")
    return ap.parse_args(argv)


def import_program():
    """Import strainamp from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "strainamp", "__init__.py")):
        sys.exit(f"error: no strainamp package under {SRC}")
    sys.path.insert(0, SRC)
    import strainamp

    if os.path.dirname(os.path.dirname(os.path.abspath(strainamp.__file__))) != SRC:
        sys.exit(f"error: strainamp imported from {strainamp.__file__}, not {SRC}")


def environment(wl) -> dict:
    import numpy
    import scipy
    from strainamp import _kernels, grid

    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        llc = 0
    state = wl.state_bytes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "fft_workers": grid.fft_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": _kernels.HAVE_NUMBA,
        "n": wl.n,
        "state_bytes_computed": state,
        "llc_bytes": llc,
        "state_over_llc_computed": state / llc if llc else None,
    }


def percentile(sorted_vals, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def tail_percentile(n_samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it, but never
    below the median (too few samples then to say more than the median)."""
    return max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / n_samples))))


def per_rep_equal(counter: Counter, runs, what: str) -> int:
    counts = {counter.get(r, 0) for r in runs}
    if len(counts) != 1:
        raise RuntimeError(f"{what} differs between repetitions: {sorted(counts)}")
    return counts.pop()


def layer_metrics(tracer, runs, state, wl, workdir) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced repetitions `runs` and
    from per-call probes on `state`. Returns (values, notes)."""
    from tracing import FFT_NAMES

    spans = [s for s in tracer.spans if s.run in runs]
    by_id = {s.id: s for s in tracer.spans}
    named = lambda name: [s for s in spans if s.name == name]

    def under(span, name) -> bool:
        p = span.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    def per_rep_sum(name):
        total = Counter()
        for s in named(name):
            total[s.run] += s.ms
        return statistics.median(total[r] for r in runs)

    out, notes = {}, {}
    run_spans, steps = named("dynamics.run"), named("dynamics.step")
    run_ms = sum(s.ms for s in run_spans)
    step_ids = {s.id for s in steps}
    nsteps = per_rep_equal(Counter(s.run for s in steps), runs, "step count")
    in_step = [s for s in spans if s.name in FFT_NAMES and s.parent in step_ids]
    out["grid.fft_fwd_per_step"] = sum(
        s.components for s in in_step if s.name == "grid.fft_fwd") / len(steps)
    out["grid.fft_inv_per_step"] = sum(
        s.components for s in in_step if s.name == "grid.fft_inv") / len(steps)
    out["grid.fft_bytes_per_step"] = sum(s.bytes for s in in_step) / len(steps)
    notes["grid.fft_fwd_per_step"] = notes["grid.fft_inv_per_step"] = (
        "component transforms inside dynamics.step")
    notes["grid.fft_bytes_per_step"] = "computed from array sizes, not measured traffic"
    fft_in_run = [s for s in spans if s.name in FFT_NAMES and under(s, "dynamics.run")]
    out["grid.fft_share"] = sum(s.ms for s in fft_in_run) / run_ms

    step_ms = sorted(s.ms for s in steps)
    pct = tail_percentile(len(step_ms))
    out["dynamics.steps"] = nsteps
    out["dynamics.step_ms_p50"] = percentile(step_ms, 50)
    out["dynamics.step_ms_tail"] = percentile(step_ms, pct)
    out["dynamics.step_samples"] = len(step_ms)
    notes["dynamics.step_ms_tail"] = f"p{pct} of {len(step_ms)} steps"
    out["dynamics.cfl_ms"] = statistics.median(s.ms for s in named("dynamics.cfl_dt"))

    # run() minus its step, CFL, sample and checkpoint spans; transforms run()
    # makes itself (for E0 and f0) stay in, as part of the loop's own work
    children = Counter()
    for s in spans:
        if (s.parent is not None and by_id[s.parent].name == "dynamics.run"
                and s.name not in FFT_NAMES):
            children[s.parent] += s.ms
    other = Counter()
    for s in run_spans:
        other[s.run] += s.ms - children[s.id]
    out["dynamics.loop_other_ms"] = statistics.median(other[r] for r in runs)

    samples = named("diagnostics.sample_functionals")
    out["diagnostics.samples"] = per_rep_equal(
        Counter(s.run for s in samples), runs, "diagnostics sample count")
    out["diagnostics.sample_ms_p50"] = statistics.median(s.ms for s in samples)
    out["diagnostics.sample_share"] = sum(s.ms for s in samples) / run_ms
    out["initdata.initial_strain_ms"] = per_rep_sum("initdata.initial_strain")
    out["dynamics.make_state_ms"] = per_rep_sum("dynamics.make_state")

    out.update(probe_operators(state))
    notes["grid.fft6_ms"] = "probe: one 6-component c2r plus r2c pair on nproc workers"
    notes["grid.fft6_ms_1t"] = "probe: the same pair on the workloads' one worker"
    out["grid.fft_scaling"] = out["grid.fft6_ms_1t"] / out["grid.fft6_ms"]
    for key in PER_LAYER:
        if key.startswith("operators."):
            notes[key] = f"probe: median of {PROBE_REPS} calls on fresh fields"

    writes, reads = named("dynamics.write_checkpoint"), named("dynamics.read_checkpoint")
    if writes and reads:
        out["dynamics.ckpt_write_ms"] = statistics.median(s.ms for s in writes)
        out["dynamics.ckpt_read_ms"] = statistics.median(s.ms for s in reads)
        path = wl.segments[0].checkpoint_path
        notes["dynamics.ckpt_write_ms"] = notes["dynamics.ckpt_read_ms"] = "spans"
    else:
        path = os.path.join(workdir, "probe.ckpt")
        out["dynamics.ckpt_write_ms"], out["dynamics.ckpt_read_ms"] = probe_checkpoint(
            state, path)
        notes["dynamics.ckpt_write_ms"] = notes["dynamics.ckpt_read_ms"] = (
            "probe: this workload writes no checkpoint")
    out["dynamics.ckpt_bytes"] = os.path.getsize(path)
    return out, notes


def timed_median_ms(make_args, fn, reps=PROBE_REPS) -> float:
    times = []
    for _ in range(reps):
        args = make_args()
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def probe_operators(state) -> dict:
    """Per-call times of the public operators on the workload's own state
    (the initial state of its last segment: the restart, for velocity_ckpt).

    Every repetition wraps the data in a new field object: real_samples()
    memoizes per object, so reusing one would time a cache hit.
    """
    from strainamp import grid as gridmod
    from strainamp import operators as ops
    from strainamp.fields import SymTensorField, VectorField

    g, sh = state.S.grid, state.S.data
    uh = ops.velocity_of(SymTensorField(g, sh)).data
    wh = ops.vorticity_of(VectorField(g, uh)).data
    S = lambda: (SymTensorField(g, sh),)
    fft6 = lambda grid, data: gridmod.rfft_raw(grid, gridmod.irfft_raw(grid, data))
    out = {
        "operators.strain_project_ms": timed_median_ms(S, ops.strain_project),
        "operators.s_squared_ms": timed_median_ms(S, ops.s_squared),
        "operators.advection_ms": timed_median_ms(
            lambda: (VectorField(g, uh), SymTensorField(g, sh)), ops.advection_term),
        "operators.omega_outer_ms": timed_median_ms(
            lambda: (VectorField(g, wh),), ops.omega_outer),
        "operators.velocity_of_ms": timed_median_ms(S, ops.velocity_of),
        "operators.lambda_fields_ms": timed_median_ms(S, ops.lambda_fields),
        "grid.fft6_ms_1t": timed_median_ms(lambda: (g, sh), fft6),
    }
    pinned = os.environ["STRAINAMP_THREADS"]
    # fft_workers reads it on every call
    os.environ["STRAINAMP_THREADS"] = str(len(os.sched_getaffinity(0)))
    try:
        out["grid.fft6_ms"] = timed_median_ms(lambda: (g, sh), fft6)
    finally:
        os.environ["STRAINAMP_THREADS"] = pinned
    return out


def probe_checkpoint(state, path) -> tuple[float, float]:
    from strainamp import dynamics

    write = timed_median_ms(lambda: (path, state), dynamics.write_checkpoint)
    read = timed_median_ms(lambda: (path,), dynamics.read_checkpoint)
    return write, read


class Calibration:
    """A fixed kernel like one spectral operator at the workload's size: a
    6-component r2c transform, a pointwise multiply, a c2r transform, on one
    worker. It calls scipy.fft directly, so no change to the program moves it;
    it measures only how fast the host runs right now."""

    def __init__(self, n: int) -> None:
        import numpy as np

        if n not in CALIBRATION_REF_S:
            raise ValueError(f"no calibration constant for n = {n}")
        rng = np.random.default_rng(12345)
        self.n = n
        self.ref_s = CALIBRATION_REF_S[n]
        self.data = rng.standard_normal((6, n, n, n))
        self.mult = rng.standard_normal((n, n, n // 2 + 1))
        self.samples: list[float] = []

    def _once(self) -> None:
        import scipy.fft

        f = scipy.fft.rfftn(self.data, axes=(1, 2, 3), workers=1)
        f *= self.mult
        scipy.fft.irfftn(f, s=(self.n,) * 3, axes=(1, 2, 3), workers=1)

    def measure(self) -> float:
        """Median per-call seconds of the kernel, now."""
        times = []
        t_first = time.perf_counter()
        while len(times) < CALIBRATION_MIN_CALLS or (
                time.perf_counter() - t_first < CALIBRATION_MIN_S):
            t0 = time.perf_counter()
            self._once()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        """Factor from measured to calibrated seconds for work done between
        two calibrations."""
        return self.ref_s / (0.5 * (before + after))


def ends_past(t_start: float, t_loop: float, done: int, budget: float) -> bool:
    """Whether one more iteration, at the loop's mean pace so far, would end
    past `budget` seconds after `t_start`."""
    now = time.perf_counter()
    return now - t_start + (now - t_loop) / done > budget


def fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    # One FFT worker and one BLAS/OpenMP thread: on a few shared vCPUs a
    # second worker buys little and makes the times depend on the scheduler.
    os.environ["STRAINAMP_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    warnings.filterwarnings("ignore", message="box_length .* < 16")

    import workloads
    from tracing import FFT_NAMES, WRAPPED, Tracer

    with open(args.reference) as fh:
        reference = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        wl = workloads.make(args.workload, args.seed, workdir, args.n)
        env = environment(wl)
        # the warm-up counts against --seconds, so a slow machine does not
        # stretch the run
        t_start = time.perf_counter()
        workloads.warm_up(wl)
        checks = workloads.Checks()

        def timed_rep():
            rep = workloads.repetition(wl)
            checks.results.extend(workloads.check(wl, reference).results)
            return rep

        metrics, notes, trace_path = {}, {}, None
        if args.trace == 0:
            cal = Calibration(wl.n)
            cal.measure()  # warm-up
            after = cal.measure()
            setups, walls = [], []
            t_loop = time.perf_counter()
            while True:
                before = after
                setup_s, wall_s = timed_rep()
                extra = [workloads.setup_only(wl) for _ in range(EXTRA_SETUPS)]
                after = cal.measure()
                scale = cal.scale(before, after)
                setups += [(s, scale) for s in (setup_s, *extra)]
                walls.append((wall_s, scale))
                if len(walls) >= MIN_REPS and ends_past(t_start, t_loop, len(walls),
                                                        args.seconds):
                    break
            metrics["setup_s"] = statistics.median(s * f for s, f in setups)
            metrics["wall_s"] = statistics.median(w * f for w, f in walls)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            raw = lambda pairs: statistics.median(v for v, _ in pairs)
            notes["setup_s"] = (f"calibrated median of {len(setups)} set-ups; "
                                f"raw median {raw(setups)!r} s")
            notes["wall_s"] = (f"calibrated median of {len(walls)} runs; "
                               f"raw median {raw(walls)!r} s")
            env["calibration_ms_median"] = 1e3 * statistics.median(cal.samples)
            env["calibration_ms_ref"] = 1e3 * cal.ref_s
        else:
            plain, traced, runs = [], [], []
            tracer = Tracer()
            t_loop = time.perf_counter()
            while True:
                plain.append(timed_rep()[1])
                tracer.run_id = f"rep{len(traced)}"
                runs.append(tracer.run_id)
                with tracer:
                    traced.append(timed_rep()[1])
                if ends_past(t_start, t_loop, len(traced), TRACE_SHARE * args.seconds):
                    break
            expected = {name for _, _, name in WRAPPED} | set(FFT_NAMES)
            if not any(seg.checkpoint_every for seg in wl.segments):
                expected -= {"dynamics.write_checkpoint", "dynamics.read_checkpoint"}
            tracer.require(expected)
            state = workloads.build(wl.segments[-1])
            metrics, notes = layer_metrics(tracer, runs, state, wl, workdir)
            metrics["bench.trace_overhead_frac"] = (
                statistics.median(traced) / statistics.median(plain) - 1.0)
            notes["bench.trace_overhead_frac"] = (
                f"median of {len(traced)} traced over {len(plain)} untraced runs, minus 1")
            trace_path = os.path.join(OUT, f"trace-{wl.name}-seed{wl.seed}.json")
            tracer.write(trace_path, env)

        attempted = len(checks.results)
        failed = len(checks.failed)
        if args.trace == 0:
            metrics["pass_frac"] = 1.0 - failed / attempted
        units = END_TO_END if args.trace == 0 else PER_LAYER
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics out of step with the table: "
                               f"{sorted(set(metrics) ^ set(units))}")

        print(f"workload {wl.name} seed {wl.seed} n {wl.n} trace {args.trace} {wl.notes}")
        for key, val in env.items():
            print(f"env {key} = {val}")
        for name, ok, detail in checks.results:
            if not ok:
                print(f"FAILED check {name}: {detail}")
        print(f"fail_frac = {fmt(failed / attempted)} ratio ({failed} of {attempted} checks)")
        for key, (unit, *_) in units.items():
            note = f"  [{notes[key]}]" if key in notes else ""
            print(f"{key} = {fmt(metrics[key])} {unit}{note}")
        if trace_path:
            print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, (u, *_) in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
