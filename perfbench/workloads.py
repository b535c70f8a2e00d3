"""Benchmark workloads: inputs made from a seed, one repetition through the
public API that ``strainamp run`` composes, and the checks on its outputs.

A workload is a list of run segments, each a flat config text. One
repetition builds and runs every segment in order, as
``config.parse_config`` -> ``RunConfig.grid_spec/init_spec/sim_params`` ->
``initdata.initial_strain`` -> ``dynamics.make_state`` -> ``dynamics.run``
with a JSON-lines sink, and times set-up and run separately. Entry points
are looked up on their modules at call time so that the tracer's wrappers
see every call.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from strainamp import config, diagnostics, dynamics, initdata

NAMES = ("model_jets", "full_sampled", "velocity_ckpt")

# Scalar identity monitors and the bounds tests/test_acceptance.py holds them to.
RESIDUAL_BOUNDS = {
    "res_orth": 1e-8,  # c05
    "res_isometry": 1e-10,  # c03
    "res_vortdet": 1e-8,  # c02
    "res_enstrophy": 1e-4,  # c06
}
# Reference values may move by reassociation at roundoff level, amplified by
# at most a few tens of nonlinear steps; a real change of the result moves
# them by far more.
REF_RTOL = 1e-9
CKPT_HEADER_BYTES = 6 + 8 + 24 + 1

# Default grid size per workload; the self-test shrinks every workload to 16.
DEFAULT_N = {"model_jets": 64, "full_sampled": 32, "velocity_ckpt": 64}


@dataclass
class Segment:
    text: str  # flat key = value config
    output_path: str
    checkpoint_every: int = 0

    @property
    def checkpoint_path(self) -> str | None:
        return self.output_path + ".ckpt" if self.checkpoint_every > 0 else None


@dataclass
class Workload:
    name: str
    seed: int
    n: int
    segments: list[Segment]
    t_ends: list[float]
    ref_key: str  # key into the reference table: the seed, or "*" if seed-free
    notes: dict = field(default_factory=dict)

    def state_bytes(self) -> int:
        """Bytes of one spectral strain state (6 complex components, r2c layout)."""
        return 6 * self.n * self.n * (self.n // 2 + 1) * 16


def _config_text(**keys) -> str:
    lines = []
    for key, val in keys.items():
        if isinstance(val, float):
            val = repr(val)
        elif isinstance(val, tuple):
            val = ",".join(repr(v) for v in val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def jets_amplitude(n: int, box_length: float, nu: float, factor: float) -> float:
    """The g0 > 0 amplitude rule of the acceptance suite's jets_state: factor
    times the amplitude at which f = -3 nu ||S||_H1^2 - 4 int det S changes sign."""
    grid = config.RunConfig(kind="colliding_jets", equation="model", n=n,
                            box_length=box_length).grid_spec()
    unit = initdata.initial_strain(grid, initdata.InitSpec(kind="colliding_jets"))
    h1 = diagnostics.hs_norm_sq(unit, 1.0)
    det = -diagnostics.det_integral(unit)
    return factor * 3.0 * nu * h1 / (4.0 * det)


def make(name: str, seed: int, workdir: str, n: int | None = None) -> Workload:
    """Build the inputs of workload `name` for `seed` (same seed, same inputs)."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    n = DEFAULT_N[name] if n is None else n
    # Below the default size (the self-test's n = 16) the jets need a box of 4
    # to stay resolved for a few steps, and random data a steeper spectrum to
    # keep its tail under the 1% resolution-loss threshold for every seed.
    small = n < DEFAULT_N[name]
    out = lambda tag: os.path.join(workdir, f"{name}{tag}.jsonl")
    if name == "model_jets":
        # Colliding jets translated by whole grid cells. On the L = 12 box the
        # Gaussian has decayed at the edge, so the sampled field is a periodic
        # roll and every reference value holds for every seed. On the small box
        # it has not, so there the jets stay centred.
        box = 4.0 if small else 12.0
        shift = np.random.default_rng(seed).integers(-2, 3, size=3) * (not small)
        center = tuple(float(s) * box / n for s in shift)
        # 4 CFL-limited steps at n = 64, well before the resolution loss
        # that comes after 27; the last step is cut to half its CFL size.
        # Short runs give many repetitions, and so steady medians, per run.
        t_end = 0.0025 if small else 0.0020
        seg = Segment(
            _config_text(
                kind="colliding_jets", equation="model", n=n, box_length=box,
                nu=1.0, amplitude=jets_amplitude(n, box, 1.0, 1.5), center=center,
                t_end=t_end, cfl=0.8, dt_max=1e-2, dt_min=1e-9,
                output_every=1_000_000, output_path=out(""),
            ),
            out(""),
        )
        return Workload(name, seed, n, [seg], [t_end], "*",
                        {"center_cells": [int(s) for s in shift]})
    if name == "full_sampled":
        t_end = 0.0055  # 6 steps at dt_max, a record after each
        seg = Segment(
            _config_text(
                kind="random_solenoidal", equation="full_strain", n=n,
                box_length=16.0, nu=1.0, amplitude=1.0, seed=seed,
                slope=-8.0 if small else -6.0, t_end=t_end, cfl=1.0, dt_max=1e-3,
                dt_min=1e-12, output_every=1,
                output_path=out(""),
            ),
            out(""),
        )
        return Workload(name, seed, n, [seg], [t_end], str(seed))
    # velocity_ckpt: a checkpoint after every step, then a restart from the
    # last one that runs on as strainamp run would (its clock starts at 0)
    t_end = 0.025  # 3 steps at dt_max per segment
    common = dict(equation="velocity_ns", n=n, box_length=16.0, nu=1.0,
                  t_end=t_end, cfl=0.8, dt_max=1e-2, dt_min=1e-12,
                  output_every=1_000_000)
    first = Segment(
        _config_text(kind="random_solenoidal", amplitude=1.0,
                     slope=-8.0 if small else -4.0,
                     seed=seed, checkpoint_every=1, output_path=out("_a"),
                     **common),
        out("_a"),
        checkpoint_every=1,
    )
    restart = Segment(
        _config_text(kind="from_checkpoint", path=first.checkpoint_path,
                     output_path=out("_b"), **common),
        out("_b"),
    )
    return Workload(name, seed, n, [first, restart], [t_end, t_end], str(seed))


# -- one repetition ------------------------------------------------------------


def build(seg: Segment):
    """Config text to initial state: the timed set-up of one segment."""
    cfg = config.parse_config(seg.text)
    grid = cfg.grid_spec()
    S = initdata.initial_strain(grid, cfg.init_spec())
    return dynamics.make_state(S, 0.0, cfg.sim_params())


def run_segment(seg: Segment, state) -> None:
    with open(seg.output_path, "w") as out:
        def sink(record) -> None:
            out.write(json.dumps(record.to_json_dict()) + "\n")

        report = dynamics.run(state, sink, checkpoint_every=seg.checkpoint_every,
                              checkpoint_path=seg.checkpoint_path)
        out.write(json.dumps(report.to_json_dict()) + "\n")


def repetition(wl: Workload) -> tuple[float, float]:
    """Set up and run every segment; returns (set-up seconds, run seconds)."""
    setup = wall = 0.0
    for seg in wl.segments:
        t0 = time.perf_counter()
        state = build(seg)
        t1 = time.perf_counter()
        run_segment(seg, state)
        t2 = time.perf_counter()
        setup += t1 - t0
        wall += t2 - t1
    return setup, wall


def setup_only(wl: Workload) -> float:
    """Time the set-up of every segment without running; needs the restart
    checkpoint on disk, which warm_up leaves behind."""
    total = 0.0
    for seg in wl.segments:
        t0 = time.perf_counter()
        build(seg)
        total += time.perf_counter() - t0
    return total


def warm_up(wl: Workload) -> None:
    """Touch every code path once (set-up, CFL, one step, one sample, the
    checkpoint writer) so lazy imports and FFT plans are ready before timing."""
    for seg in wl.segments:
        state = build(seg)
        p = state.params
        stepped = dynamics.step(state, min(dynamics.cfl_dt(state), p.t_end))
        diagnostics.sample_functionals(stepped.S, p.nu, p.equation == "full_strain")
        if seg.checkpoint_path:
            dynamics.write_checkpoint(seg.checkpoint_path, stepped)


# -- output checks ---------------------------------------------------------------


@dataclass
class Outputs:
    records: list[dict]
    report: dict


def read_outputs(seg: Segment) -> Outputs:
    with open(seg.output_path) as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    return Outputs([r for r in lines if not r.get("report")],
                   next(r for r in lines if r.get("report")))


class Checks:
    """Named pass/fail results; every failure is counted into fail_frac."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def close(self, name: str, got: float, want: float, rtol: float = REF_RTOL) -> None:
        ok = math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300)
        self.add(name, ok, f"got {got!r}, want {want!r} (rtol {rtol:g})")

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def summarize(outs: Outputs) -> dict:
    """The values the reference table keeps for one segment."""
    last = outs.records[-1]
    return {
        "outcome": outs.report["outcome"],
        "records": len(outs.records),
        "g0": outs.report["g0"],
        "r0": outs.report["r0"],
        "f0": outs.report["f0"],
        "E_final": last["E"],
        "K_final": last["K"],
    }


def check(wl: Workload, reference: dict) -> Checks:
    """Check the outputs the last repetition left on disk.

    Seed-independent checks run for every seed: outcome, final time, identity
    residuals against the acceptance bounds, and the workload's own physics.
    Reference values from the seed code are compared when the table holds
    this workload, grid size and seed (every seed, for model_jets).
    """
    ck = Checks()
    outs = [read_outputs(seg) for seg in wl.segments]
    for i, (o, t_end) in enumerate(zip(outs, wl.t_ends)):
        tag = f"seg{i}"
        ck.add(f"{tag}.outcome", o.report["outcome"] == "resolved_to_t_end",
               o.report["outcome"])
        ck.close(f"{tag}.t_outcome", o.report["t_outcome"], t_end, 1e-12)
        finite = all(math.isfinite(v) for r in o.records for v in r.values()
                     if isinstance(v, float))
        ck.add(f"{tag}.finite", finite)
        for key, bound in RESIDUAL_BOUNDS.items():
            vals = [r[key] for r in o.records if key in r]
            if vals:
                ck.add(f"{tag}.{key}", max(vals) < bound, f"max {max(vals):.2e} < {bound:g}")

    if wl.name == "model_jets":
        o = outs[0]
        E0, r0 = o.records[0]["E"], o.report["r0"]
        ck.add("g0_positive", o.report["g0"] > 0, repr(o.report["g0"]))
        ck.add("E_grows", o.records[-1]["E"] > E0)
        env = diagnostics.envelope_check([(r["t"], r["E"]) for r in o.records], E0, r0)
        ck.add("envelope", env.applicable and env.pass_fraction == 1.0)
        g = [r["g"] for r in o.records]
        ck.add("g_monotone", all(b >= a - 1e-6 * abs(a) for a, b in zip(g, g[1:])))
    elif wl.name == "full_sampled":
        o = outs[0]
        ck.add("ratio_every_record", all("ratio" in r for r in o.records))
        ck.add("res_enstrophy_present",
               sum("res_enstrophy" in r for r in o.records) == len(o.records) - 2)
        K = [r["K"] for r in o.records]
        ck.add("K_non_increasing", all(b <= a * (1 + 1e-12) for a, b in zip(K, K[1:])))
    else:
        a, b = outs
        size = os.path.getsize(wl.segments[0].checkpoint_path)
        ck.add("ckpt_bytes", size == CKPT_HEADER_BYTES + 48 * wl.n**3, str(size))
        ck.close("restart_E_continues", b.records[0]["E"], a.records[-1]["E"], 1e-12)
        ck.close("restart_K_continues", b.records[0]["K"], a.records[-1]["K"], 1e-12)

    ref = reference.get(wl.name, {}).get(str(wl.n), {}).get(wl.ref_key)
    if ref is not None:
        for i, (o, want) in enumerate(zip(outs, ref)):
            got = summarize(o)
            ck.add(f"seg{i}.ref.outcome", got["outcome"] == want["outcome"], got["outcome"])
            ck.add(f"seg{i}.ref.records", got["records"] == want["records"],
                   f"{got['records']} vs {want['records']}")
            for key in ("g0", "r0", "f0", "E_final", "K_final"):
                ck.close(f"seg{i}.ref.{key}", got[key], want[key])
    return ck
