"""Command-line surface: run, verify, sweep, report."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

from .config import ConfigError, RunConfig, parse_config, parse_sweep_config
from .diagnostics import RECORD_KEYS, envelope_check
from .dynamics import make_state, run
from .grid import fft_workers
from .initdata import initial_strain
from .verify import format_table, run_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 10
EXIT_RESOLUTION = 11

_OUTCOME_EXIT = {
    "resolved_to_t_end": EXIT_OK,
    "blowup_detected": EXIT_BLOWUP,
    "resolution_lost": EXIT_RESOLUTION,
}


def _build_state(cfg: RunConfig):
    grid = cfg.grid_spec()
    S = initial_strain(grid, cfg.init_spec())
    return make_state(S, 0.0, cfg.sim_params())


def _execute_run(cfg: RunConfig) -> int:
    ckpt_path = None
    if cfg.checkpoint_every > 0:
        if cfg.output_path == "-":
            raise ConfigError("checkpoint_every requires a file output_path")
        ckpt_path = cfg.output_path + ".ckpt"
    state = _build_state(cfg)
    # opened only now, so a config that set-up rejects leaves a previous run's
    # output as it was
    stdout = cfg.output_path == "-"
    with nullcontext(sys.stdout) if stdout else open(cfg.output_path, "w") as out:

        def sink(record) -> None:
            out.write(json.dumps(record.to_json_dict()) + "\n")

        report = run(
            state,
            sink,
            checkpoint_every=cfg.checkpoint_every,
            checkpoint_path=ckpt_path,
        )
        out.write(json.dumps(report.to_json_dict()) + "\n")
    return _OUTCOME_EXIT[report.outcome]


def cmd_run(args) -> int:
    try:
        return _execute_run(parse_config(_read(args.config)))
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def cmd_verify(args) -> int:
    try:
        fft_workers()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    results = run_checks(args.level)
    print(format_table(results))
    failures = [r for r in results if not r.passed]
    if failures:
        print("failed checks: " + ", ".join(r.name for r in failures), file=sys.stderr)
        return 1
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        base, ranges = parse_sweep_config(_read(args.config))
        fft_workers()
        # opened before any point runs, so a bad path costs no computation
        out = sys.stdout if base.output_path == "-" else open(base.output_path, "w")
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    points = [(m, nu) for m in ranges["amplitude"] for nu in ranges["nu"]]

    def one(point):
        m, nu = point
        try:
            cfg = RunConfig(**{**base.__dict__, "amplitude": m, "nu": nu})
            report = run(_build_state(cfg))
        except ValueError as exc:  # ConfigError included: one bad point, not the sweep
            return m, nu, None, str(exc)
        return m, nu, report, None

    try:
        with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            rows = list(pool.map(one, points))
        out.write("m,nu,f0,g0,r0,outcome,t_outcome\n")
        for m, nu, rep, _ in rows:
            if rep is None:
                out.write(f"{m!r},{nu!r},,,,error,\n")
            else:
                out.write(
                    f"{m!r},{nu!r},{rep.f0!r},{rep.g0!r},{rep.r0!r},"
                    f"{rep.outcome},{rep.t_outcome!r}\n"
                )
    finally:
        if out is not sys.stdout:
            out.close()
    errors = [(m, nu, msg) for m, nu, rep, msg in rows if rep is None]
    for m, nu, msg in errors:
        print(f"error: point m={m!r}, nu={nu!r}: {msg}", file=sys.stderr)
    if errors:
        return EXIT_CONFIG
    return EXIT_OK


def _check_record(obj):
    """Return one parsed line, or raise ValueError naming what `report` lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    rep = bool(obj.get("report"))
    for key in ("outcome", "t_outcome") if rep else ("t", "E"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    for key in ("t_outcome", "r0") if rep else RECORD_KEYS:
        val = obj.get(key, 0.0)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(f"key {key!r} is not a number: {val!r}")
    return obj


def cmd_report(args) -> int:
    try:
        with open(args.file) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    records = []
    report = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = _check_record(json.loads(line))
        except ValueError as exc:  # json.JSONDecodeError included
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if obj.get("report"):
            report = obj
        else:
            records.append(obj)
    if not records:
        print("error: no diagnostics records found", file=sys.stderr)
        return EXIT_CONFIG

    print(f"{len(records)} samples, t in [{records[0]['t']!r}, {records[-1]['t']!r}]")
    print(f"{'key':<14}{'min':>14}{'max':>14}{'final':>14}")
    for key in RECORD_KEYS:
        vals = [r[key] for r in records if key in r]
        if not vals:
            continue
        print(f"{key:<14}{min(vals):>14.5e}{max(vals):>14.5e}{vals[-1]:>14.5e}")

    for name in ("g", "f"):
        vals = [r[name] for r in records if name in r]
        if len(vals) >= 2:
            drops = max(
                (vals[i] - vals[i + 1] for i in range(len(vals) - 1)), default=0.0
            )
            verdict = "yes" if drops <= 1e-6 else f"no (max drop {drops:.3e})"
            print(f"{name} monotone non-decreasing: {verdict}")
    evals = [r["E"] for r in records]
    drops = max((evals[i + 1] - evals[i] for i in range(len(evals) - 1)), default=0.0)
    print(
        "E monotone non-increasing: "
        + ("yes" if drops <= 1e-9 * max(evals) else f"no (max rise {drops:.3e})")
    )

    if report is not None:
        print(f"outcome: {report['outcome']} at t={report['t_outcome']!r}")
        r0 = report.get("r0", 0.0)
        if r0 > 0:
            env = envelope_check(
                [(r["t"], r["E"]) for r in records], records[0]["E"], r0
            )
            print(f"envelope pass fraction: {env.pass_fraction:.4f}")
            t_mid = 0.5 / r0
            mid = next((r for r in records if r["t"] >= t_mid), None)
            for key in (k for k in RECORD_KEYS if k.startswith("acc_")):
                if mid and key in mid and mid[key] > 0 and key in records[-1]:
                    print(
                        f"{key} growth from t=0.5/r0: "
                        f"{records[-1][key] / mid[key]:.3e}"
                    )
        else:
            print("envelope check: hypothesis unmet (r0 <= 0)")
    return EXIT_OK


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="strainamp",
        description="Periodic-box pseudo-spectral strain dynamics and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation run")
    p_run.add_argument("config", help="flat key = value config file")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run the identity/oracle check suite")
    p_verify.add_argument("--level", choices=("quick", "full"), default="quick")
    p_verify.set_defaults(fn=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="sweep amplitude/viscosity ranges")
    p_sweep.add_argument("config", help="config file with start:step:end ranges")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_report = sub.add_parser("report", help="summarize a JSON-lines diagnostics file")
    p_report.add_argument("file")
    p_report.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
