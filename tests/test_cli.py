"""Command-line surface: config parsing, run/sweep/report, exit codes."""

import dataclasses
import json
import typing

import numpy as np
import pytest

from strainamp import cli, config
from strainamp import diagnostics as diag
from strainamp.config import ConfigError, RunConfig, parse_config, parse_sweep_config
from strainamp.grid import GridSpec
from strainamp.initdata import colliding_jets
from strainamp.operators import strain_of


def jets_constants(n=48, L=12.0):
    # constants of the run's initial strain (dealiased; the jets already lie
    # on the strain space, so make_state's projection moves them by roundoff)
    from strainamp.initdata import InitSpec, initial_strain

    g = GridSpec(n, L)
    S1 = initial_strain(g, InitSpec(kind="colliding_jets", amplitude=1.0))
    H = diag.hs_norm_sq(S1, 1.0)
    D = -diag.det_integral(S1)
    return g, H, D


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config("kind = colliding_jets\nequation = model\n")
        assert cfg.kind == "colliding_jets"
        assert cfg.nu == 1.0
        assert cfg.n == 64

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nkind = colliding_jets # trailing\nequation = model\n"
        cfg = parse_config(text)
        assert cfg.equation == "model"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="vicosity"):
            parse_config("kind = colliding_jets\nequation = model\nvicosity = 1\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="equation"):
            parse_config("kind = colliding_jets\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="amplitude"):
            parse_config(
                "kind = colliding_jets\nequation = model\namplitude = one\n"
            )

    def test_round_trip(self):
        text = (
            "kind = colliding_jets\nequation = full_strain\nn = 32\n"
            "box_length = 12.5\namplitude = 2.25\nseed = 7\nlambda = 2\n"
            "center = 0.5,0,0\noutput_every = 3\n"
        )
        cfg = parse_config(text)
        again = parse_config(cfg.emit())
        assert again == cfg

    def test_sweep_ranges(self):
        base, ranges = parse_sweep_config(
            "kind = colliding_jets\nequation = model\namplitude = 1:0.5:2\nnu = 0.5:0.25:1\n"
        )
        assert ranges["amplitude"] == pytest.approx([1.0, 1.5, 2.0])
        assert ranges["nu"] == pytest.approx([0.5, 0.75, 1.0])

    def test_repeated_key_named(self):
        text = "kind = colliding_jets\nequation = model\nn = 32\n# again\nn = 64\n"
        with pytest.raises(ConfigError, match="key 'n' repeated: line 3 and line 5"):
            parse_config(text)
        with pytest.raises(ConfigError, match="key 'n' repeated: line 3 and line 5"):
            parse_sweep_config(text)

    @pytest.mark.parametrize(
        "first, second", [("1:1:3", "2"), ("2", "1:1:3"), ("1:1:3", "1:1:3")]
    )
    def test_sweep_repeated_range_key_named(self, first, second):
        text = f"kind = colliding_jets\nequation = model\nnu = {first}\nnu = {second}\n"
        with pytest.raises(ConfigError, match="key 'nu' repeated: line 3 and line 4"):
            parse_sweep_config(text)

    def test_sweep_range_on_wrong_key(self):
        with pytest.raises(ConfigError):
            parse_sweep_config("kind = colliding_jets\nequation = model\nn = 8:8:16\n")

    def test_sweep_malformed_range(self):
        with pytest.raises(ConfigError):
            parse_sweep_config(
                "kind = colliding_jets\nequation = model\namplitude = 2:-1:0\n"
            )


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# a value of each annotation type that no RunConfig field has as its default,
# as config text and parsed, and a malformed spelling of it (None: a str key
# takes any text)
SCHEMA_SAMPLES = {
    int: ("7", 7, "7.5"),
    float: ("0.3125", 0.3125, "inf"),
    str: ("xyz", "xyz", None),
    tuple[float, float, float]: ("0.5, -1, 2", (0.5, -1.0, 2.0), "0.5,1"),
}
RUN_FIELDS = dataclasses.fields(RunConfig)
HINTS = typing.get_type_hints(RunConfig)


def config_key(f):
    return "lambda" if f.name == "lam" else f.name


class TestConfigSchema:
    # the key types come from RunConfig's annotations: every field must parse,
    # and a field whose type has no sample here fails with KeyError
    @pytest.mark.parametrize("f", RUN_FIELDS, ids=config_key)
    def test_field_parses_and_round_trips(self, f):
        raw, want, _ = SCHEMA_SAMPLES[HINTS[f.name]]
        assert want != f.default
        pairs = {"kind": "colliding_jets", "equation": "model", config_key(f): raw}
        cfg = parse_config("".join(f"{k} = {v}\n" for k, v in pairs.items()))
        assert getattr(cfg, f.name) == want
        assert parse_config(cfg.emit()) == cfg

    @pytest.mark.parametrize(
        "f", [f for f in RUN_FIELDS if SCHEMA_SAMPLES[HINTS[f.name]][2]], ids=config_key
    )
    def test_malformed_value_names_key(self, f):
        bad = SCHEMA_SAMPLES[HINTS[f.name]][2]
        text = f"kind = colliding_jets\nequation = model\n{config_key(f)} = {bad}\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == f"invalid value for key '{config_key(f)}': {bad!r}"

    # every int key counts grid points, steps or a seed
    @pytest.mark.parametrize(
        "f", [f for f in RUN_FIELDS if HINTS[f.name] is int], ids=config_key
    )
    def test_negative_count_names_key(self, f):
        text = f"kind = colliding_jets\nequation = model\n{config_key(f)} = -3\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == f"invalid value for key '{config_key(f)}': '-3'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("kind = a\nequation = b\nlam = 2\n", "unknown key 'lam'"),
            ("n = 16\n", "missing required key 'kind'"),
            ("kind = a\n", "missing required key 'equation'"),
            ("kind = a\nequation = b\ncenter = 1,2,x\n",
             "invalid value for key 'center': '1,2,x'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("raw", ["nan,0,0", "inf,0,0", "0,-inf,0", "0,0,1e999"])
    def test_non_finite_center_names_key(self, raw):
        with pytest.raises(ConfigError) as exc:
            parse_config(f"kind = colliding_jets\nequation = model\ncenter = {raw}\n")
        assert str(exc.value) == f"invalid value for key 'center': {raw!r}"


class TestSweepRangeSize:
    # the count is checked before any point is built, so none of these
    # allocates the range it describes
    @pytest.mark.parametrize(
        "raw", ["0:1e-12:1", "0:1:10000", "-1e308:1e-300:1e308"]
    )
    def test_oversized_range_names_key(self, raw):
        text = f"kind = colliding_jets\nequation = model\namplitude = {raw}\n"
        with pytest.raises(ConfigError) as exc:
            parse_sweep_config(text)
        assert str(exc.value) == (
            f"range for key 'amplitude' has more than 10000 points: {raw!r}"
        )

    def test_limit_is_inclusive(self):
        _, ranges = parse_sweep_config(
            "kind = colliding_jets\nequation = model\nnu = 1:1:10000\n"
        )
        assert len(ranges["nu"]) == config._MAX_RANGE_POINTS
        assert ranges["nu"][-1] == 10000.0

    def test_limit_is_checked_before_building(self, monkeypatch):
        monkeypatch.setattr(config, "_MAX_RANGE_POINTS", 3)
        text = "kind = colliding_jets\nequation = model\nnu = {}\n"
        assert parse_sweep_config(text.format("1:1:3"))[1]["nu"] == [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError, match="key 'nu' has more than 3 points"):
            parse_sweep_config(text.format("1:1:4"))


class TestCmdRun:
    def test_t_end_zero(self, tmp_path, capsys):
        cfgfile = write_config(
            tmp_path,
            "kind = colliding_jets\nequation = model\nn = 16\nt_end = 0\n",
        )
        rc = cli.main(["run", cfgfile])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert len(out) == 2
        rec = json.loads(out[0])
        rep = json.loads(out[1])
        assert rec["t"] == 0.0
        assert rep["report"] is True
        assert rep["outcome"] == "resolved_to_t_end"

    def test_malformed_key_exit_2(self, tmp_path, capsys):
        cfgfile = write_config(
            tmp_path, "kind = colliding_jets\nequation = model\nvicosity = 1\n"
        )
        rc = cli.main(["run", cfgfile])
        assert rc == 2
        assert "vicosity" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["nan,0,0", "inf,0,0"])
    def test_non_finite_center_exit_2(self, tmp_path, capsys, raw):
        text = f"kind = colliding_jets\nequation = model\nn = 16\ncenter = {raw}\n"
        assert cli.main(["run", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert f"invalid value for key 'center': {raw!r}" in err
        assert "Traceback" not in err

    def test_negative_checkpoint_every_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        text = (
            "kind = colliding_jets\nequation = model\nn = 16\nt_end = 0\n"
            f"checkpoint_every = -3\noutput_path = {out}\n"
        )
        assert cli.main(["run", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "invalid value for key 'checkpoint_every': '-3'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_checkpoint_to_stdout_rejected_before_setup(self, tmp_path, monkeypatch, capsys):
        def no_setup(*args):
            raise AssertionError("initial data built for a rejected config")

        monkeypatch.setattr(cli, "initial_strain", no_setup)
        text = "kind = colliding_jets\nequation = model\nn = 16\ncheckpoint_every = 2\n"
        assert cli.main(["run", write_config(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert "checkpoint_every requires a file output_path" in captured.err
        assert captured.out == ""

    def test_blowup_exit_10(self, tmp_path):
        g, H, D = jets_constants()
        m = 2.0 * 3.0 * H / (4.0 * D)
        dt0 = 0.4 * g.dx / (0.8546742370963845 * m)
        cfgfile = write_config(
            tmp_path,
            f"kind = colliding_jets\nequation = model\nn = {g.n}\n"
            f"box_length = {g.box_length}\namplitude = {m}\n"
            f"dt_min = {0.85 * dt0}\noutput_every = 5\n"
            f"output_path = {tmp_path / 'out.jsonl'}\n",
        )
        rc = cli.main(["run", cfgfile])
        assert rc == 10
        lines = (tmp_path / "out.jsonl").read_text().strip().splitlines()
        rep = json.loads(lines[-1])
        assert rep["outcome"] == "blowup_detected"
        assert rep["r0"] > 0
        assert rep["t_star_envelope"] == pytest.approx(1.0 / rep["r0"])
        records = [json.loads(x) for x in lines[:-1]]
        env = diag.envelope_check(
            [(r["t"], r["E"]) for r in records], records[0]["E"], rep["r0"]
        )
        assert env.pass_fraction == 1.0

    def test_determinism(self, tmp_path):
        text = (
            "kind = random_solenoidal\nequation = model\nn = 16\nseed = 5\n"
            "slope = -6\nt_end = 0.01\ndt_max = 0.002\noutput_every = 1\n"
        )
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        cli.main(["run", write_config(tmp_path, text + f"output_path = {out1}\n", "a.cfg")])
        cli.main(["run", write_config(tmp_path, text + f"output_path = {out2}\n", "b.cfg")])
        assert out1.read_bytes() == out2.read_bytes()

    def test_checkpoint_emitted(self, tmp_path):
        out = tmp_path / "run.jsonl"
        cfgfile = write_config(
            tmp_path,
            "kind = random_solenoidal\nequation = model\nn = 16\nseed = 1\n"
            f"slope = -6\nt_end = 0.01\ndt_max = 0.002\ncheckpoint_every = 2\noutput_path = {out}\n",
        )
        assert cli.main(["run", cfgfile]) == 0
        from strainamp.dynamics import read_checkpoint

        st = read_checkpoint(str(out) + ".ckpt")
        assert st.t > 0

    def test_non_finite_checkpoint_exit_2(self, tmp_path, capsys):
        from strainamp.dynamics import SimParams, make_state, write_checkpoint

        g = GridSpec(16, 16.0)
        S = strain_of(colliding_jets(g, 1.0))
        ckpt = tmp_path / "nan.ckpt"
        write_checkpoint(str(ckpt), make_state(S, 0.0, SimParams(1.0, "model")))
        with open(ckpt, "r+b") as fh:
            fh.seek(39)
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
        out = tmp_path / "out.jsonl"
        cfgfile = write_config(
            tmp_path,
            f"kind = from_checkpoint\npath = {ckpt}\nequation = model\nn = 16\n"
            f"box_length = 16.0\nt_end = 0.01\noutput_path = {out}\n",
        )
        assert cli.main(["run", cfgfile]) == 2
        assert "non-finite payload sample" in capsys.readouterr().err
        assert not out.exists()  # set-up failed before the output was opened

    def test_truncated_checkpoint_header_exit_2(self, tmp_path, capsys):
        from strainamp.dynamics import SimParams, make_state, write_checkpoint

        g = GridSpec(16, 16.0)
        ckpt = tmp_path / "cut.ckpt"
        write_checkpoint(str(ckpt), make_state(strain_of(colliding_jets(g, 1.0)), 0.0,
                                               SimParams(1.0, "model")))
        ckpt.write_bytes(ckpt.read_bytes()[:20])
        out = tmp_path / "out.jsonl"
        cfgfile = write_config(
            tmp_path,
            f"kind = from_checkpoint\npath = {ckpt}\nequation = model\nn = 16\n"
            f"output_path = {out}\n",
        )
        assert cli.main(["run", cfgfile]) == 2
        assert "truncated checkpoint header" in capsys.readouterr().err
        assert not out.exists()  # set-up failed before the output was opened

    def test_absurd_checkpoint_n_exit_2(self, tmp_path, capsys):
        import struct

        ckpt = tmp_path / "huge.ckpt"
        header = struct.pack("<QdddB", 4096, 16.0, 0.0, 1.0, 0)
        ckpt.write_bytes(b"STRN1\x00" + header + bytes(64))
        out = tmp_path / "out.jsonl"
        cfgfile = write_config(
            tmp_path,
            f"kind = from_checkpoint\npath = {ckpt}\nequation = model\nn = 16\n"
            f"output_path = {out}\n",
        )
        assert cli.main(["run", cfgfile]) == 2
        assert "truncated checkpoint payload" in capsys.readouterr().err
        assert not out.exists()  # set-up failed before the output was opened

    @pytest.mark.parametrize("appended, header_n", [(1, 16), (0, 8)])
    def test_oversized_checkpoint_payload_exit_2(
        self, tmp_path, capsys, appended, header_n
    ):
        # one byte appended, or a 16^3 payload under a header claiming n = 8
        import struct

        from strainamp.dynamics import SimParams, make_state, write_checkpoint

        g = GridSpec(16, 16.0)
        ckpt = tmp_path / "long.ckpt"
        write_checkpoint(str(ckpt), make_state(strain_of(colliding_jets(g, 1.0)), 0.0,
                                               SimParams(1.0, "model")))
        blob = bytearray(ckpt.read_bytes() + bytes(appended))
        blob[6:14] = struct.pack("<Q", header_n)
        ckpt.write_bytes(bytes(blob))
        out = tmp_path / "out.jsonl"
        cfgfile = write_config(
            tmp_path,
            f"kind = from_checkpoint\npath = {ckpt}\nequation = model\nn = 16\n"
            f"output_path = {out}\n",
        )
        assert cli.main(["run", cfgfile]) == 2
        err = capsys.readouterr().err
        assert f"expected {48 * header_n**3} for n = {header_n}" in err
        assert "Traceback" not in err
        assert not out.exists()  # set-up failed before the output was opened

    def test_repeated_key_exit_2(self, tmp_path, capsys):
        text = "kind = colliding_jets\nequation = model\nn = 16\nn = 32\n"
        assert cli.main(["run", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "key 'n' repeated: line 3 and line 4" in err
        assert "Traceback" not in err

    def test_oversized_n_exit_2(self, tmp_path, monkeypatch, capsys):
        def no_setup(*args):
            raise AssertionError("initial data built for a rejected grid size")

        monkeypatch.setattr(cli, "initial_strain", no_setup)
        out = tmp_path / "out.jsonl"
        out.write_text('{"t": 0.0}\n')  # a previous run's output keeps its bytes
        text = f"kind = colliding_jets\nequation = model\nn = 1000000\noutput_path = {out}\n"
        assert cli.main(["run", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "n must be even with 8 <= n <= 4096, got 1000000" in err
        assert "Traceback" not in err
        assert out.read_text() == '{"t": 0.0}\n'


class TestCmdVerify:
    def test_quick_passes(self, capsys):
        rc = cli.main(["verify", "--level", "quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pass" in out
        assert "FAIL" not in out

    def test_corrupted_projection_fails(self, monkeypatch, capsys):
        # fault injection: sign-flipped projection must break annihilation
        from strainamp import operators

        orig = operators.strain_project

        def corrupted(M):
            out = orig(M)
            return type(out)(out.grid, -out.data)

        monkeypatch.setattr(operators, "strain_project", corrupted)
        rc = cli.main(["verify", "--level", "quick"])
        capsys.readouterr()
        assert rc != 0


class TestCmdSweep:
    def test_single_point_matches_run(self, tmp_path, capsys):
        text = (
            "kind = colliding_jets\nequation = model\nn = 16\namplitude = 2\n"
            "t_end = 0\n"
        )
        rc = cli.main(["sweep", write_config(tmp_path, text)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0] == "m,nu,f0,g0,r0,outcome,t_outcome"
        assert len(out) == 2
        cols = out[1].split(",")
        assert float(cols[0]) == 2.0
        assert cols[5] == "resolved_to_t_end"

    def test_amplitude_sign_change_near_critical(self, tmp_path, capsys):
        g, H, D = jets_constants(32, 16.0)
        m_crit = 3.0 * H / (4.0 * D)
        lo, step_, hi = 0.8 * m_crit, 0.05 * m_crit, 1.2 * m_crit
        text = (
            f"kind = colliding_jets\nequation = model\nn = 32\nbox_length = 16\n"
            f"amplitude = {lo}:{step_}:{hi}\nt_end = 0\n"
        )
        rc = cli.main(["sweep", write_config(tmp_path, text)])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rc == 0
        f0s = [float(r.split(",")[2]) for r in rows]
        ms = [float(r.split(",")[0]) for r in rows]
        signs = [f > 0 for f in f0s]
        assert signs[0] is False and signs[-1] is True
        flips = [i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]]
        assert len(flips) == 1
        m_flip = 0.5 * (ms[flips[0]] + ms[flips[0] + 1])
        assert abs(m_flip - m_crit) <= step_

    def test_lexicographic_order_with_jobs(self, tmp_path, capsys):
        text = (
            "kind = colliding_jets\nequation = model\nn = 16\n"
            "amplitude = 1:1:2\nnu = 0.5:0.5:1\nt_end = 0\n"
        )
        rc = cli.main(["sweep", write_config(tmp_path, text), "--jobs", "2"])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rc == 0
        keys = [(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows]
        assert keys == sorted(keys)

    def test_nu_transition_resolved_to_blowup(self, tmp_path, capsys):
        g, H, D = jets_constants()
        # half the nu=1 critical amplitude: enstrophy decays at nu=1 but the
        # run is strongly supercritical (f0 > 0, growing) at nu=0.25
        m = 0.5 * 3.0 * H / (4.0 * D)
        dt0 = 0.4 * g.dx / (0.8546742370963845 * m)
        text = (
            f"kind = colliding_jets\nequation = model\nn = {g.n}\n"
            f"box_length = {g.box_length}\namplitude = {m}\n"
            f"nu = 0.25:0.75:1.0\nt_end = 0.05\ndt_min = {0.85 * dt0}\n"
        )
        rc = cli.main(["sweep", write_config(tmp_path, text)])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rc == 0
        outcomes = {float(r.split(",")[1]): r.split(",")[5] for r in rows}
        assert outcomes[0.25] == "blowup_detected"
        assert outcomes[1.0] == "resolved_to_t_end"

    def test_repeated_key_exit_2(self, tmp_path, capsys):
        text = "kind = colliding_jets\nequation = model\nn = 16\nnu = 0.5:0.5:1\nnu = 1\n"
        assert cli.main(["sweep", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "key 'nu' repeated: line 4 and line 5" in err
        assert "Traceback" not in err

    def test_malformed_range_exit_2(self, tmp_path, capsys):
        text = "kind = colliding_jets\nequation = model\namplitude = 1:2\n"
        assert cli.main(["sweep", write_config(tmp_path, text)]) == 2

    def test_oversized_range_exit_2(self, tmp_path, capsys):
        text = "kind = colliding_jets\nequation = model\nn = 16\namplitude = 0:1e-12:1\n"
        assert cli.main(["sweep", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert "range for key 'amplitude' has more than 10000 points" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, raw", [("nu", "0:1:inf"), ("amplitude", "nan:1:2")]
    )
    def test_non_finite_range_exit_2(self, tmp_path, capsys, key, raw):
        text = f"kind = colliding_jets\nequation = model\nn = 16\n{key} = {raw}\n"
        assert cli.main(["sweep", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert f"malformed range for key '{key}'" in err
        assert "Traceback" not in err

    def test_unwritable_output_exit_2_before_any_point(
        self, tmp_path, monkeypatch, capsys
    ):
        target = str(tmp_path / "missing_dir" / "x.csv")
        text = (
            "kind = colliding_jets\nequation = model\nn = 16\namplitude = 1:1:2\n"
            f"t_end = 0\noutput_path = {target}\n"
        )
        monkeypatch.setattr(cli, "run", lambda *a, **k: pytest.fail("a point ran"))
        assert cli.main(["sweep", write_config(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and target in err
        assert "Traceback" not in err

    def test_invalid_point_keeps_other_rows(self, tmp_path, capsys):
        text = (
            "kind = colliding_jets\nequation = model\nn = 16\namplitude = 2\n"
            "nu = 0:0.5:0.5\nt_end = 0\n"
        )
        rc = cli.main(["sweep", write_config(tmp_path, text)])
        cap = capsys.readouterr()
        rows = cap.out.strip().splitlines()[1:]
        assert rc == 2
        assert rows[0] == "2.0,0.0,,,,error,"
        assert rows[1].split(",")[5] == "resolved_to_t_end"
        assert "error: point m=2.0, nu=0.0: nu must be positive" in cap.err


class TestCmdReport:
    def test_empty_file(self, tmp_path, capsys):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert cli.main(["report", str(p)]) == 2

    def test_parse_error_names_line(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"t": 0.0, "E": 1.0}\nnot json\n')
        rc = cli.main(["report", str(p)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, named",
        [
            ("[1, 2]", "expected a JSON object"),
            ('{"E": 1.0}', "'t'"),
            ('{"t": 0.1, "E": "x"}', "'E'"),
        ],
        ids=["non_object", "missing_t", "non_numeric"],
    )
    def test_malformed_record_named(self, tmp_path, capsys, line, named):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"t": 0.0, "E": 1.0}\n' + line + "\n")
        rc = cli.main(["report", str(p)])
        out = capsys.readouterr()
        assert rc == 2
        assert out.err.startswith("error: line 2: ") and named in out.err
        assert out.out == ""

    def test_small_data_verdict(self, tmp_path, capsys):
        g = GridSpec(48, 16.0)
        S1 = strain_of(colliding_jets(g, 1.0))
        thr = 3.0 * np.sqrt(3.0) * np.pi / (4.0 * np.sqrt(2.0))
        m = 0.5 * thr / np.sqrt(diag.hs_norm_sq(S1, -0.5))
        out = tmp_path / "small.jsonl"
        cfgfile = write_config(
            tmp_path,
            f"kind = colliding_jets\nequation = model\nn = 48\namplitude = {m}\n"
            f"t_end = 0.2\noutput_every = 4\noutput_path = {out}\n",
        )
        assert cli.main(["run", cfgfile]) == 0
        rc = cli.main(["report", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "E monotone non-increasing: yes" in text

    def test_blowup_report_envelope(self, tmp_path, capsys):
        g, H, D = jets_constants()
        m = 2.0 * 3.0 * H / (4.0 * D)
        dt0 = 0.4 * g.dx / (0.8546742370963845 * m)
        out = tmp_path / "blow.jsonl"
        cfgfile = write_config(
            tmp_path,
            f"kind = colliding_jets\nequation = model\nn = {g.n}\n"
            f"box_length = {g.box_length}\namplitude = {m}\n"
            f"dt_min = {0.85 * dt0}\noutput_every = 3\noutput_path = {out}\n",
        )
        assert cli.main(["run", cfgfile]) == 10
        rc = cli.main(["report", str(out)])
        text = capsys.readouterr().out
        assert rc == 0
        assert "envelope pass fraction: 1.0000" in text


class TestThreadCap:
    def test_env_var_caps_workers(self, monkeypatch):
        from strainamp.grid import fft_workers

        monkeypatch.setenv("STRAINAMP_THREADS", "1")
        assert fft_workers() == 1
        monkeypatch.delenv("STRAINAMP_THREADS")
        import os

        assert fft_workers() == os.cpu_count()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", "", "\u00b2"])
    def test_invalid_value_named(self, monkeypatch, value):
        from strainamp.grid import fft_workers

        monkeypatch.setenv("STRAINAMP_THREADS", value)
        with pytest.raises(ValueError, match=f"STRAINAMP_THREADS.*{value!r}"):
            fft_workers()

    def test_invalid_value_run_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STRAINAMP_THREADS", "abc")
        cfgfile = write_config(
            tmp_path, "kind = colliding_jets\nequation = model\nn = 16\nt_end = 0\n"
        )
        assert cli.main(["run", cfgfile]) == 2
        err = capsys.readouterr().err
        assert "STRAINAMP_THREADS" in err and "'abc'" in err

    def test_invalid_value_verify_exit_2(self, monkeypatch, capsys):
        # a failed check exits 1; a bad variable must not look like one
        monkeypatch.setenv("STRAINAMP_THREADS", "abc")
        monkeypatch.setattr(cli, "run_checks", lambda level: pytest.fail("checks ran"))
        assert cli.main(["verify"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: STRAINAMP_THREADS" in captured.err and "'abc'" in captured.err

    def test_invalid_value_sweep_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("STRAINAMP_THREADS", "abc")
        cfgfile = write_config(
            tmp_path,
            "kind = colliding_jets\nequation = model\nn = 16\n"
            "amplitude = 1:1:2\nt_end = 0\n",
        )
        assert cli.main(["sweep", cfgfile]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "STRAINAMP_THREADS" in captured.err and "'abc'" in captured.err
