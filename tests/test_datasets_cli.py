import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import lrspp
from lrspp import cli, datasets
from lrspp.config import (
    PARAMS,
    GridSpec,
    RunConfig,
    build_parser,
    config_from_args,
    config_from_dict,
    validate_config,
)
from lrspp.errors import ConfigError


def sample_dataset() -> datasets.Dataset:
    return datasets.Dataset(
        command="lrspp example",
        columns=["branch", "n", "value", "flag"],
        rows=[
            ["plus", 1, 0.1 + 0.2, None],
            ["minus", 2, math.inf, 1],
            ["plus", 3, -3.1739823175288615, 0],
        ],
        warnings=["example warning"],
    )


class TestDatasets:
    def test_csv_round_trip_lossless(self):
        ds = sample_dataset()
        back = datasets.from_csv(datasets.to_csv(ds))
        assert back == ds

    def test_json_round_trip_lossless(self):
        ds = sample_dataset()
        back = datasets.from_json(datasets.to_json(ds))
        assert back == ds

    def test_csv_json_carry_same_values(self):
        ds = sample_dataset()
        via_csv = datasets.from_csv(datasets.to_csv(ds))
        via_json = datasets.from_json(datasets.to_json(ds))
        assert via_csv == via_json

    def test_na_token_for_infeasible_cells(self):
        text = datasets.to_csv(sample_dataset())
        assert "NA" in text.splitlines()[4]
        payload = json.loads(datasets.to_json(sample_dataset()))
        assert payload["rows"][0][3] is None

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            datasets.Dataset(command="x", columns=["a", "b"], rows=[[1.0]])


class TestConfig:
    def test_empty_config_gives_defaults(self):
        cfg, warnings = validate_config(config_from_dict({}))
        assert warnings == []
        assert cfg.eps_prism == 1.51
        assert cfg.delta_omega == 3.02e13
        assert cfg.mu == 0.65
        assert cfg.material.plasma_frequency == 1.402e16
        assert cfg.omega.steps == 120 and cfg.d1.steps == 60 and cfg.d2.steps == 80

    def test_bad_grid_names_offending_key(self):
        cfg = config_from_dict({"d1_min": 5e-8, "d1_max": 1e-8})
        with pytest.raises(ConfigError, match="d1"):
            validate_config(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_omega_grid_clipped_with_warning(self):
        cfg, warnings = validate_config(config_from_dict({"omega_max": 9e15}))
        assert len(warnings) == 1
        assert cfg.omega.hi < 5.51e15

    def test_material_override(self):
        cfg, _ = validate_config(config_from_dict({"material": {"damping_rate": 0.0}}))
        assert cfg.material.damping_rate == 0.0
        assert cfg.material.plasma_frequency == 1.402e16


class TestCliExitCodes:
    def test_unknown_flag_is_config_error(self, capsys):
        assert cli.run(["dispersion", "--no-such-flag"]) == 1

    def test_bad_branch_is_config_error(self):
        assert cli.run(["optimize", "--branch", "quux"]) == 1

    def test_bad_grid_is_config_error(self, capsys):
        code = cli.run(["constraints", "--d1-min-nm", "50", "--d1-max-nm", "10"])
        assert code == 1
        assert "d1" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, capsys):
        # frequency above the bound band: the inverse solver cannot succeed
        code = cli.run(["field", "--omega", "5.6e15"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_thick_strip_is_numerical_failure(self):
        # exp(-gamma_m d1) underflows to 0 in the four-layer solve
        code, _, err = run_cli(["field", "--profile", "atr", "--d1-nm", "20000"])
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("numerical failure: "), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "--profile", "atr", "--d2-nm", "1e9"],
            ["optimize", "--d1-steps", "2", "--d2-max-nm", "4e15", "--d2-steps", "2", "--omega-steps", "2"],
        ],
    )
    def test_wide_gap_is_numerical_failure(self, argv):
        code, _, err = run_cli(argv)
        assert code == 2
        assert len(err.splitlines()) == 1 and "gap too wide" in err, err

    def test_huge_cat_amplitude_is_numerical_failure(self):
        argv = ["cat-entropy", "--alphas", "1e200", "--omega-steps", "2", "--d1-steps", "2", "--d2-steps", "4"]
        code, _, err = run_cli(argv + ["--x-steps", "2"])
        assert code == 2
        assert len(err.splitlines()) == 1 and "2 alpha^2 is not a finite float" in err, err

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.run(["material", "--config", str(bad)]) == 1

    def test_unwritable_output_path(self, tmp_path):
        out = tmp_path / "missing" / "out.csv"
        assert cli.run(["g2", "--n", "1", "--out", str(out)]) == 1


class TestCliDatasets:
    def test_g2_single_row(self, capsys):
        assert cli.run(["g2", "--n", "1"]) == 0
        ds = datasets.from_csv(capsys.readouterr().out)
        assert ds.columns == ["n", "eta", "g2"]
        assert ds.rows == [[1, 1.0, 0.0]]

    def test_material_json_format(self, capsys):
        code = cli.run(["material", "--omega-min", "2e15", "--omega-max", "3e15",
                        "--omega-steps", "3", "--format", "json"])
        assert code == 0
        ds = datasets.from_json(capsys.readouterr().out)
        assert len(ds.rows) == 3
        assert ds.columns[0] == "omega"

    def test_dispersion_rows_per_branch(self, capsys):
        code = cli.run(["dispersion", "--branch", "both", "--d1-nm", "20",
                        "--k-steps", "5"])
        assert code == 0
        ds = datasets.from_csv(capsys.readouterr().out)
        assert len(ds.rows) == 10
        plus_rows = [r for r in ds.rows if r[0] == "plus"]
        minus_rows = [r for r in ds.rows if r[0] == "minus"]
        for p, m in zip(plus_rows, minus_rows):
            assert p[3] > m[3]  # omega+ above omega- at equal k

    def test_config_file_applies(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"omega_min": 2e15, "omega_max": 3e15, "omega_steps": 4}))
        assert cli.run(["material", "--config", str(cfg_path)]) == 0
        ds = datasets.from_csv(capsys.readouterr().out)
        assert len(ds.rows) == 4

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"omega_steps": 4, "omega_min": 2e15, "omega_max": 3e15}))
        assert cli.run(["material", "--config", str(cfg_path), "--omega-steps", "2"]) == 0
        ds = datasets.from_csv(capsys.readouterr().out)
        assert len(ds.rows) == 2

    def test_out_file_and_echo_normalization(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["angle", "--branch", "plus", "--omega-min", "3e15", "--omega-max", "4e15",
                "--omega-steps", "3"]
        assert cli.run(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert cli.run(base + ["--threads", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_field_dataset_samples_profile(self, capsys):
        code = cli.run(["field", "--profile", "lrspp", "--omega", "4e15", "--d1-nm", "20",
                        "--z-steps", "50"])
        assert code == 0
        ds = datasets.from_csv(capsys.readouterr().out)
        assert len(ds.rows) == 50
        mags = [abs(complex(r[1], r[2])) for r in ds.rows]
        assert max(mags) > 0.5  # the mode is actually sampled

    def test_threads_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LRSPP_THREADS", "2")
        assert cli.run(["g2", "--n", "2"]) == 0
        ds = datasets.from_csv(capsys.readouterr().out)
        assert ds.rows[0][2] == 0.5


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


#: The flags of every subcommand: a public interface in which no flag may be
#: lost, renamed or added.
_SHARED_FLAGS = {
    "--config", "--out", "--format", "--threads", "--branch", "--delta-omega", "--eps-prism", "--mu",
}
_GRID_FLAGS = {
    name: {f"--{name}-min{unit}", f"--{name}-max{unit}", f"--{name}-steps"}
    for name, unit in (("omega", ""), ("k", ""), ("x", ""), ("d1", "-nm"), ("d2", "-nm"))
}
_STRIP = _GRID_FLAGS["omega"] | _GRID_FLAGS["d1"] | _GRID_FLAGS["d2"]
_COMMAND_FLAGS = {
    "material": _GRID_FLAGS["omega"],
    "dispersion": _GRID_FLAGS["k"] | {"--d1-nm"},
    "angle": _GRID_FLAGS["omega"] | {"--d1-nm"},
    "field": {"--profile", "--omega", "--d1-nm", "--d2-nm", "--z-min-nm", "--z-max-nm", "--z-steps"},
    "constraints": _STRIP | {"--d2-nm"},
    "optimize": _STRIP,
    "propagate": _STRIP | _GRID_FLAGS["x"],
    "g2": {"--n", "--etas"},
    "cat-entropy": _STRIP | _GRID_FLAGS["x"] | {"--alphas"},
}


class TestParamTable:
    def test_flag_sets_unchanged(self):
        parser = build_parser({name: None for name in _COMMAND_FLAGS})
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        for name, flags in _COMMAND_FLAGS.items():
            got = {f for a in subparsers[name]._actions for f in a.option_strings} - {"-h", "--help"}
            assert got == _SHARED_FLAGS | flags, name

    def test_every_row_is_a_json_key(self):
        for row in PARAMS:
            assert row.commands or row.name == "material", row.name
            config_from_dict({row.name: None})

    @pytest.mark.parametrize(
        "argv, payload, key",
        [
            (["g2"], {"mu": "0.5"}, "mu"),
            (["g2"], {"alphas": 3}, "alphas"),
            (["g2"], {"omega_steps": "abc"}, "omega_steps"),
            (["g2"], {"omega_steps": 2.7}, "omega_steps"),
            (["g2"], {"omega_steps": True}, "omega_steps"),
            (["g2"], {"mu": float("nan")}, "mu"),
            (["g2"], {"mu": 10**400}, "mu"),
            (["g2"], {"n_photons": 2**60}, "n_photons"),
            (["g2"], {"out": "a\x00b"}, "out"),
            (["g2"], {"bogus": 1}, "unknown config keys"),
            (["g2"], {"n_photons": 0}, "n_photons"),
            (["g2"], {"z_steps": 1}, "z_steps"),
            (["g2"], {"material": {"plasma_frequency": "1e16"}}, "material"),
            (["g2"], {"material": {"real_correction_coeff": -1.0}}, "material"),
            (["g2", "--etas", "1.0,2.0"], None, "etas"),
            (["material", "--omega-steps", "2.7"], None, "omega_steps"),
            (["material", "--mu", "nan"], None, "mu"),
            (["dispersion", "--d1-nm", "-5"], None, "d1"),
            (["field", "--omega=-4e15"], None, "omega"),
            (["field", "--omega", "-4e15"], None, "omega"),
            (["optimize", "--omega-min", "-1e15"], None, "omega_min"),
        ],
    )
    def test_bad_input_is_one_config_error_line(self, tmp_path, argv, payload, key):
        if payload is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(payload))
            argv = argv + ["--config", str(path)]
        code, _, err = run_cli(argv)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {key}: "), err

    @pytest.mark.parametrize("argv", [["g2", "--bogus"], ["field", "--omega", "-4e15"], ["quux"], []])
    def test_bad_command_line_is_one_config_error_line(self, argv):
        code, _, err = run_cli(argv)
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("config error: "), err

    def test_threads_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LRSPP_THREADS", "2")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"threads": 3}))
        parser = build_parser({"g2": None})

        def threads(argv):
            return config_from_args(parser.parse_args(argv)).threads

        assert threads(["g2"]) == 2
        assert threads(["g2", "--config", str(path)]) == 3
        assert threads(["g2", "--config", str(path), "--threads", "4"]) == 4

    def test_config_keys_of_g2_and_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_photons": 3, "etas": [0.5], "z_min": -1e-7, "z_max": 1e-7, "z_steps": 5}))
        code, out, _ = run_cli(["g2", "--config", str(path)])
        assert code == 0
        assert datasets.from_csv(out).rows == [[3, 0.5, 2.0 / 3.0]]
        code, out, _ = run_cli(["field", "--config", str(path)])
        assert code == 0
        rows = datasets.from_csv(out).rows
        assert len(rows) == 5 and rows[0][0] == -1e-7 and rows[-1][0] == 1e-7

    def test_nm_flag_equals_si_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d1": 30.0 * 1e-9}))  # the flag value times 1e-9
        by_flag = run_cli(["angle", "--omega-steps", "3", "--d1-nm", "30"])
        by_key = run_cli(["angle", "--omega-steps", "3", "--config", str(path)])
        assert by_flag[0] == by_key[0] == 0
        assert datasets.from_csv(by_flag[1]).rows == datasets.from_csv(by_key[1]).rows


# JSON-shaped config values: scalars of every JSON type (NaN and infinities
# included: Python's json module reads them), short lists and objects.  No
# "/" in text, so an "out" value can only name a file in the working directory.
_TEXT = st.text(alphabet=st.characters(blacklist_characters="/\\"), max_size=4)
_LEAF = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**64), max_value=2**64)
    | st.floats()
    | _TEXT
    | st.sampled_from(["csv", "json", "plus", "minus", "both", "lrspp", "atr"])
)
_VALUE = st.recursive(
    _LEAF,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["plasma_frequency", "damping_rate", "real_correction_coeff", "x"]), inner, max_size=3
    ),
    max_leaves=6,
)
_CONFIGS = st.dictionaries(
    st.sampled_from([row.name for row in PARAMS] + ["material", "bogus"]), _VALUE, max_size=6
)


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_CONFIGS)
    def test_config_raises_only_config_error(self, raw):
        try:
            validate_config(config_from_dict(raw))
        except ConfigError:
            pass

    # g2 samples no grid, so no value of a *_steps key can start a long run.
    @settings(max_examples=150, deadline=None)
    @given(_CONFIGS)
    def test_g2_with_any_config_exits_0_or_1(self, raw):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                with open("cfg.json", "w", encoding="utf-8") as fh:
                    json.dump(raw, fh)
                code, _, err = run_cli(["g2", "--config", "cfg.json"])
            finally:
                os.chdir(cwd)
        assert "Traceback" not in err
        if code == 1:
            assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
        else:
            assert code == 0, err
            assert all(line.startswith("warning: ") for line in err.splitlines()), err


def _command_flags() -> dict[str, dict[str, str]]:
    """flag -> PARAMS row name, per subcommand, as the CLI parser has them."""
    parser = build_parser({name: None for name in _COMMAND_FLAGS})
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    names = {row.name for row in PARAMS}
    return {
        name: {a.option_strings[0]: a.dest for a in sub._actions if a.dest in names}
        for name, sub in subparsers.items()
    }


_FLAGS_BY_COMMAND = _command_flags()
# Flag values: valid ones, malformed, negative, exponent-form and empty.
_VALUES = st.sampled_from([
    "1", "3", "0.5", "20", "1.52", "4e15", "2e15", "1e-3", "1e200", "0", "-5", "-4e15", "-1.5E-3", "",
    "abc", "nan", "inf", "1e999", "1,2", "plus", "minus", "json", "atr",
])
# Every *_steps flag is always given, so no grid has more than 4 points;
# half the draws are valid, so that runs get past the configuration.
_STEPS = st.sampled_from(["2", "3", "4"]) | st.sampled_from(["1", "0", "-2", "2.5", "4e0", "", "x"])


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAGS_BY_COMMAND)))
    flags = _FLAGS_BY_COMMAND[command]
    chosen = set(draw(st.lists(st.sampled_from(sorted(flags)), max_size=5)))
    argv = [command]
    for flag in sorted(chosen | {f for f, name in flags.items() if name.endswith("_steps")}):
        value = draw(_STEPS if flags[flag].endswith("_steps") else _VALUES)
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


class TestArgvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_argv())
    def test_any_argv_exits_0_1_or_2(self, argv):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # an --out value names a file in here
            try:
                code, _, err = run_cli(argv)
            finally:
                os.chdir(cwd)
        assert "Traceback" not in err
        lines = err.splitlines()
        if code == 0:
            assert all(line.startswith("warning: ") for line in lines), err
        else:
            prefix = {1: "config error: ", 2: "numerical failure: "}[code]
            assert len(lines) == 1 and lines[0].startswith(prefix), err


class TestPinnedOutput:
    """Dataset bytes are part of the contract: these short runs must print
    exactly what they printed when recorded (stdout by sha256, stderr
    verbatim).  Recorded on x86-64 Linux with CPython 3.11 and glibc 2.36
    libm; a change that alters them says so in CHANGES.md."""

    @pytest.mark.parametrize(
        "command, stdout_sha256, stderr",
        [
            (
                "dispersion --d1-nm 20 --k-steps 25",
                "1244b9e7a9f9b70779387f4cf9d6f88845e098393b91a8386891f4b7844cfdab",
                "",
            ),
            (
                "angle --d1-nm 20 --omega-steps 25",
                "3d5fa338516e3dad1e8aafdee74c539c86773fc4997172cf800736b261d7029b",
                "",
            ),
            (  # B solves omega on the other branch at the mode's k
                "constraints --d2-nm 60 --omega-steps 6 --d1-steps 3",
                "577a5c591ea7b72680edb46557c4be6ad56b505c99985a0812a7017eb2bac243",
                "",
            ),
            (
                "angle --omega-min 2e15 --omega-max 6e15 --omega-steps 40",
                "f128494b5eae58e8a0be474c109c732353d195ecd1f904254bdb5be7c67960ce",
                "warning: omega grid clipped to the surface-mode limit 5508750061094855.0 rad/s\n",
            ),
            (  # gap grid, golden-section refine and the fall-back to the grid point
                "optimize --branch both --omega-steps 8 --d1-steps 4 --d2-steps 24",
                "7f761231e00bf2c129f2334b9180a3321386cd9e32acebb143596b36522bc50c",
                "",
            ),
            (  # phi = 0 cat eigenvalues and entropy, NA rows included
                "cat-entropy --omega-steps 4 --d1-steps 2 --d2-steps 16 --x-steps 5 --alphas 1,3",
                "b16256c6438ba652147cfc94ce98f0fd5a1c976217525767918da70d86504600",
                "",
            ),
        ],
        ids=["dispersion", "angle", "constraints-fixed-d2", "angle-clipped", "optimize", "cat-entropy"],
    )
    def test_output_bytes(self, command, stdout_sha256, stderr):
        code, out, err = run_cli(command.split())
        assert (code, err) == (0, stderr)
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha256


def test_cli_import_leaves_numpy_out():
    """numpy backs only the fock oracle; the command-line front end starts without it."""
    src = os.path.dirname(os.path.dirname(lrspp.__file__))
    code = "import sys, lrspp.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "False\n"
