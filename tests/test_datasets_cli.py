import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import dataclasses
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

import lrspp
from lrspp import cli, coupling, datasets, dispersion, modes
from lrspp.config import (
    PARAMS,
    GridSpec,
    RunConfig,
    build_parser,
    config_from_args,
    config_from_dict,
    validate_config,
)
from lrspp.errors import ConfigError, ConvergenceError, NoBoundMode, NormalizationError, StencilError


SAMPLE_ROWS = [
    ["plus", 1, 0.1 + 0.2, None],
    ["minus", 2, math.inf, 1],
    ["plus", 3, -3.1739823175288615, 0],
]


def sample_dataset() -> datasets.Dataset:
    return datasets.Dataset(
        command="lrspp example",
        columns=["branch", "n", "value", "flag"],
        blocks=[tuple(row) for row in SAMPLE_ROWS],
        warnings=["example warning"],
    )


#: The fields of sample_dataset, as its JSON text names them.
SAMPLE_FIELDS = {
    "schema_version": 1,
    "command": "lrspp example",
    "warnings": ["example warning"],
    "columns": ["branch", "n", "value", "flag"],
    "rows": SAMPLE_ROWS,
}


def parse_cell(text: str):
    if text == "NA":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_csv(text: str) -> dict:
    """The fields of a CSV dataset, keyed as in its JSON text: the schema
    version, command and warnings of the # lines, the header row's columns
    and the rows of typed cells."""
    payload = {"schema_version": None, "command": None, "warnings": [], "columns": None, "rows": []}
    for line in text.splitlines():
        if line.startswith("# schema="):
            payload["schema_version"] = int(line[len("# schema="):])
        elif line.startswith("# command="):
            payload["command"] = line[len("# command="):]
        elif line.startswith("# warning="):
            payload["warnings"].append(line[len("# warning="):])
        elif payload["columns"] is None:
            payload["columns"] = line.split(",")
        else:
            payload["rows"].append([parse_cell(c) for c in line.split(",")])
    return payload


def cell_by_cell_csv(columns: list[str], rows, warnings: list[str] = ()) -> str:
    """The CSV writer that formatted every cell of every row on its own,
    kept as the reference for the bytes of datasets.to_csv."""

    def cell(value):
        if value is None:
            return "NA"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    lines = ["# schema=1", "# command=lrspp x"]
    lines.extend(f"# warning={w}" for w in warnings)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(cell(c) for c in row))
    return "\n".join(lines) + "\n"


CELLS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0]), st.integers(), st.booleans(), st.text(max_size=3), st.none(),
    st.sampled_from(["{", "}", "{0}", "{}"]),
)


def first_difference(got: str, expected: str):
    """None, or the first line where two texts differ, as (index, got, expected)."""
    pairs = itertools.zip_longest(got.splitlines(True), expected.splitlines(True))
    return next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)


def rows_of(blocks, width: int):
    """The rows of blocks: a block's single cells repeat down its rows; a
    block with no list column is one row."""
    for block in blocks:
        n = next((len(c) for c in block if isinstance(c, list)), 1)
        yield from zip(*(c if isinstance(c, list) else [c] * n for c in block)) if width else [()] * n


class TestDatasets:
    def test_csv_round_trip_lossless(self):
        assert read_csv(datasets.to_csv(sample_dataset())) == SAMPLE_FIELDS

    def test_json_round_trip_lossless(self):
        assert json.loads(datasets.to_json(sample_dataset())) == SAMPLE_FIELDS

    def test_csv_json_carry_same_values(self):
        via_csv = read_csv(datasets.to_csv(sample_dataset()))
        assert via_csv == json.loads(datasets.to_json(sample_dataset()))

    def test_na_token_for_infeasible_cells(self):
        text = datasets.to_csv(sample_dataset())
        assert "NA" in text.splitlines()[4]
        payload = json.loads(datasets.to_json(sample_dataset()))
        assert payload["rows"][0][3] is None

    def test_row_width_validated(self):
        with pytest.raises(ValueError, match="row 0 has 1 cells, expected 2"):
            datasets.to_csv(datasets.Dataset("x", ["a", "b"], [(1.0,)]))

    def test_streamed_row_width_validated(self):
        blocks = ((1.0, 2.0) if i != 1500 else (1.0,) for i in range(3000))
        ds = datasets.Dataset("x", ["a", "b"], blocks)
        with pytest.raises(ValueError, match="row 1500 has 1 cells"):
            datasets.to_csv(ds)

    def test_block_shape_validated(self):
        blocks = [(1.0, [1.0, 2.0]), ([1.0, 2.0, 3.0], [1.0, 2.0])]
        with pytest.raises(ValueError, match="block at row 2 has list columns of lengths"):
            datasets.to_csv(datasets.Dataset("x", ["a", "b"], blocks))
        with pytest.raises(ValueError, match="block at row 0 has 1 columns, expected 2"):
            datasets.to_csv(datasets.Dataset("x", ["a", "b"], [([1.0],)]))

    @settings(max_examples=300, deadline=None)
    @given(
        width=st.integers(0, 4),
        pool=st.lists(CELLS, min_size=1, max_size=12),
        shapes=st.lists(
            st.tuples(st.integers(0, 5), st.lists(st.integers(0, 2), min_size=4, max_size=4)), max_size=12
        ),
        picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=160),
        streamed=st.booleans(),
    )
    def test_csv_equals_cell_by_cell_formatter(self, width, pool, shapes, picks, streamed):
        # Blocks of 0-5 rows whose columns are single cells, fresh lists or
        # lists that recur as the same object, all picking cells from a
        # small pool.  A shared list recurs both in consecutive blocks, whose
        # texts the writer reuses, and in blocks further apart, whose texts
        # it formats again.
        draw = itertools.cycle(picks)
        shared: dict[int, list] = {}
        blocks = []
        for n, kinds in shapes:
            n = n if any(kind < 2 for kind in kinds[:width]) else 1
            block = []
            for kind in kinds[:width]:
                if kind == 0 or not n:
                    block.append([pool[next(draw) % len(pool)] for _ in range(n)])
                elif kind == 1:
                    block.append(shared.setdefault(n, [pool[next(draw) % len(pool)] for _ in range(n)]))
                else:
                    block.append(pool[next(draw) % len(pool)])
            blocks.append(tuple(block))
        rows = [list(row) for row in rows_of(blocks, width)]
        columns = [f"c{j}" for j in range(width)]
        expected = cell_by_cell_csv(columns, rows, ["w"])
        expected_json = json.dumps(
            {"schema_version": 1, "command": "lrspp x", "warnings": ["w"], "columns": columns, "rows": rows},
            indent=1,
        ) + "\n"

        def dataset():
            return datasets.Dataset("lrspp x", columns, iter(blocks) if streamed else blocks, ["w"])

        assert datasets.to_csv(dataset()) == expected
        assert datasets.to_json(dataset()) == expected_json

    def test_each_block_goes_out_before_the_next_is_drawn(self):
        # One-row and list blocks alike: the writer holds back no block's
        # text, so no more than one block of text is ever held.
        blocks = [(0,), (1,), ([2, 3],), ([4],), (5,)]
        drawn = []

        def dataset():
            drawn.clear()
            return datasets.Dataset("x", ["a"], (drawn.append(b) or b for b in blocks))

        csv = [(len(drawn), piece) for piece in datasets.csv_chunks(dataset())]
        assert csv[1:] == [(1, "0\n"), (2, "1\n"), (3, "2\n3\n"), (4, "4\n"), (5, "5\n")]
        assert [len(drawn) for _piece in datasets.json_chunks(dataset())] == [0, 1, 2, 3, 4, 5, 5]

    def test_a_list_shared_with_the_block_before_is_formatted_once(self, monkeypatch):
        xs, other = [0.5, 1.5], [2.5, 3.5]
        formatted = []
        real = datasets._csv_texts
        monkeypatch.setattr(datasets, "_csv_texts", lambda cells: formatted.append(cells) or real(cells))
        blocks = [(xs, 1.0), (xs, 2.0), (other, 3.0), (xs, 4.0)]
        assert datasets.to_csv(datasets.Dataset("x", ["x", "y"], blocks)).endswith("0.5,4.0\n1.5,4.0\n")
        names = [name for cells in formatted for name, given in (("xs", xs), ("other", other)) if cells is given]
        assert names == ["xs", "other", "xs"]

    def test_memo_is_by_object_not_by_id_alone(self):
        # Fresh lists freed after each block: their ids are reused by later
        # lists of other values, which must not take held texts, also after
        # an empty block, past which the writer still holds the lists of the
        # block before.  Column b recurs as one object; column c mixes 0.0
        # and -0.0.
        kept = [0.5, 1.5, 2.5]

        def blocks():
            for i in range(5000):
                yield [i / 7.0, i / 11.0, i / 13.0], kept if i % 3 else [i / 3.0] * 3, -0.0 if i % 2 else 0.0
                if i % 4 == 0:
                    yield [], [], 0.0

        expected = cell_by_cell_csv(["a", "b", "c"], rows_of(blocks(), 3))
        got = datasets.to_csv(datasets.Dataset("lrspp x", ["a", "b", "c"], blocks()))
        assert first_difference(got, expected) is None


class TestConfig:
    @pytest.mark.parametrize("hi", [2.0, 5.0, 1.0])
    def test_one_step_grid_is_its_lower_bound(self, hi):
        assert GridSpec(2.0, hi, 1).points() == [2.0]

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

    def test_gap_search_is_read_from_the_run_config(self):
        cfg = config_from_dict({"d2_min": 6e-8, "d2_max": 1e-6, "d2_steps": 7, "delta_omega": 1e13, "eps_prism": 2.0})
        assert cli._optimize_config(cfg) == coupling.OptimizeConfig(6e-8, 1e-6, 7, 1e13, 2.0)
        assert cli._optimize_config(config_from_dict({})) == coupling.OptimizeConfig()

    def test_branches_run_plus_then_minus(self):
        both = [dispersion.BranchId.ANTISYMMETRIC, dispersion.BranchId.SYMMETRIC]
        assert config_from_dict({}).branches() == both
        assert config_from_dict({"branch": "minus"}).branches() == both[1:]


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_blocks(language: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{language}\n(.*?)^```$", fh.read(), re.M | re.S)


def test_readme_runs_are_valid_configs():
    """Each lrspp line of the README's sh blocks, and its JSON config example,
    is a run the parser and validate_config take without an error or a
    warning.  Nothing is computed."""
    runs = [line for block in _readme_blocks("sh") for line in block.splitlines() if line.startswith("lrspp ")]
    assert len(runs) >= 8, runs
    for line in runs:
        args = cli._parser().parse_args(shlex.split(line)[1:])
        assert validate_config(config_from_args(args), args.command)[1] == [], line
    [example] = _readme_blocks("json")
    assert validate_config(config_from_dict(json.loads(example)))[1] == []


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
        # a valid frequency at which the solver finds no bound mode in its k window
        code = cli.run(["field", "--omega", "1e10"])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "--profile", "atr", "--d1-nm", "20000"],
            ["field", "--profile", "atr", "--d2-nm", "1e9"],
            ["optimize", "--d1-steps", "2", "--d2-max-nm", "4e15", "--d2-steps", "2", "--omega-steps", "2"],
            ["optimize", "--d2-max-nm", "200000", "--omega-steps", "3", "--d1-steps", "2", "--d2-steps", "8"],
        ],
        ids=["thick-strip", "wide-gap-field", "wide-gap-optimize", "wide-gap-search"],
    )
    def test_thick_strip_and_wide_gap_give_finite_cells(self, argv):
        """A 20 um strip or a gap of up to 4e6 m overflowed the four-layer
        amplitudes at unit top-air amplitude; with decaying terms only, every
        cell is a finite number or NA."""
        code, out, err = run_cli(argv)
        assert (code, err) == (0, ""), err
        rows = [line.split(",") for line in out.splitlines()[3:]]
        cells = [c for row in rows for c in row[1:] if c != "NA"]
        assert rows and cells and all(math.isfinite(float(c)) for c in cells)

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "--profile", "atr", "--omega", "3e15"],
            ["optimize", "--omega-steps", "2", "--d1-steps", "2", "--d2-steps", "2"],
        ],
        ids=["field", "optimize"],
    )
    def test_overflowing_lossy_stack_names_its_cause(self, argv, tmp_path):
        """An imaginary correction of 1e300 overflows eps_lossy (omega/c)^2,
        so the metal's decay rate in the four-layer stack is not finite."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"material": {"plasma_frequency": 1e16, "imag_correction": 1e300}}))
        code, out, err = run_cli(argv + ["--config", str(path)])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1, err
        assert err.startswith("numerical failure: metal decay rate overflows at omega="), err
        assert "lossy permittivity (" in err and "+1e+300j)" in err

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.run(["material", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("kind", ["missing", "directory", "list", "nested"])
    def test_unreadable_config_file_is_one_config_error_line(self, kind, tmp_path):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "list":
            path.write_text("[]")
        elif kind == "nested":  # deeper than the JSON reader recurses
            path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run_cli(["material", "--config", str(path)])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("config error: config: "), err
        if kind == "nested":
            assert err.startswith(f"config error: config: malformed JSON in {path}: "), err

    def test_unwritable_output_path(self, tmp_path):
        out = tmp_path / "missing" / "out.csv"
        assert cli.run(["g2", "--n", "1", "--out", str(out)]) == 1

    def test_out_of_memory_is_one_line_exit_2(self, monkeypatch):
        def exhausted(ds):
            raise MemoryError

        monkeypatch.setattr(datasets, "to_csv", exhausted)
        code, out, err = run_cli(["g2", "--n", "2"])
        assert (code, out, err) == (2, "", "numerical failure: out of memory\n")

    #: A cat-entropy run of two frequencies and the default two amplitudes.
    MID_STREAM = (
        "cat-entropy --branch plus --omega-min 3e15 --omega-max 3.6e15 --omega-steps 2 --d1-min-nm 15"
        " --d1-max-nm 45 --d1-steps 2 --d2-steps 8"
    ).split()

    @staticmethod
    def fail_on_third_curve(monkeypatch):
        """Make the third cat column block of a run raise, as a NaN eigenvalue would."""
        real, calls = cli.statetransfer.cat_columns, []

        def failing(cat, g, decay):
            calls.append(cat)
            if len(calls) == 3:
                raise ValueError("eigenvalue nan outside [0, 1]")
            return real(cat, g, decay)

        monkeypatch.setattr(cli.statetransfer, "cat_columns", failing)

    def test_failure_mid_stream_prints_nothing(self, monkeypatch):
        self.fail_on_third_curve(monkeypatch)
        code, out, err = run_cli(self.MID_STREAM)
        assert (code, out, err) == (2, "", "numerical failure: eigenvalue nan outside [0, 1]\n")

    def test_failure_mid_stream_leaves_out_file_as_it_was(self, tmp_path, monkeypatch):
        out = tmp_path / "out.csv"
        out.write_text("earlier run\n")
        self.fail_on_third_curve(monkeypatch)
        code, _, err = run_cli(self.MID_STREAM + ["--out", str(out)])
        assert (code, err) == (2, "numerical failure: eigenvalue nan outside [0, 1]\n")
        assert out.read_text() == "earlier run\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize(
        "argv",
        [
            "material --omega-min 1e-170 --omega-max 1e15 --omega-steps 2",
            "angle --omega-min 1e-170 --omega-max 1e15 --omega-steps 2",
            "field --omega 1e-170",
        ],
    )
    def test_frequency_whose_square_underflows_is_config_error(self, argv):
        code, out, err = run_cli(argv.split())
        assert (code, out) == (1, "")
        assert err.startswith("config error: omega") and "underflow" in err and len(err.splitlines()) == 1, err

    def test_huge_cat_amplitude_is_config_error(self, tmp_path):
        """2 alpha^2 is the exponent of the cat overlap: an amplitude whose
        2 alpha^2 overflows is bad input, not a numerical failure."""
        small = ["cat-entropy", "--omega-steps", "2", "--d1-steps", "2", "--d2-steps", "4", "--x-steps", "2"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"alphas": [1e200]}))
        for argv in (small + ["--alphas", "1e200"], small + ["--config", str(path)]):
            code, out, err = run_cli(argv)
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1 and err.startswith("config error: alphas: "), err
        code, _, err = run_cli(small + ["--alphas", "9.48e153"])
        assert (code, err) == (0, "")

    def test_huge_real_correction_has_a_surface_mode(self, tmp_path):
        """eps = -1 has a root for every c_r >= 0; c_r = 1e25 puts it near
        7.9e9 rad/s, below 1e-6 wp."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"material": {"real_correction_coeff": 1e25}}))
        code, out, err = run_cli(["material", "--omega-min", "1e8", "--omega-max", "1e9", "--omega-steps", "2",
                                  "--config", str(path)])
        assert (code, err) == (0, "")
        assert len(read_csv(out)["rows"]) == 2

    @pytest.mark.parametrize("wp", [1e104, 1e155])
    def test_plasma_frequency_beyond_the_cube_range(self, tmp_path, wp):
        """Above wp ~ 1e103 the cube of w_sp overflows, and the run goes on;
        a wp whose square overflows is one config error naming it."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"material": {"plasma_frequency": wp, "real_correction_coeff": 1.0}}))
        code, out, err = run_cli(["material", "--omega-steps", "2", "--config", str(path)])
        if wp < 1e154:
            assert (code, err) == (0, "")
            assert len(read_csv(out)["rows"]) == 2
        else:
            assert (code, out) == (1, "")
            assert err == "config error: material: plasma_frequency must be positive and its square finite, got 1e+155\n"

    def test_dispersion_at_a_k_whose_omega_window_underflows(self):
        """At k = 1e-170 rad/m the square of solve_omega's window bottom
        underflows: those rows are NA, and the k_max rows print as ever."""
        tables = {}
        for k_min in ("1e-170", "1e-166"):
            code, out, err = run_cli(["dispersion", "--k-steps", "2", "--k-min", k_min])
            assert (code, err) == (0, "")
            tables[k_min] = read_csv(out)
        columns, rows = tables["1e-170"]["columns"], tables["1e-170"]["rows"]
        k_col = columns.index("k")
        tiny = [row for row in rows if row[k_col] == 1e-170]
        assert len(tiny) == 2 and all(cell is None for row in tiny for cell in row[k_col + 1:])
        top = [row for row in rows if row[k_col] == 1.8e7]
        assert len(top) == 2 and top == [row for row in tables["1e-166"]["rows"] if row[k_col] == 1.8e7]

    def test_nul_byte_in_out_path_is_config_error(self):
        code, _, err = run_cli(["g2", "--out", "a\0b"])
        assert (code, err) == (1, "config error: out: must be a non-empty path without a NUL byte, got 'a\\x00b'\n")

    @pytest.mark.parametrize("argv", [[], *([name] for name in cli._COMMANDS)], ids=lambda argv: " ".join(argv) or "lrspp")
    def test_help_exits_0_with_usage_on_stdout(self, argv):
        code, out, err = run_cli(argv + ["--help"])
        assert (code, err) == (0, "")
        assert out.startswith("usage: ")


class TestRunCap:
    """A run is sized from its configuration and refused over cli.MAX_POINTS
    before any grid is built."""

    @pytest.fixture
    def no_grids(self, monkeypatch):
        def built(grid):
            raise AssertionError(f"grid of {grid.steps} points built")

        monkeypatch.setattr(GridSpec, "points", built)

    @pytest.mark.parametrize(
        "argv",
        [
            ["field", "--z-steps", "1000000000"],
            ["dispersion", "--k-steps", "10000000"],
            ["material", "--omega-steps", "9007199254740992"],
            ["optimize", "--d2-steps", "100000000"],
            ["constraints", "--d1-steps", "1000", "--omega-steps", "1000", "--d2-steps", "20"],
            ["propagate", "--x-steps", "100000000"],
            ["cat-entropy", "--x-steps", "100000", "--alphas", "1,2,3,4,5,6,7,8,9,10"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_over_the_cap_is_one_config_error(self, argv, no_grids):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("config error: grids: the run visits "), err

    _GAP = ["--omega-steps", "2", "--d1-steps", "2", "--d2-steps", "4"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["material", "--omega-steps", "3"],
            ["dispersion", "--k-steps", "3"],
            ["angle", "--omega-steps", "3"],
            ["field", "--profile", "lrspp", "--z-steps", "5"],
            ["field", "--profile", "atr", "--z-steps", "5"],
            ["constraints", *_GAP],
            ["constraints", *_GAP, "--d2-nm", "300"],
            ["optimize", *_GAP],
            ["propagate", *_GAP, "--x-steps", "3"],
            ["propagate", *_GAP, "--branch", "plus", "--x-steps", str(cli.BLOCK_ROWS + 1)],
            ["g2", "--etas", "1.0,0.5,0.1"],
            ["cat-entropy", *_GAP, "--x-steps", "3"],
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_size_is_what_the_run_visits(self, argv, monkeypatch):
        """The size a run is refused by is the rows it writes plus, for a
        gap search, its points: d2_steps per (branch, omega, d1) cell that
        optimize_d2 takes on."""
        cells = []
        optimize_d2 = coupling.optimize_d2

        def counted(*args):
            cells.append(args[:3])
            return optimize_d2(*args)

        monkeypatch.setattr(coupling, "optimize_d2", counted)
        args = cli._parser().parse_args(argv)
        cfg, _ = validate_config(config_from_args(args), args.command)
        code, out, _ = run_cli(argv)
        assert code == 0
        searches = args.command in ("optimize", "propagate", "cat-entropy") or (
            args.command == "constraints" and cfg.fixed_d2 is None
        )
        search = cli._search_points(cfg) if searches else 0
        assert len(cells) * cfg.d2_steps == search
        assert cli._COMMANDS[args.command][2](cfg) == len(read_csv(out)["rows"]) + search

    def test_fixed_gap_constraints_not_sized_by_the_gap_grid(self):
        _handler, _columns, points = cli._COMMANDS["constraints"]
        cfg = config_from_dict({"d2": 6e-8, "d2_steps": 2**53, "omega_steps": 2, "d1_steps": 3, "branch": "both"})
        assert points(cfg) == 2 * 2 * 3

    @pytest.mark.parametrize(
        "command, config",
        [
            ("optimize", {}),  # per branch of the criterion-5 sweep; both below
            ("optimize", {"branch": "both"}),
            ("cat-entropy", {"branch": "both"}),
            ("propagate", {"branch": "both", "x_max": 2e-5, "x_steps": 60}),
            ("dispersion", {"branch": "both", "k_steps": 200}),
            ("field", {"z_steps": 500}),
        ],
    )
    def test_documented_runs_fit_well_inside(self, command, config):
        _handler, _columns, points = cli._COMMANDS[command]
        assert points(config_from_dict(config)) * 8 < cli.MAX_POINTS


class TestAtomicOut:
    """--out is written to a temporary file and renamed into place."""

    ARGV = ["g2", "--n", "2", "--etas", "1.0,0.5"]

    def old_file(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("earlier run\n")
        out.chmod(0o640)
        return out

    def test_replaces_and_keeps_mode(self, tmp_path, capsys):
        out = self.old_file(tmp_path)
        assert cli.run(self.ARGV + ["--out", str(out)]) == 0
        assert cli.run(self.ARGV) == 0
        assert out.read_text() == capsys.readouterr().out
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_writes_through_a_symlink(self, tmp_path):
        out = self.old_file(tmp_path)
        link = tmp_path / "link.csv"
        link.symlink_to(out)
        assert cli.run(self.ARGV + ["--out", str(link)]) == 0
        assert link.is_symlink() and out.read_text().startswith("# schema=1")

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        out = self.old_file(tmp_path)

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
        code, _, err = run_cli(self.ARGV + ["--out", str(out)])
        assert code == 1 and err.startswith("config error: out: cannot write") and "No space left" in err
        assert out.read_text() == "earlier run\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_failed_rename_leaves_no_partial_file(self, tmp_path, monkeypatch):
        def refused(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", refused)
        new = tmp_path / "new.csv"
        assert run_cli(self.ARGV + ["--out", str(new)])[0] == 1
        assert os.listdir(tmp_path) == []

    def test_interrupted_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        out = self.old_file(tmp_path)

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.run(self.ARGV + ["--out", str(out)])
        assert out.read_text() == "earlier run\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_output_directory_is_config_error(self, tmp_path):
        assert cli.run(self.ARGV + ["--out", str(tmp_path)]) == 1
        assert os.listdir(tmp_path) == []

    def test_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        try:
            assert cli.run(self.ARGV + ["--out", str(fifo)]) == 0
        finally:
            reader.join(timeout=10)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert os.listdir(tmp_path) == ["pipe"]
        assert cli.run(self.ARGV) == 0
        assert got == [capsys.readouterr().out]

    def test_stdout_pipe_is_written_in_place(self, capsys):
        src = os.path.dirname(os.path.dirname(lrspp.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "lrspp.cli", *self.ARGV, "--out", "/dev/stdout"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert cli.run(self.ARGV) == 0
        assert done.stdout == capsys.readouterr().out

    def test_read_only_file_is_config_error(self, tmp_path):
        out = self.old_file(tmp_path)
        out.chmod(0o444)
        if os.access(out, os.W_OK):
            pytest.skip("this user may write a read-only file")
        code, _, err = run_cli(self.ARGV + ["--out", str(out)])
        assert code == 1 and err.startswith("config error: out: cannot write")
        assert out.read_text() == "earlier run\n" and stat.S_IMODE(out.stat().st_mode) == 0o444
        assert os.listdir(tmp_path) == ["out.csv"]

    def test_out_is_written_a_block_at_a_time(self, tmp_path, monkeypatch, capsys):
        # Small blocks, so that what a block holds is small next to the
        # 0.9 MB of output: the text is never held whole.
        monkeypatch.setattr(cli, "BLOCK_ROWS", 128)
        argv = (
            "cat-entropy --branch plus --omega-min 3e15 --omega-max 3.6e15 --omega-steps 2 --d1-min-nm 15"
            " --d1-max-nm 45 --d1-steps 2 --d2-steps 8 --x-max 2e-5 --alphas 1,2,3,4,5 --x-steps"
        ).split()
        out = tmp_path / "out.csv"
        assert cli.run(argv + ["2", "--out", str(out)]) == 0  # caches filled outside the trace
        tracemalloc.start()
        try:
            code = cli.run(argv + ["800", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert code == 0 and size > 800_000 and peak < size / 3, (size, peak)
        assert cli.run(argv + ["800"]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_file_the_user_may_not_write_is_opened_directly(self, tmp_path, monkeypatch):
        out = self.old_file(tmp_path)
        monkeypatch.setattr(cli.os, "access", lambda path, mode: path != os.path.realpath(out))
        monkeypatch.setattr(cli.os, "replace", lambda src, dst: pytest.fail("renamed over"))
        assert cli.run(self.ARGV + ["--out", str(out)]) == 0
        assert out.read_text().startswith("# schema=1")
        assert os.listdir(tmp_path) == ["out.csv"]


class TestCliDatasets:
    def test_g2_single_row(self, capsys):
        assert cli.run(["g2", "--n", "1"]) == 0
        ds = read_csv(capsys.readouterr().out)
        assert ds["columns"] == ["n", "eta", "g2"]
        assert ds["rows"] == [[1, 1.0, 0.0]]

    def test_g2_at_a_subnormal_efficiency(self):
        """eta^2 underflows to 0 at eta = 1e-320: g2 is still (n-1)/n, not
        a ZeroDivisionError traceback."""
        code, out, err = run_cli(["g2", "--etas", "1e-320"])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "1,1e-320,0.0"

    def test_material_json_format(self, capsys):
        code = cli.run(["material", "--omega-min", "2e15", "--omega-max", "3e15",
                        "--omega-steps", "3", "--format", "json"])
        assert code == 0
        ds = json.loads(capsys.readouterr().out)
        assert len(ds["rows"]) == 3
        assert ds["columns"][0] == "omega"

    def test_dispersion_rows_per_branch(self, capsys):
        code = cli.run(["dispersion", "--branch", "both", "--d1-nm", "20",
                        "--k-steps", "5"])
        assert code == 0
        ds = read_csv(capsys.readouterr().out)
        assert len(ds["rows"]) == 10
        plus_rows = [r for r in ds["rows"] if r[0] == "plus"]
        minus_rows = [r for r in ds["rows"] if r[0] == "minus"]
        for p, m in zip(plus_rows, minus_rows):
            assert p[3] > m[3]  # omega+ above omega- at equal k

    def test_dispersion_solves_one_root_per_row(self, monkeypatch, capsys):
        """Each row's omega is solved once; v_group and kappa start from that
        bound point, so no k is solved again."""
        calls = {"solve_k": 0, "solve_omega": 0}

        def counted(name):
            solver = getattr(dispersion, name)

            def solve(*args, **kwargs):
                calls[name] += 1
                return solver(*args, **kwargs)

            return solve

        for name in calls:
            solve = counted(name)
            for module in (dispersion, cli):
                monkeypatch.setattr(module, name, solve)
        assert cli.run(["dispersion", "--branch", "both", "--k-steps", "25"]) == 0
        rows = read_csv(capsys.readouterr().out)["rows"]
        assert len(rows) == 50 and all(r[6] is not None and r[7] is not None for r in rows)
        assert calls == {"solve_k": 0, "solve_omega": 50}

    @pytest.mark.parametrize("command", ["propagate", "cat-entropy"])
    def test_along_strip_solves_no_root_again(self, monkeypatch, capsys, command):
        """kappa0 of each feasible row continues the bound point its gap
        search solved: one solve_k per optimize_d2 cell, none after it."""
        calls = {"solve_k": 0, "optimize_d2": 0, "complex_wavenumber": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return call

        for module, name in ((coupling, "solve_k"), (coupling, "optimize_d2"), (cli, "complex_wavenumber")):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        monkeypatch.setattr(cli, "solve_k", counted("solve_k", cli.solve_k))
        argv = [command, "--branch", "both", "--omega-min", "3e15", "--omega-max", "3.6e15", "--omega-steps", "2",
                "--d1-min-nm", "15", "--d1-max-nm", "45", "--d1-steps", "2", "--d2-steps", "8", "--x-steps", "3"]
        assert cli.run(argv) == 0
        assert capsys.readouterr().out
        assert calls == {"solve_k": 8, "optimize_d2": 8, "complex_wavenumber": 4}

    def test_optimize_solves_b_once_per_row_with_a_point(self, monkeypatch):
        """The gap search decides B >= 1 from the other branch's bracket;
        the full root of B is solved for the one point a row returns, so a
        run takes at most one solve_omega per row that has a point."""
        solved = []
        solve_omega = coupling.solve_omega

        def counted(*args):
            solved.append(args)
            return solve_omega(*args)

        monkeypatch.setattr(coupling, "solve_omega", counted)
        code, out, _ = run_cli(["optimize", "--branch", "both", "--omega-steps", "8", "--d1-steps", "4",
                                "--d2-steps", "8", "--threads", "1"])
        rows = read_csv(out)["rows"]
        with_point = sum(row[2] is not None for row in rows)
        assert code == 0 and 0 < with_point < len(rows) == 16
        assert 0 < len(solved) <= with_point

    def test_gap_scans_stop_once_no_later_gap_can_win(self, monkeypatch):
        """Each gap scan stops at the first point past critical coupling
        whose |tau| lies below the best |beta| so far.  On the bench sweep's
        grid at seed 0 (2 x 20 omega x 10 d1 x 40 d2) the run takes at most
        4,500 beta evaluations: 3,974 here, 10,244 for the full scans."""
        evaluations = [0]
        beta_of_gap = modes.beta_of_gap

        def counted(*args):
            beta = beta_of_gap(*args)

            def value(d2):
                evaluations[0] += 1
                return beta(d2)

            return value

        monkeypatch.setattr(modes, "beta_of_gap", counted)
        code, out, err = run_cli(["optimize", "--branch", "both", "--threads", "1", "--omega-min", "2.2e15",
                                  "--omega-max", "5.2e15", "--omega-steps", "20", "--d1-min-nm", "10.0",
                                  "--d1-max-nm", "100.0", "--d1-steps", "10", "--d2-steps", "40"])
        assert (code, err) == (0, "") and len(read_csv(out)["rows"]) == 40
        assert 0 < evaluations[0] <= 4500

    def test_bandwidth_near_the_float_limit_is_printed(self):
        """B is 0.5 gap / delta_omega: at delta_omega = 1e308, where
        2 delta_omega overflows, each B is 1.25 times smaller than at 8e307,
        not 0."""
        argv = ["constraints", "--branch", "plus", "--omega-min", "3.9e15", "--omega-max", "4e15", "--omega-steps",
                "2", "--d1-min-nm", "20", "--d1-max-nm", "30", "--d1-steps", "2", "--d2-nm", "500", "--delta-omega"]
        runs = [run_cli(argv + [dw]) for dw in ("8e307", "1e308")]
        assert [(code, err) for code, _, err in runs] == [(0, "")] * 2
        (near, at) = ([row[4] for row in read_csv(out)["rows"]] for _, out, _ in runs)
        assert len(at) == 4 and all(b > 0.0 for b in at)
        assert at == pytest.approx([b / 1.25 for b in near], rel=1e-15)

    def test_config_file_applies(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"omega_min": 2e15, "omega_max": 3e15, "omega_steps": 4}))
        assert cli.run(["material", "--config", str(cfg_path)]) == 0
        ds = read_csv(capsys.readouterr().out)
        assert len(ds["rows"]) == 4

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"omega_steps": 4, "omega_min": 2e15, "omega_max": 3e15}))
        assert cli.run(["material", "--config", str(cfg_path), "--omega-steps", "2"]) == 0
        ds = read_csv(capsys.readouterr().out)
        assert len(ds["rows"]) == 2

    def test_out_file_and_echo_normalization(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["angle", "--branch", "plus", "--omega-min", "3e15", "--omega-max", "4e15",
                "--omega-steps", "3"]
        assert cli.run(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert cli.run(base + ["--threads", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "name, error, column",
        [("group_velocity", StencilError, "v_group"), ("complex_wavenumber", ConvergenceError, "kappa")],
        ids=["v_group", "kappa"],
    )
    def test_dispersion_cell_whose_solver_fails_is_na(self, name, error, column, monkeypatch):
        argv = ["dispersion", "--d1-nm", "20", "--k-steps", "3"]
        _, before, _ = run_cli(argv)

        def failing(sol):
            raise error("monkeypatched failure")

        monkeypatch.setattr(cli, name, failing)
        code, after, err = run_cli(argv)
        assert (code, err) == (0, "")
        lines_before, lines_after = before.splitlines(), after.splitlines()
        header = lines_after[2].split(",")
        assert lines_after[:3] == lines_before[:3] and len(lines_after) == len(lines_before) == 9
        at = header.index(column)
        for old, new in zip(lines_before[3:], lines_after[3:]):
            old, new = old.split(","), new.split(",")
            assert new[at] == "NA" and old[at] != "NA"
            assert new[:at] + new[at + 1:] == old[:at] + old[at + 1:]

    def test_field_dataset_samples_profile(self, capsys):
        code = cli.run(["field", "--profile", "lrspp", "--omega", "4e15", "--d1-nm", "20",
                        "--z-steps", "50"])
        assert code == 0
        ds = read_csv(capsys.readouterr().out)
        assert len(ds["rows"]) == 50
        mags = [abs(complex(r[1], r[2])) for r in ds["rows"]]
        assert max(mags) > 0.5  # the mode is actually sampled


#: Runs of commands that sample no omega grid.
_OTHER_KEYS_ARGV = (["g2"], ["dispersion", "--k-steps", "3"], ["field", "--z-steps", "3"])


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


#: The flags of every subcommand: a public interface in which no flag may be
#: lost, renamed or added.
_SHARED_FLAGS = {"--config", "--out", "--format"}
_GRID_FLAGS = {
    name: {f"--{name}-min{unit}", f"--{name}-max{unit}", f"--{name}-steps"}
    for name, unit in (("omega", ""), ("k", ""), ("x", ""), ("d1", "-nm"), ("d2", "-nm"))
}
# The gap-search commands: strip and gap grids, branch, bandwidth, prism and
# the worker count.
_STRIP = _GRID_FLAGS["omega"] | _GRID_FLAGS["d1"] | _GRID_FLAGS["d2"] | {
    "--branch", "--delta-omega", "--eps-prism", "--threads",
}
_COMMAND_FLAGS = {
    "material": _GRID_FLAGS["omega"],
    "dispersion": _GRID_FLAGS["k"] | {"--d1-nm", "--branch", "--threads"},
    "angle": _GRID_FLAGS["omega"] | {"--d1-nm", "--branch", "--eps-prism", "--threads"},
    "field": {
        "--profile", "--omega", "--d1-nm", "--d2-nm", "--z-min-nm", "--z-max-nm", "--z-steps", "--branch", "--eps-prism",
    },
    "constraints": _STRIP | {"--d2-nm"},
    "optimize": _STRIP,
    "propagate": _STRIP | _GRID_FLAGS["x"] | {"--mu"},
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
            (["g2"], {"out": ""}, "out"),
            (["g2", "--out", ""], None, "out"),
            (["g2"], {"bogus": 1}, "unknown config keys"),
            (["g2"], {"n_photons": 0}, "n_photons"),
            (["field"], {"z_steps": 1}, "z_steps"),
            (["g2"], {"material": {"plasma_frequency": "1e16"}}, "material"),
            (["g2"], {"material": {"real_correction_coeff": -1.0}}, "material"),
            # The surface-plasma frequency's square underflows: the error names the model's fields.
            (
                ["material"],
                {"material": {"plasma_frequency": 1e-300}},
                "material: plasma_frequency and real_correction_coeff",
            ),
            (["g2", "--etas", "1.0,2.0"], None, "etas"),
            (["material", "--omega-steps", "2.7"], None, "omega_steps"),
            (["propagate", "--mu", "nan"], None, "mu"),
            (["dispersion", "--d1-nm", "-5"], None, "d1"),
            (["field", "--omega=-4e15"], None, "omega"),
            (["field", "--omega", "-4e15"], None, "omega"),
            (["field", "--omega", "5.6e15"], None, "omega"),  # above the surface-plasma frequency
            (["field", "--omega", repr(lrspp.surface_plasma_frequency(lrspp.SILVER))], None, "omega"),
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["constraints", "--omega-steps", "2", "--d1-steps", "2", "--d2-steps", "4", "--thr", "2"],
            ["g2", "--ou", "OUT"],
            ["g2", "--form", "json"],
        ],
        ids=["threads", "out", "format"],
    )
    def test_abbreviated_flag_is_one_config_error_line(self, tmp_path, argv):
        """A flag has one spelling: a prefix of --threads or --out would run
        and reach the dataset's command echo, which strips only full names."""
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli([str(out) if a == "OUT" else a for a in argv])
        assert (code, stdout) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("config error: unrecognized arguments: "), err
        assert not out.exists()

    def test_threads_precedence(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"threads": 3}))
        parser = build_parser({"dispersion": None})

        def threads(argv):
            return config_from_args(parser.parse_args(argv)).threads

        assert threads(["dispersion", "--config", str(path)]) == 3
        assert threads(["dispersion", "--config", str(path), "--threads", "4"]) == 4

    @pytest.mark.parametrize("command", ["material", "field", "g2"])
    def test_serial_commands_take_no_threads(self, command):
        """A material table, one profile's samples and the g2 table are
        computed in the parent alone: --threads is an unknown flag there."""
        assert run_cli([command, "--threads", "1"]) == (1, "", "config error: unrecognized arguments: --threads 1\n")

    def test_config_keys_of_g2_and_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_photons": 3, "etas": [0.5], "z_min": -1e-7, "z_max": 1e-7, "z_steps": 5}))
        code, out, _ = run_cli(["g2", "--config", str(path)])
        assert code == 0
        assert read_csv(out)["rows"] == [[3, 0.5, 2.0 / 3.0]]
        code, out, _ = run_cli(["field", "--config", str(path)])
        assert code == 0
        rows = read_csv(out)["rows"]
        assert len(rows) == 5 and rows[0][0] == -1e-7 and rows[-1][0] == 1e-7

    def test_nm_flag_equals_si_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"d1": 30.0 * 1e-9}))  # the flag value times 1e-9
        by_flag = run_cli(["angle", "--omega-steps", "3", "--d1-nm", "30"])
        by_key = run_cli(["angle", "--omega-steps", "3", "--config", str(path)])
        assert by_flag[0] == by_key[0] == 0
        assert read_csv(by_flag[1])["rows"] == read_csv(by_key[1])["rows"]

    @pytest.mark.parametrize(
        "argv,payload",
        [
            *(
                pytest.param(argv, {"omega_max": 6e15, "mu": 0.5, "omega_steps": 1}, id=f"argv{i}")
                for i, argv in enumerate(_OTHER_KEYS_ARGV)
            ),
            *(
                pytest.param(argv, {"material": {"plasma_frequency": wp}}, id=f"{argv[0]}-plasma-{wp:.0e}")
                for argv in _OTHER_KEYS_ARGV
                for wp in (7e15, 4e15)
            ),
        ],
    )
    def test_keys_of_other_commands_do_not_act(self, tmp_path, argv, payload):
        """Keys of other commands act on nothing, an omega grid that would be
        clipped or is out of range included: the run prints what it prints
        with an empty config file.  A material moves the surface-mode
        limit, which clips no grid of a command that samples none."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with_keys = run_cli(argv + ["--config", str(path)])
        path.write_text("{}")
        if "material" not in payload or argv[0] == "g2":
            assert with_keys == run_cli(argv + ["--config", str(path)])
        code, out, err = with_keys
        assert "warning" not in out
        if argv[0] == "field" and "material" in payload:  # 4e15 rad/s is above both limits
            assert code == 1 and err.startswith("config error: omega: must be below the surface-plasma frequency")
        else:
            assert code == 0 and err == ""


#: Runs of each command that together take every branch of its handler:
#: both field profiles, constraints with and without a fixed gap, and gap
#: searches small enough to be quick with feasible rows to continue.
_SEARCH = (
    "--omega-min 3e15 --omega-max 3.6e15 --omega-steps 2 --d1-min-nm 15 --d1-max-nm 45 --d1-steps 2 --d2-steps 8"
)
_RUNS_OF_EVERY_MODE = {
    "material": ["--omega-steps 2"],
    "dispersion": ["--k-steps 2"],
    "angle": ["--omega-steps 2"],
    "field": ["--z-steps 2 --profile lrspp", "--z-steps 2 --profile atr"],
    "constraints": [_SEARCH, _SEARCH + " --d2-nm 60"],
    "optimize": [_SEARCH],
    "propagate": [_SEARCH + " --x-steps 2"],
    "g2": [""],
    "cat-entropy": [_SEARCH + " --x-steps 2 --alphas 1"],
}


def _params_read(command: str, flags: str) -> set[str]:
    """Names of the PARAMS rows whose RunConfig field the handler of a run,
    consumed to the end, and its point count read."""
    args = cli._parser().parse_args([command, *flags.split()])
    cfg, _warnings = validate_config(config_from_args(args))
    handler, _columns, points = cli._COMMANDS[command]
    read: set[str] = set()

    class Logged(type(cfg)):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    logged = Logged(**{f.name: getattr(cfg, f.name) for f in fields(cfg)})
    points(logged)
    for _block in handler(logged):
        pass
    return {row.name for row in PARAMS if (row.attr or row.name) in read}


def test_each_command_takes_the_params_it_reads():
    """A command takes a parameter (flag and config key) exactly when some
    mode of it reads the value; the run settings and material aside."""
    assert set(_RUNS_OF_EVERY_MODE) == set(cli._COMMANDS)
    run_settings = {"out", "format", "material"}
    mismatched = {}
    for command, runs in _RUNS_OF_EVERY_MODE.items():
        read = set().union(*(_params_read(command, flags) for flags in runs)) - run_settings
        taken = {row.name for row in PARAMS if command in row.commands} - run_settings
        if read != taken:
            mismatched[command] = {"taken, never read": sorted(taken - read), "read, not taken": sorted(read - taken)}
    assert not mismatched, mismatched


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
    "1", "3", "0.5", "20", "1.52", "4e15", "2e15", "1e-3", "1e-320", "1e200", "0", "-5", "-4e15", "-1.5E-3", "",
    "abc", "nan", "inf", "1e999", "1,2", "plus", "minus", "json", "atr", "2e4", "2e5",
])
# Each draw gives up to 5 flags a value of any kind from _VALUES (a *_steps
# flag: from _STEPS or _BAD_STEPS).  Every other *_steps flag gets a valid
# value, so no grid has more than 4 points, and each strip or gap flag in
# nanometers a valid width in half the draws, so that runs get past the
# configuration and reach thin strips and the wide-gap band.
_STEPS = st.sampled_from(["2", "3", "4"])
_BAD_STEPS = st.sampled_from(["1", "0", "-2", "2.5", "4e0", "", "x"])
# Widths in nanometers: a -min- flag takes a thin one and a -max- flag a
# thick one, so that no pair is out of order; a fixed width takes either.
_THIN, _THICK = st.sampled_from(["1", "20"]), st.sampled_from(["500", "2e5"])


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_FLAGS_BY_COMMAND)))
    flags = _FLAGS_BY_COMMAND[command]
    steps = {f for f, name in flags.items() if name.endswith("_steps")}
    strip = [f for f in sorted(flags) if f.startswith(("--d1-", "--d2-")) and f.endswith("-nm")]
    chosen = set(draw(st.lists(st.sampled_from(sorted(flags)), max_size=5)))
    argv = [command]
    for flag in sorted(chosen | steps | {f for f in strip if draw(st.booleans())}):
        if flag in chosen:
            value = draw(_STEPS | _BAD_STEPS if flag in steps else _VALUES)
        elif flag in steps:
            value = draw(_STEPS)
        else:
            value = draw(_THIN if "-min-" in flag else _THICK if "-max-" in flag else _THIN | _THICK)
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


def run_with_config(argv: list[str], payload: dict) -> tuple[int, str, str]:
    """run_cli with --config naming a file that holds payload."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return run_cli(argv + ["--config", path])


#: The CSV columns that hold grid points.
_GRID_COLUMNS = {"omega", "k", "d1", "d2", "x", "z"}


def assert_one_line_and_finite_grids(code: int, out: str, err: str) -> None:
    """Exit 0, 1 or 2 with at most one stderr line, exactly one unless the
    run succeeded, and no grid column holding inf or nan."""
    assert code in (0, 1, 2), err
    lines = err.splitlines()
    assert len(lines) <= 1 and (code == 0 or len(lines) == 1), err
    if code:
        assert lines[0].startswith({1: "config error: ", 2: "numerical failure: "}[code]), err
        return
    assert not lines or lines[0].startswith("warning: "), err
    ds = read_csv(out)
    for row in ds["rows"]:
        for name, cell in zip(ds["columns"], row):
            assert name not in _GRID_COLUMNS or cell is None or math.isfinite(cell), (name, row)


class TestGridBounds:
    """A grid whose points overflow is one config error naming it, checked
    as sampled: after the omega clip, and over the z span field resolves.
    The log-spaced gap grid of a search never reaches d2 = inf."""

    @pytest.mark.parametrize(
        "argv, payload, key",
        [
            (["dispersion", "--k-min", "1e307", "--k-max", "1e308", "--k-steps", "3", "--branch", "plus"], None, "k"),
            (["propagate", "--x-max", "1e308", "--x-steps", "3", "--format", "json"], None, "x"),
            (["constraints"], {"d1_max": 1e308, "omega_steps": 2, "d2_steps": 2}, "d1"),
            (["field"], {"z_min": -1.7e308, "z_max": 1.7e308}, "z"),
            (["field", "--z-steps", "3"], {"z_min": -1e308}, "z"),
        ],
        ids=["dispersion-k", "propagate-x", "constraints-d1", "field-z", "field-z-default-max"],
    )
    def test_overflowing_grid_is_one_config_error(self, argv, payload, key):
        code, out, err = run_cli(argv) if payload is None else run_with_config(argv, payload)
        assert (code, out) == (1, "")
        assert err.startswith(f"config error: {key}: the grid from ") and err.endswith(" steps overflows\n"), err
        assert len(err.splitlines()) == 1, err

    @pytest.mark.parametrize(
        "argv, lo, hi",
        [
            (["material", "--omega-min", "3e15", "--omega-max", "2e15"], 3e15, 2e15),
            (["dispersion", "--k-min", "1e7", "--k-max", "2e6"], 1e7, 2e6),
            (["constraints", "--d1-min-nm", "50", "--d1-max-nm", "20"], 50 * 1e-9, 20 * 1e-9),
            (["optimize", "--d2-min-nm", "500", "--d2-max-nm", "100"], 500 * 1e-9, 100 * 1e-9),
            (["propagate", "--x-min", "2e-6", "--x-max", "1e-6"], 2e-6, 1e-6),
            (["field", "--z-min-nm", "100", "--z-max-nm", "-100"], 100 * 1e-9, -100 * 1e-9),
        ],
        ids=["omega", "k", "d1", "d2", "x", "z"],
    )
    def test_reversed_grid_is_one_config_error_naming_its_bounds(self, argv, lo, hi):
        name = argv[1][2:].split("-")[0]
        assert run_cli(argv) == (1, "", f"config error: {name}: min must be below max, got [{lo!r}, {hi!r}]\n")

    def test_clipped_grid_is_checked_as_clipped(self):
        code, out, err = run_cli(["material", "--omega-max", "1e308", "--omega-steps", "3"])
        assert code == 0 and err.startswith("warning: omega grid clipped"), err
        assert_one_line_and_finite_grids(code, out, err)

    @pytest.mark.parametrize(
        "payload, code",
        [
            ({"d2_min": 1e-9, "d2_max": 1e308, "d2_steps": 3}, 1),
            ({"d2_min": 1e-9, "d2_max": 1e308, "d2_steps": 2}, 1),
            # The golden-section midpoint of two gaps above 9e307 overflowed.
            ({"d2_min": 1.0, "d2_max": 1.7976931348623157e308, "d2_steps": 2}, 0),
        ],
        ids=["ratio-3-steps", "ratio-2-steps", "midpoint"],
    )
    def test_gap_grid_top_never_reaches_inf(self, payload, code):
        """d2_max / d2_lo overflowed, or 0.5 (a + b) did, so that d2 = inf
        reached modes._segment_integral(0, inf) at the matched angle
        (gamma_0 = nu_0): a ZeroDivisionError traceback.  A gap grid whose
        top overflows is bad input: a config error, forked or not."""
        for threads in ("1", "2"):
            argv = ["optimize", "--branch", "plus", "--threads", threads]
            run = run_with_config(argv, {**payload, "omega_steps": 2, "d1_steps": 2})
            assert run[0] == code, run[2]
            assert_one_line_and_finite_grids(*run)
            if code == 1:
                assert run[2].startswith("config error: d2: the gap grid from "), run[2]

    @pytest.mark.parametrize(
        "argv, payload, body_sha256",
        [
            (  # the search starts at 2/nu_0, so d2_max / d2_min may overflow
                ["optimize", "--branch", "plus"],
                {"d2_min": 1e-300, "d2_max": 1e10, "d2_steps": 3},
                "54751a95da89e91c7b50b0a01fd52438fd177cce2ff0dc9f7d3500f59a9d45b4",
            ),
            (  # a fixed gap never samples the gap grid
                ["constraints", "--d2-nm", "300"],
                {"d2_min": 1e-9, "d2_max": 1e308, "d2_steps": 2},
                "017867c8d2ef56ddcc2fbde029a569febc2c6c62c1a54b0249257a5303571279",
            ),
        ],
        ids=["optimize-tiny-d2-min", "constraints-fixed-d2"],
    )
    def test_wide_gap_bounds_that_never_overflow_keep_their_bytes(self, argv, payload, body_sha256):
        code, out, err = run_with_config(argv, {**payload, "omega_steps": 2, "d1_steps": 2})
        assert (code, err) == (0, ""), err
        body = "".join(line for line in out.splitlines(True) if not line.startswith("# command="))
        assert hashlib.sha256(body.encode()).hexdigest() == body_sha256


# Grid bounds over the whole positive float range, drawn as a pair so that
# the two are in order in most draws.
_BOUND = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_GRIDS_OF = {
    "dispersion": ("k",),
    "field": ("z",),
    "constraints": ("omega", "d1", "d2"),
    "optimize": ("omega", "d1", "d2"),
    "propagate": ("omega", "d1", "d2", "x"),
    "cat-entropy": ("omega", "d1", "d2", "x"),
}


@st.composite
def _grid_configs(draw) -> tuple[str, dict]:
    """A command and a config of 2-3 steps per grid, some grids given
    bounds (one of them, or both in order)."""
    command = draw(st.sampled_from(sorted(_GRIDS_OF)))
    payload = {}
    for name in _GRIDS_OF[command]:
        payload[f"{name}_steps"] = draw(st.integers(2, 3))
        lo, hi = sorted((draw(_BOUND), draw(_BOUND)))
        for key, value in ((f"{name}_min", lo), (f"{name}_max", hi)):
            if draw(st.booleans()):
                payload[key] = value
    return command, payload


class TestGridFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_grid_configs())
    def test_any_grid_bounds_end_in_one_line(self, drawn):
        command, payload = drawn
        assert_one_line_and_finite_grids(*run_with_config([command], payload))


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
                "c47facf1883f24c2f7a063892d1ace1246e621b56ec57c57b8707259a7fe1f0c",
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
                "256fe17944206e2dabbb0ed76912e2f281be2665f4d2f56de9c6fe8bdcfcd9d1",
                "",
            ),
            (  # phi = 0 cat eigenvalues and entropy, NA rows included
                "cat-entropy --omega-steps 4 --d1-steps 2 --d2-steps 16 --x-steps 5 --alphas 1,3",
                "cec314ddf19a9e73b8e629d4e653b81ac154378b52148f9de344a5172c78468e",
                "",
            ),
            (  # mean counts along x, the minus branch NA at the top frequency
                "propagate --branch both --omega-min 2.6e15 --omega-max 5e15 --omega-steps 3"
                " --d1-min-nm 15 --d1-max-nm 45 --d1-steps 3 --d2-steps 12 --x-steps 3",
                "2ce672d51de1eccc9ad25d565d09f4ba18538547ee8d0a9f3fab8ace0e03b400",
                "",
            ),
            (  # JSON rows of the along-x cat path, NA rows included
                "cat-entropy --branch both --omega-min 2.6e15 --omega-max 5e15 --omega-steps 2"
                " --d1-min-nm 15 --d1-max-nm 45 --d1-steps 2 --d2-steps 12 --x-steps 3 --alphas 1,2.5 --format json",
                "c5d57309200dcad7b1fe1c24724d5e27f3ca4a4760029c653f261af85d17f06e",
                "",
            ),
            # The three below have 4,100 x points: more than the 4,096 rows of a
            # block, so each curve takes two blocks.
            (
                "propagate --branch both --omega-min 3e15 --omega-max 3.6e15 --omega-steps 2 --d1-min-nm 15"
                " --d1-max-nm 45 --d1-steps 2 --d2-steps 8 --x-max 2e-5 --x-steps 4100",
                "e7564d1b261cd897cccd8bfada96a448160a3af51f9b7f3fe53ebaf94df9be45",
                "",
            ),
            (  # NA rows at the top frequency
                "cat-entropy --branch minus --omega-min 2.6e15 --omega-max 5e15 --omega-steps 2 --d1-min-nm 15"
                " --d1-max-nm 45 --d1-steps 2 --d2-steps 12 --x-max 2e-5 --x-steps 4100 --alphas 1,2.5",
                "9051de3f3141bc02133738170ede34184780534711f5a4f16652f8a5ce2ab79b",
                "",
            ),
            (
                "cat-entropy --branch plus --omega-min 3e15 --omega-max 3.6e15 --omega-steps 2 --d1-min-nm 15"
                " --d1-max-nm 45 --d1-steps 2 --d2-steps 8 --x-max 2e-5 --x-steps 4100 --alphas 2 --format json",
                "cdf6eb8be8f11ced217441025befd9ffea2704b516ca10aca644297fef215a8d",
                "",
            ),
            (  # the strip mode over its default z span
                "field",
                "99b17d598e4312e5ba02930492d2c02865e0217a96bbe6e6d785480c619c4119",
                "",
            ),
            (  # the four-layer field, NA rows below the prism face z = -d2
                "field --profile atr --z-min-nm -800 --z-steps 120",
                "585ce04ec42e4fbef8d7992b9aee3de755a443e1a7ebea8541edb906314026ad",
                "",
            ),
            (
                "field --profile atr --branch minus --omega 3e15 --d2-nm 300 --z-steps 60 --format json",
                "8a1fa3dbc895a10e1977aefc5888af82eb8f2bcc1b90a019f3168093a9b19e10",
                "",
            ),
        ],
        ids=[
            "dispersion", "angle", "constraints-fixed-d2", "angle-clipped", "optimize", "cat-entropy",
            "propagate-na-frequency", "cat-entropy-json", "propagate-two-blocks", "cat-entropy-two-blocks",
            "cat-entropy-json-two-blocks", "field", "field-atr-na-rows", "field-atr-json",
        ],
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


def test_cli_import_leaves_fork_machinery_out():
    """pickle is imported only by a run that forks workers, and multiprocessing never."""
    src = os.path.dirname(os.path.dirname(lrspp.__file__))
    code = "import sys, lrspp.cli; print(sorted({'pickle', 'multiprocessing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout == "[]\n"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forked_commands() -> list[str]:
    """The pinned runs of the commands that take --threads, and a
    constraints run that searches gaps."""
    (mark,) = TestPinnedOutput.test_output_bytes.pytestmark
    pinned = [command for command, _sha256, _stderr in mark.args[1]]
    threaded = next(row.commands for row in PARAMS if row.name == "threads")
    forked = [c for c in pinned if c.split()[0] in threaded]
    return forked + ["constraints --branch both --omega-steps 6 --d1-steps 3 --d2-steps 10"]


class TestWorkers:
    """--threads N forks up to N workers for the rows of a run, a chunk of
    cli.BLOCK_ROWS rows at a time; the bytes, exit codes and stderr
    lines of a run do not depend on N or on the chunk length, and no worker
    outlives the run."""

    #: Two frequencies per branch: one row for the parent, one for a worker.
    SMALL = "optimize --branch both --omega-steps 2 --d1-steps 2 --d2-steps 6".split()

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the CPU count the worker cap sees."""
        return lambda n: monkeypatch.setattr(cli, "_usable_cpus", lambda: n)

    @pytest.mark.parametrize(
        "threads, cpus_seen, chunk",
        [("2", None, None), ("9007199254740992", None, None), ("9007199254740992", 5, None), ("3", 3, 5)],
    )
    @pytest.mark.parametrize("command", _forked_commands())
    def test_bytes_do_not_depend_on_workers(self, monkeypatch, command, threads, cpus_seen, chunk, cpus):
        serial = run_cli(command.split() + ["--threads", "1"])
        if cpus_seen is not None:  # more workers than cores, shares of unequal length
            cpus(cpus_seen)
        if chunk is not None:  # a run of more rows than a chunk crosses chunk boundaries
            monkeypatch.setattr(cli, "BLOCK_ROWS", chunk)
        assert run_cli(command.split() + ["--threads", threads]) == serial
        assert serial[0] == 0
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["optimize", "propagate"])
    def test_a_config_material_reaches_the_workers(self, tmp_path, cpus, command):
        """With a --config material of half silver's damping, the rows a
        worker computes are in that material: the bytes at --threads 2 are
        those at --threads 1, and the rows differ from silver's."""
        cpus(2)
        path = tmp_path / "half-damping.json"
        path.write_text(json.dumps({"material": {"damping_rate": 0.5 * lrspp.SILVER.damping_rate}}))
        argv = [command] + self.SMALL[1:]
        silver = run_cli(argv + ["--threads", "1"])
        serial, forked = (run_cli(argv + ["--config", str(path), "--threads", n]) for n in ("1", "2"))
        assert_no_child_left()
        assert serial[0] == silver[0] == 0 and forked == serial
        assert read_csv(serial[1])["rows"] != read_csv(silver[1])["rows"]

    @pytest.mark.parametrize(
        "command",
        [
            "dispersion --branch plus --k-steps 6",
            "angle --branch plus --omega-steps 6",
            "constraints --branch plus --omega-steps 3 --d1-steps 2 --d2-nm 300",
            "optimize --branch both --omega-steps 3 --d1-steps 2 --d2-steps 6",
        ],
    )
    def test_first_rows_are_written_before_the_last_chunk_is_computed(self, monkeypatch, cpus, command):
        """Each chunk of rows reaches the writer as it is made: the run
        never holds more than one chunk of tasks or results."""
        events = []
        real_chunk, real_csv = cli._map_chunk, datasets.csv_chunks

        def chunk(fn, tasks, workers):
            events.append("chunk")
            return real_chunk(fn, tasks, workers)

        def csv_chunks(ds):
            for i, text in enumerate(real_csv(ds)):
                events.append("header" if i == 0 else "rows")
                yield text

        cpus(2)
        monkeypatch.setattr(cli, "BLOCK_ROWS", 2)
        monkeypatch.setattr(cli, "_map_chunk", chunk)
        monkeypatch.setattr(datasets, "csv_chunks", csv_chunks)
        code, out, _ = run_cli(command.split() + ["--threads", "2"])
        assert code == 0 and len(read_csv(out)["rows"]) == 6
        last_chunk = max(i for i, event in enumerate(events) if event == "chunk")
        assert events.count("chunk") == 3 and events.index("rows") < last_chunk, events
        assert_no_child_left()

    def test_a_worker_point_carries_its_b(self, monkeypatch, cpus):
        """A row a worker computes comes back with its point's constraints
        solved and its material: reading the constraints in the parent
        solves no root, and they are those of constraint_set at the point,
        whose solution carries the model the row was searched in (here
        silver with half its damping, which moves no bound point)."""
        cpus(2)
        cfg = coupling.OptimizeConfig(d2_steps=6)
        d1s = [20e-9, 40e-9]
        material = dataclasses.replace(lrspp.SILVER, damping_rate=0.5 * lrspp.SILVER.damping_rate)
        tasks = [(branch, w) for branch in dispersion.BranchId for w in (3.4e15, 4e15)]
        points = cli._map_chunk(lambda t: coupling.best_over_d1(*t, d1s, cfg, material), tasks, 2)
        assert_no_child_left()
        worker_points = [pt for pt in points[1::2] if pt is not None]
        assert worker_points and all("constraints" in vars(pt) for pt in worker_points)
        assert all(pt.solution.model == material for pt in worker_points)
        solved = []
        monkeypatch.setattr(coupling, "solve_omega", lambda *args: solved.append(args))
        read = [None if pt is None else pt.constraints for pt in points]
        assert solved == []
        monkeypatch.undo()
        for (branch, w), pt, cons in zip(tasks, points, read):
            if pt is None:
                assert cons is None
            else:
                assert cons == coupling.constraint_set(dispersion.solve_k(branch, w, pt.solution.d1, material), pt.d2)

    def test_out_file_open_across_the_fork(self, tmp_path, cpus):
        """Workers fork while the --out file holds unwritten text; none of it is written twice."""
        cpus(3)
        command = next(c for c in _forked_commands() if c.startswith("cat-entropy")).split()
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"{threads}.csv"
            assert run_cli(command + ["--threads", threads, "--out", str(out)]) == (0, "", "")
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert_no_child_left()

    @staticmethod
    def in_child_only(monkeypatch, action):
        """Make the row function of the gap search call action() in a worker."""
        parent, real = os.getpid(), coupling.best_over_d1

        def row(*args):
            if os.getpid() != parent:
                action()
            return real(*args)

        monkeypatch.setattr(coupling, "best_over_d1", row)

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (NoBoundMode("no bound mode in the window"), 2, "numerical failure: no bound mode in the window"),
            (ConfigError("d1: too thick"), 1, "config error: d1: too thick"),
            (NormalizationError("|beta| > 1"), 2, "numerical failure: |beta| > 1"),
            ("exit", 2, "numerical failure: worker 1 of 2 ended without a result (wait status 768)"),
            ("kill", 2, "numerical failure: worker 1 of 2 ended without a result (wait status 9)"),
        ],
        ids=["NoBoundMode", "ConfigError", "NormalizationError", "exit-3", "SIGKILL"],
    )
    def test_worker_failure_is_one_line(self, monkeypatch, cpus, error, code, prefix):
        def fail():
            if error == "exit":
                os._exit(3)
            if error == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise error

        cpus(2)
        self.in_child_only(monkeypatch, fail)
        assert run_cli(self.SMALL + ["--threads", "2"]) == (code, "", prefix + "\n")
        assert_no_child_left()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
    def test_parent_failure_kills_every_worker(self, monkeypatch, cpus, error):
        """The parent's own share raises while its workers would run for a minute."""
        parent, real = os.getpid(), coupling.best_over_d1

        def row(*args):
            if os.getpid() != parent:
                time.sleep(60)
                return real(*args)
            raise error

        cpus(4)
        monkeypatch.setattr(coupling, "best_over_d1", row)
        start = time.monotonic()
        if error is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                run_cli(self.SMALL + ["--threads", "4"])
        else:
            assert run_cli(self.SMALL + ["--threads", "4"]) == (2, "", "numerical failure: out of memory\n")
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_fork_refused_is_one_line(self, monkeypatch, cpus):
        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        cpus(2)
        monkeypatch.setattr(os, "fork", refused)
        code, out, err = run_cli(self.SMALL + ["--threads", "2"])
        assert (code, out) == (2, "")
        assert err == "numerical failure: worker 1 of 2 did not start: [Errno 11] Resource temporarily unavailable\n"

    def test_one_worker_forks_nothing(self, monkeypatch):
        def forbidden():
            raise AssertionError("forked at --threads 1")

        monkeypatch.setattr(os, "fork", forbidden)
        assert run_cli(self.SMALL + ["--threads", "1"])[0] == 0
