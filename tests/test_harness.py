"""Experiment harness: run functions, manifests, suite, and the CLI."""
import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rough_scl
import rough_scl.config as config
import rough_scl.semilinear as semilinear
import rough_scl.solver as solver
from rough_scl.cli import main
from rough_scl.config import load_config
from rough_scl import harness
from rough_scl.fluxes import builtin
from rough_scl.harness import (
    DEFAULT_SUITE,
    EXPERIMENTS,
    _logistic_speed,
    execute,
    output_root,
    rerun_from_manifest,
    run_contraction,
    run_kinetic_check,
    run_path_stability,
    run_refinement,
    run_suite,
    suite_cfg,
)
from rough_scl.paths import identity_path
from rough_scl.solver import _TIME_ATOL


def datum_table(n_cells) -> str:
    """An x,u table on the cell centres of an n_cells grid on the default domain [-1, 1]."""
    x = -1.0 + (np.arange(n_cells) + 0.5) * 2.0 / n_cells
    return "x,u\n" + "".join(f"{v!r},{math.sin(math.pi * v)!r}\n" for v in x.tolist())


@contextlib.contextmanager
def counting_steps():
    """Count the solver steps taken inside the block, by `solve_path` and by the semilinear
    splitting solver (each calls `step` through its module global); a step that refuses its
    input, such as a state outside the certified range, is not taken."""
    steps, real = [], solver.step

    def counted(*args, **kwargs):
        new = real(*args, **kwargs)
        steps.append(None)
        return new

    with mock.patch.object(solver, "step", counted), mock.patch.object(semilinear, "step", counted):
        yield steps


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail the test if the block still runs after `seconds`.  `pytest.fail` raises an exception that
    `cli._ERRORS` does not catch (a TimeoutError is an OSError, which the CLI prints as a config error)."""
    def fail(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# The config errors that come after solving, as the rejection has to see the solutions.
NEEDS_THE_SOLUTIONS = (
    "does not feel the driver",  # path-stability: no perturbed solve differs; refine: no first gap
)
CLI_TIME_LIMIT = 30.0  # seconds; under a huge or infinite speed bound a run once stepped for ever
# Datum tables written beside every config that `run_cli` runs
TABLES = {
    "u0.csv": datum_table(400),  # on the default grid
    "off_grid.csv": "x,u\n" + "".join(f"{x},0.5\n" for x in np.linspace(5.0, 9.0, 4)),
    "with_nan.csv": "x,u\n-0.75,0.5\n-0.25,0.5\n0.25,nan\n0.75,0.5\n",  # centres of 4 cells on [-1, 1]
}


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=reject)


def run_cli(head: list, text: str) -> tuple[int, str, int]:
    """Run the CLI in process, with `text` as its config file, and check its exit contract: it exits
    0, 1 or 2 with no exception or warning escaping, within CLI_TIME_LIMIT seconds.  Exit 2 prints one
    `config error:` or `run error:` line and leaves no run directory, and a config error comes before
    any solver step unless it is one of the rejections that need the solutions; every report.json and
    manifest.json written is strict JSON.  `{tmp}` in `text` is the config's directory, which also
    holds the TABLES.  Returns the exit code, stderr and the number of solver steps."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, table in TABLES.items():
            (Path(tmp) / name).write_text(table)
        cfg, out = Path(tmp) / "cfg.txt", Path(tmp) / "out"
        cfg.write_text(text.replace("{tmp}", tmp))
        out.mkdir()  # made here, as a rejection can come before the CLI makes it
        err = io.StringIO()
        with time_limit(CLI_TIME_LIMIT), counting_steps() as taken, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(head + ["--out", str(out), "--config", str(cfg)])
        err = err.getvalue()
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith(("config error: ", "run error: ")) and err.count("\n") == 1, err
            assert list(out.iterdir()) == []
            if err.startswith("config error: ") and taken:
                assert any(reason in err for reason in NEEDS_THE_SOLUTIONS), err
        else:
            written = [*out.rglob("report.json"), *out.rglob("manifest.json")]
            assert written
            for file in written:
                _strict_json(file.read_text())
    return code, err, len(taken)


# The one table of configs that the CLI rejects, by the test that runs them: row id -> (experiment,
# config text, what its one `config error:` line holds: the whole line when it ends in a newline,
# else a part of it, the key, spec or numbers at fault).
REJECTED = {
    # each alone and as a one-member suite
    "rejected_config": {
        "kinetic-godunov": ("kinetic-check", "scheme = godunov_convex\n", "'godunov_convex'"),
        "semilinear-bogus-source": ("semilinear-demo", "source = bogus\n", "'bogus'"),
        "bump-zero-width": ("solve", "datum = bump:0,0,1\n", "halfwidth"),
        "zero-outputs": ("path-stability", "n_outputs = 0\n", "n_outputs"),
        "zero-epsilon": ("path-stability", "epsilons = 0.2,0.1,0.05,0\n", "epsilons"),
        "nan-epsilon": ("path-stability", "epsilons = 0.2,nan,0.05,0.025\n", "epsilons"),
        "file-datum": ("path-stability", "datum = file:{tmp}/u0.csv\n", "datum"),
        "datum-feels-no-driver": ("path-stability", "datum = riemann:0.5,0.5\n", "riemann:0.5,0.5"),
        "inf-u-hi": ("solve", "u_hi = inf\nn_cells = 32\n", "u_hi = inf"),
        "semilinear-inf-u-hi": ("semilinear-demo", "u_hi = inf\nn_cells = 32\n", "u_hi = inf"),
        "overflowing-bound": ("solve", "flux = poly:0,0,1e308\nn_cells = 32\n", "'poly:0,0,1e308'"),
        "nan-coefficient": ("solve", "flux = poly:0,nan\nn_cells = 32\n", "'poly:0,nan'"),
        "bump-nan-width": ("solve", "datum = bump:0,nan,0.5\nn_cells = 32\n", "bump:0,nan,0.5"),
        "bump-nan-center": ("solve", "datum = bump:nan,0.3,0.5\nn_cells = 32\n", "bump:nan,0.3,0.5"),
        "bump-inf-width": ("solve", "datum = bump:0,inf,0.5\nn_cells = 32\n", "bump:0,inf,0.5"),
        "riemann-nan-jump": ("solve", "datum = riemann:1,0,nan\nn_cells = 32\n", "riemann:1,0,nan"),
        "inf-x-hi": ("solve", "x_hi = inf\nn_cells = 32\n", "x_hi = inf"),
        "inf-horizon": ("solve", "horizon = inf\nn_cells = 32\n", "horizon = inf"),
        "negative-power": ("solve", "path = monomial:-1,8\nn_cells = 32\n", "path = monomial:-1,8"),
        "huge-bound": ("solve", "u_lo = -1e300\nu_hi = 1e300\nn_cells = 32\n",
                       "config error: speed bound 3.69e+300 with dx = 0.0625: the step count is "
                       "2.609383224e+301, more than the step cap of 10000000\n"),
        "semilinear-huge-bound": ("semilinear-demo", "u_lo = -1e300\nu_hi = 1e300\nn_cells = 32\n",
                                  "config error: speed bound 1e+300 with dx = 0.0625: the step count is "
                                  "1.777777778e+301, more than the step cap of 10000000\n"),
        "huge-u-hi": ("solve", "u_hi = 1e300\nn_cells = 32\n",
                      "config error: speed bound 3.69e+300 with dx = 0.0625: the step count is "
                      "2.609383224e+301, more than the step cap of 10000000\n"),
        "semilinear-huge-u-hi": ("semilinear-demo", "u_hi = 1e300\nn_cells = 32\n",
                                 "config error: speed bound 1e+300 with dx = 0.0625: the step count is "
                                 "1.777777778e+301, more than the step cap of 10000000\n"),
        "huge-coefficient": ("solve", "flux = poly:0,1e308\nn_cells = 32\n",
                             "config error: speed bound inf with dx = 0.0625: the step count is inf, more than the "
                             "step cap of 10000000\n"),
        "bad-datum2": ("contraction", "path = brownian:1024\nn_cells = 800\ndatum2 = riemann:1\n", "riemann takes"),
        "xi-grid-short-of-datum": ("kinetic-check", "datum = riemann:2,0\npath = brownian:1024\n",
                                   "does not cover data range +-2.0"),
        "inf-xi-hi": ("kinetic-check", "xi_hi = inf\n", "xi_hi = inf"),
        # each of these once ran before failing
        "nan-unread-key": ("solve", "xi_lo = nan\nn_cells = 32\n", "xi_lo = nan"),  # refused by the manifest
        "unstable-rate": ("semilinear-demo", "source = linear:-3000\n", "source = linear:-3000"),  # left u_range
        "overflowing-rate": ("semilinear-demo", "source = linear:-1e300\n", "source = linear:-1e300"),  # warned
        "front-leaves-domain": ("semilinear-demo", "horizon = 3\n", "horizon = 3.0"),  # no level crossing
        "datum2-outside-u-range": ("contraction", "datum2 = riemann:0.8,3\n", "riemann:0.8,3"),  # after one solve
        "no-monomial-segment": ("solve", "path = monomial:2,-1\n", "path = monomial:2,-1"),  # IndexError
        "linear-front-leaves-domain": ("semilinear-demo", "source = linear:0.5\nu_hi = 10\nhorizon = 2.2\n",
                                       "horizon = 2.2"),
    },
    "missing_input_file": {  # each alone and as a one-member suite
        key: ("solve", f"{key} = file:{{tmp}}/absent.csv\n", "absent.csv") for key in ("datum", "path")
    },
    "bad_linear_rate": {
        rate: ("semilinear-demo", f"source = linear:{rate}\n",
               f"config error: source = linear:{rate}: the linear rate must be a finite number, got '{rate}'\n")
        for rate in ("nan", "inf", "-inf", "fast")
    },
    "semilinear_demo_flux_key": {  # the demo solves Burgers; another flux key was ignored
        flux: ("semilinear-demo", f"flux = {flux}\n", f"flux = {flux!r}") for flux in ("cubic", "burgers;cubic")
    },
    "over_the_cap": {  # each alone and as a one-member suite, under `solver.MAX_STEPS` = LOWERED_CAP
        "cells": ("solve", "n_cells = 1001\n", "config error: n_cells is 1001, more than the step cap of 1000\n"),
        "defect-values": ("kinetic-check", "n_cells = 32\nn_xi = 40\n",
                          "config error: the defect value count n_outputs * n_cells * n_xi = 10 * 32 * 40 is "
                          "12800, more than the step cap of 1000\n"),
        "windows": ("dissipative-check", "n_cells = 32\nn_seeds = 10\nn_data = 10\nn_anchors = 11\n",
                    "config error: the window count n_seeds * n_data * n_anchors = 10 * 10 * 11 is 1100, "
                    "more than the step cap of 1000\n"),
    },
    "one_off": {
        "datum-table-off-the-grid": ("solve", "n_cells = 4\ndatum = file:{tmp}/off_grid.csv\n", "x column"),
        "datum-table-with-nan": ("solve", "n_cells = 4\ndatum = file:{tmp}/with_nan.csv\n", "not finite"),
        "malformed-config": ("solve", "n_cols = 7\n", "unknown key 'n_cols'"),
        "unknown-suite-member": ("warp", "", "config error: unknown experiments: ['warp']\n"),
    },
}


LOWERED_CAP = 1000  # `solver.MAX_STEPS` for the rows of REJECTED["over_the_cap"]


def rejected_argv(row: tuple, command: str = "single") -> tuple[list, str]:
    """(argv head, config text) of a row of REJECTED, run alone or as a one-member suite."""
    experiment, text, _ = row
    return [experiment] if command == "single" else ["suite", experiment], text


def assert_rejected(row: tuple, command: str = "single") -> None:
    """The row's config exits 2 with one `config error:` line holding the row's text; `run_cli` checks
    the rest of the contract."""
    code, err, _ = run_cli(*rejected_argv(row, command))
    expected = row[2]
    assert code == 2 and err.startswith("config error: "), err
    assert err == expected if expected.endswith("\n") else expected in err, err


def tiny(**over):
    base = {
        "n_cells": 100,
        "horizon": 0.5,
        "n_outputs": 4,
        "path": "brownian:4",
        "u_lo": -1.5,
        "u_hi": 1.5,
    }
    base.update(over)
    return load_config(None, base)


class TestRunSolve:
    def test_invariants_and_files(self, tmp_path):
        run_dir, report = execute("solve", tiny(experiment="solve"), tmp_path)
        assert report["pass"]
        assert report["mass_drift"] <= 1e-12
        assert report["tv_increase"] <= 1e-10
        assert report["max_principle_violation"] <= 1e-12
        names = {p.name for p in run_dir.iterdir()}
        assert {"manifest.json", "report.json", "config.txt", "path.csv", "invariants.csv"} <= names
        assert sum(n.startswith("state_") for n in names) == 5  # n_outputs + 1

    @pytest.mark.parametrize("flux", ["burgers", "burgers;cubic"])
    def test_outputs_read_back_as_inputs(self, tmp_path, flux):
        """A run's path.csv and first state, given back as `file:` path and datum, give every state
        byte for byte: the table is written and read in one format, bit for bit."""
        first, _ = execute("solve", tiny(experiment="solve", flux=flux), tmp_path / "first")
        again, _ = execute("solve", tiny(experiment="solve", flux=flux, path=f"file:{first}/path.csv",
                                         datum=f"file:{first}/state_000.csv"), tmp_path / "again")
        states = sorted(p.name for p in first.glob("state_*.csv"))
        assert len(states) == 5
        for name in ["path.csv", *states]:
            assert (again / name).read_bytes() == (first / name).read_bytes(), name

    def test_outflow_skips_mass_gate(self, tmp_path):
        cfg = tiny(experiment="solve", bc="outflow")
        _, report = execute("solve", cfg, tmp_path)
        assert report["mass_drift"] is None
        assert report["pass"]


class TestContraction:
    def test_identical_data_zero_distance(self, tmp_path):
        cfg = tiny(experiment="contraction", datum2="riemann:1,0")
        run_dir = tmp_path / "c"
        run_dir.mkdir()
        report = run_contraction(cfg, run_dir)
        assert report["pass"]
        assert np.allclose(report["distances"], 0.0)

    def test_distinct_data_nonincreasing(self, tmp_path):
        cfg = tiny(experiment="contraction", datum2="riemann:0.8,-0.2")
        run_dir = tmp_path / "c"
        run_dir.mkdir()
        report = run_contraction(cfg, run_dir)
        assert report["pass"]
        d = report["distances"]
        assert d[0] > 0.0
        assert all(b <= a + 1e-10 for a, b in zip(d, d[1:]))

    def test_translated_data_frozen_path_keep_distance(self, tmp_path):
        """With a frozen driver nothing moves, so the L1 distance of any two
        data is exactly constant in time."""
        csv = tmp_path / "w.csv"
        csv.write_text("t,w1\n0.0,0.0\n0.5,0.0\n")
        cfg = tiny(
            experiment="contraction",
            path=f"file:{csv}",
            datum="bump:-0.2,0.3,0.5",
            datum2="bump:0.2,0.3,0.5",
        )
        run_dir = tmp_path / "c"
        run_dir.mkdir()
        report = run_contraction(cfg, run_dir)
        d = np.asarray(report["distances"])
        assert np.allclose(d, d[0], atol=1e-14)
        assert d[0] > 0.1

    def test_needs_datum2(self, tmp_path):
        with pytest.raises(ValueError, match="datum2"):
            run_contraction(tiny(experiment="contraction", datum2=""), tmp_path)

    def test_runs_at_its_defaults(self, tmp_path, capsys):
        assert load_config(None)["datum2"] == "riemann:0.8,0"
        assert main(["contraction", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("contraction: PASS")


class TestPathStability:
    def test_report_shape_and_gates(self, tmp_path):
        cfg = tiny(
            experiment="path-stability",
            datum="riemann:2,0",
            u_lo=-0.5,
            u_hi=2.5,
            n_cells=200,
            epsilons="0.4,0.2,0.1,0.05",
        )
        run_dir = tmp_path / "s"
        run_dir.mkdir()
        report = run_path_stability(cfg, run_dir)
        assert (run_dir / "stability.csv").exists()
        assert len(report["errors"]) == 4
        assert report["errors"] == sorted(report["errors"], reverse=True)
        assert report["monotone"]
        assert 0.3 <= report["slope"] <= 1.2

    def test_rejects_narrow_epsilon_span(self, tmp_path):
        cfg = tiny(experiment="path-stability", epsilons="0.2,0.1")
        with pytest.raises(ValueError, match="octaves"):
            run_path_stability(cfg, tmp_path)

    def test_rejects_file_datum_before_solving(self, tmp_path, monkeypatch):
        """The Richardson check needs the datum on the doubled grid too; a table
        matching the configured grid has no values there."""
        csv = tmp_path / "u0.csv"
        csv.write_text(datum_table(100))
        monkeypatch.setattr(harness, "solve_path", lambda *a, **k: pytest.fail("solved"))
        cfg = tiny(experiment="path-stability", datum=f"file:{csv}")
        with pytest.raises(ValueError, match="^path-stability takes no file: datum: its Richardson "
                                             "check solves on the doubled grid of 200 cells"):
            run_path_stability(cfg, tmp_path)

    @pytest.mark.parametrize("bad", ["0", "-0.0125", "nan", "inf"])
    def test_rejects_epsilon_not_positive_and_finite(self, tmp_path, bad):
        """Every epsilon must be positive and finite; the message names one that is not."""
        cfg = tiny(experiment="path-stability", epsilons=f"0.2,0.1,0.05,{bad}")
        with pytest.raises(ValueError, match=f"^epsilons must be positive and finite, got {float(bad)!r}$"):
            run_path_stability(cfg, tmp_path)


class TestRefinement:
    def test_gap_table(self, tmp_path):
        cfg = tiny(experiment="refine", level_lo=2, level_hi=5, n_cells=80)
        run_dir = tmp_path / "r"
        run_dir.mkdir()
        report = run_refinement(cfg, run_dir)
        assert (run_dir / "refinement.csv").exists()
        assert len(report["gaps"]) == 3
        assert all(g > 0 for g in report["gaps"])
        assert len(report["path_gaps"]) == 3

    def test_needs_three_levels(self, tmp_path):
        cfg = tiny(experiment="refine", level_lo=4, level_hi=6)
        with pytest.raises(ValueError, match="three levels"):
            run_refinement(cfg, tmp_path)

    @pytest.mark.parametrize("levels, message", [
        pytest.param((-1, 4), "^level_lo must be at least 0, got -1$", id="negative-lo"),
        pytest.param((2, 7), "^level_hi = 7: the finest path's segment count is 128, more than the step cap of 100$",
                     id="hi-above-cap"),
        pytest.param((2, 10**9), "^level_hi = 1000000000: the finest path's segment count is inf, more than the "
                     "step cap of 100$", id="huge-hi"),  # 2**level_hi past a double's range is not formed
    ])
    def test_levels_checked_before_the_ladder(self, tmp_path, monkeypatch, levels, message):
        """The finest path has 2**level_hi segments, each a solver step at least: above
        `solver.MAX_STEPS` the ladder is refused before any level is sampled."""
        monkeypatch.setattr(solver, "MAX_STEPS", 100)
        monkeypatch.setattr(harness, "brownian_sample", lambda *a: pytest.fail("sampled"))
        monkeypatch.setattr(harness, "dyadic_refine", lambda *a: pytest.fail("refined"))
        cfg = tiny(experiment="refine", level_lo=levels[0], level_hi=levels[1])
        with pytest.raises(ValueError, match=message):
            run_refinement(cfg, tmp_path)

    @pytest.mark.parametrize("scheme, atol", [("godunov_convex", 0.0), ("engquist_osher", 1e-15)])
    def test_criterion_9_gaps_pinned(self, tmp_path, scheme, atol):
        """Criterion 9's ladder (Burgers 1/0, seed 16), pinned from the form that
        built one-interval fluxes from the node tables: Godunov keeps those bits,
        and Engquist-Osher, F at the upwind state there, moves at roundoff only."""
        cfg = load_config(None, {"experiment": "refine", "datum": "riemann:1,0", "u_lo": -0.5, "u_hi": 1.5,
                                 "n_cells": 400, "seed": 16, "level_lo": 4, "level_hi": 10, "scheme": scheme})
        pinned = {
            "godunov_convex": ["0x1.cd94a30bd10eap-3", "0x1.4a0361a5df347p-4", "0x1.114b2eb4c7ea7p-4",
                               "0x1.82bd75b853c03p-5", "0x1.5682f7085f4b8p-5", "0x1.0166fc4727672p-5"],
            "engquist_osher": ["0x1.cd94a30bd10eap-3", "0x1.4a0361a5df352p-4", "0x1.114b2eb4c7eabp-4",
                               "0x1.82bd75b853c03p-5", "0x1.5682f7085f4c8p-5", "0x1.0166fc4727656p-5"],
        }[scheme]
        gaps = run_refinement(cfg, tmp_path)["gaps"]
        assert len(gaps) == len(pinned)
        for got, want in zip(gaps, map(float.fromhex, pinned)):
            assert abs(got - want) <= atol


class TestKineticAndDissipative:
    def test_kinetic_check_small(self, tmp_path):
        cfg = tiny(experiment="kinetic-check", n_xi=80)
        run_dir, report = execute("kinetic-check", cfg, tmp_path)
        assert report["pass"]
        assert report["min_m"] >= -report["tol_m"]
        assert report["unpr1_max_relative"] >= 0.0
        assert (run_dir / "xi_mass.csv").exists()
        assert (run_dir / "l1_identity.csv").exists()

    def test_kinetic_check_rejects_godunov(self, tmp_path, monkeypatch):
        """The defect extraction is the kinetic form of the EO step only; the
        scheme is checked before the solve, whose cost grows with the path."""
        import rough_scl.harness as harness_module

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_path called on a config the extraction rejects")

        monkeypatch.setattr(harness_module, "solve_path", no_solve)
        cfg = tiny(experiment="kinetic-check", n_xi=80, scheme="godunov_convex", path="brownian:1024")
        with pytest.raises(ValueError, match="'godunov_convex'.*engquist_osher"):
            run_kinetic_check(cfg, tmp_path)
        with pytest.raises(ValueError, match="'godunov_convex'.*engquist_osher"):
            execute("kinetic-check", cfg, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []

    def test_dissipative_check_small(self, tmp_path):
        cfg = tiny(
            experiment="dissipative-check",
            n_seeds=1,
            n_data=1,
            n_anchors=1,
            datum="riemann:0.5,0",
            x_lo=-2.0,
            x_hi=2.0,
        )
        run_dir, report = execute("dissipative-check", cfg, tmp_path)
        assert report["pass"]
        assert report["n_windows"] == 1
        assert report["min_h"] > 0.0
        assert (run_dir / "windows.csv").exists()

    def test_dissipative_outputs_more_than_time_atol_apart(self, tmp_path, monkeypatch):
        """At seed 3 two window edges of the second path lie 5.6e-17 apart; only
        the first reaches `solve_path`."""
        gaps = []
        solve = harness.solve_path

        def spy(u0, flux, path, outputs, *args, **kwargs):
            gaps.append(float(np.min(np.diff(outputs))))
            return solve(u0, flux, path, outputs, *args, **kwargs)

        monkeypatch.setattr(harness, "solve_path", spy)
        cfg = load_config(None, {"experiment": "dissipative-check", "seed": 3, "n_seeds": 2})
        execute("dissipative-check", cfg, tmp_path)
        assert len(gaps) == 2 and min(gaps) > _TIME_ATOL

    def test_dissipative_solve_ends_at_last_window_end(self, tmp_path, monkeypatch):
        """No snapshot is taken past the windows: each path's solve stops at the latest window end,
        here short of the horizon."""
        sols, ends = [], []
        solution, solve = harness.local_solution, harness.solve_path

        def recording_solution(*args):
            sols.append(solution(*args))
            return sols[-1]

        def spy(u0, flux, path, outputs, *args, **kwargs):
            ends.append((max(outputs), max(sol.window[1] for sol in sols)))
            sols.clear()
            return solve(u0, flux, path, outputs, *args, **kwargs)

        monkeypatch.setattr(harness, "local_solution", recording_solution)
        monkeypatch.setattr(harness, "solve_path", spy)
        cfg = load_config(None, {"experiment": "dissipative-check", "n_seeds": 2, "n_data": 2, "n_anchors": 1,
                                 "datum": "riemann:1,0", "u_lo": -1.5, "u_hi": 1.5})
        execute("dissipative-check", cfg, tmp_path)
        assert len(ends) == 2
        for last_output, last_end in ends:
            assert last_output == last_end < cfg["horizon"]

    @pytest.mark.parametrize("key", ["n_seeds", "n_data", "n_anchors"])
    def test_dissipative_check_rejects_zero_counts(self, tmp_path, monkeypatch, key):
        """Each count must be at least 1; the message names the key, and nothing is solved."""
        counts = dict(n_seeds=1, n_data=1, n_anchors=1)
        counts[key] = 0
        cfg = tiny(experiment="dissipative-check", **counts)
        monkeypatch.setattr(harness, "solve_path", lambda *a, **k: pytest.fail("solved"))
        with pytest.raises(ValueError, match=f"^{key} must be at least 1, got 0$"):
            execute("dissipative-check", cfg, tmp_path / "out")
        assert list((tmp_path / "out").iterdir()) == []


class TestSemilinearDemo:
    def test_zero_source_gap_small(self, tmp_path):
        cfg = tiny(experiment="semilinear-demo", source="zero", n_cells=200, horizon=0.5)
        run_dir, report = execute("semilinear-demo", cfg, tmp_path)
        assert report["pass"] and report["failed_clauses"] == []
        assert report["front_oracle"] == 0.25  # T/2
        assert abs(report["x_transform"] - 0.25) <= 1e-6
        assert abs(report["gap"]) <= 2.0 * report["dx"] + 1e-6
        assert (run_dir / "mismatch.csv").exists()

    @pytest.mark.parametrize("lam", [-1.0, 0.5])
    def test_linear_source_fronts_match_exact(self, tmp_path, lam):
        """u_t + (u^2/2)_x = lam u from the 1/0 step has its shock at
        (e^{lam t} - 1) / (2 lam); for lam = -1 the left state e^{-t} drops
        below 1/2, so the direct front is found at half the flowed left state."""
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"source = linear:{lam}\nn_cells = 400\nhorizon = 1.0\n")
        out = tmp_path / "out"
        assert main(["semilinear-demo", "--out", str(out), "--config", str(cfg)]) == 0
        report = json.loads(next(out.glob("*/report.json")).read_text())
        exact = math.expm1(lam) / (2.0 * lam)
        assert report["front_oracle"] == pytest.approx(exact, rel=1e-15)
        assert report["pass"] and report["failed_clauses"] == []
        assert abs(report["x_transform"] - exact) <= 1e-6
        assert abs(report["x_direct"] - exact) <= 2.0 * report["dx"]
        assert abs(report["gap"]) <= 2.0 * report["dx"]

    def test_linear_front_gate_fails_off_the_oracle(self, tmp_path, monkeypatch):
        """The linear-source gate is live: a wrong oracle fails both front clauses."""
        monkeypatch.setattr(harness, "_linear_front", lambda lam, horizon: 0.25)
        cfg = load_config(None, {"experiment": "semilinear-demo", "source": "linear:-1"})
        _, report = execute("semilinear-demo", cfg, tmp_path)
        assert report["front_oracle"] == 0.25
        assert not report["pass"]
        assert [c.split()[0] for c in report["failed_clauses"]] == ["transformed", "direct"]

    def test_unknown_source(self, tmp_path):
        cfg = tiny(experiment="semilinear-demo", source="tanh")
        with pytest.raises(ValueError, match="source spec"):
            execute("semilinear-demo", cfg, tmp_path)

    def test_logistic_oracle_at_the_horizon(self, tmp_path):
        """The speed oracle is the closed form at T = 0.5, not the T = 1 value."""
        cfg = tiny(experiment="semilinear-demo", n_cells=200)
        _, report = execute("semilinear-demo", cfg, tmp_path)
        em1 = math.expm1(0.5)
        assert report["speed_oracle"] == (1.0 + 1.0 / em1) * (1.0 - 0.5 / em1)
        assert abs(report["speed_at_horizon"] - report["speed_oracle"]) <= 1e-6
        assert report["pass"] and report["failed_clauses"] == []

    def test_one_flow_map_sweep(self, tmp_path, monkeypatch):
        """The report's speed at the horizon is the speed row of the front's sweep, the only one."""
        sweeps = []
        sweep = semilinear.FlowMap._sweep

        def counted(*args):
            sweeps.append(args)
            return sweep(*args)
        monkeypatch.setattr(semilinear.FlowMap, "_sweep", counted)
        cfg = tiny(experiment="semilinear-demo", n_cells=200)
        _, report = execute("semilinear-demo", cfg, tmp_path)
        assert len(sweeps) == 1
        monkeypatch.undo()
        flow = semilinear.FlowMap(semilinear.logistic_source(), identity_path(0.5))
        speed = semilinear.transformed_shock_speed(builtin("burgers"), flow, 0.5)
        assert abs(report["speed_at_horizon"] - speed) <= 1e-15

    def test_logistic_speed_closed_form_and_series(self):
        """int_0^1 Psi(w; T) dw: e(e-2)/(e-1)^2 at T = 1, and 1/2 + T/6 + O(T^2) near 0."""
        e = math.e
        assert _logistic_speed(1.0) == e * (e - 2.0) / (e - 1.0) ** 2
        nodes, weights = np.polynomial.legendre.leggauss(64)
        w = 0.5 * (nodes + 1.0)
        for t in (1e-7, 1e-5, 0.3):
            exact = 0.5 * weights @ (w * math.exp(t) / (1.0 + w * math.expm1(t)))
            assert _logistic_speed(t) == pytest.approx(exact, rel=0.0, abs=1e-10)
        assert abs(_logistic_speed(1e-7) - (0.5 + 1e-7 / 12.0)) > 1e-9  # the T/12 series is wrong


class TestManifests:
    def test_execute_writes_manifest(self, tmp_path):
        run_dir, _ = execute("solve", tiny(experiment="solve", seed=5), tmp_path)
        m = json.loads((run_dir / "manifest.json").read_text())
        assert m["experiment"] == "solve"
        assert m["seed"] == 5
        assert m["run_id"] == run_dir.name
        assert "invariants.csv" in m["outputs"]
        assert m["config"]["n_cells"] == 100

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ValueError, match="unknown experiment"):
            execute("renormalize", tiny(), tmp_path)

    def test_rerun_is_byte_identical(self, tmp_path):
        run_dir, _ = execute("solve", tiny(experiment="solve", seed=11), tmp_path)
        result = rerun_from_manifest(run_dir / "manifest.json", tmp_path)
        assert result["all_match"]
        assert set(result["match"]) == set(
            json.loads((run_dir / "manifest.json").read_text())["outputs"]
        )

    def test_rerun_rejects_stale_config_key(self, tmp_path):
        run_dir, _ = execute("solve", tiny(experiment="solve"), tmp_path)
        manifest = run_dir / "manifest.json"
        m = json.loads(manifest.read_text())
        m["config"]["kernel_width"] = 0.1  # recorded by versions that still had the key
        manifest.write_text(json.dumps(m))
        with pytest.raises(ValueError, match="kernel_width"):
            rerun_from_manifest(manifest, tmp_path)

    def test_unique_run_dirs(self, tmp_path):
        d1, _ = execute("solve", tiny(experiment="solve"), tmp_path)
        d2, _ = execute("solve", tiny(experiment="solve"), tmp_path)
        assert d1 != d2


class TestOutputRoot:
    def test_env_var_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROUGH_SCL_OUT", str(tmp_path / "elsewhere"))
        assert output_root() == tmp_path / "elsewhere"

    def test_default_is_runs(self, monkeypatch):
        monkeypatch.delenv("ROUGH_SCL_OUT", raising=False)
        assert output_root().name == "runs"


class TestSuite:
    def test_empty_suite_passes(self, tmp_path):
        suite_dir, summary = run_suite([], tiny(), tmp_path)
        assert summary["pass"]
        assert (suite_dir / "report.json").exists()

    def test_suite_cfg_fills_required_inputs(self):
        cfg = tiny(bc="periodic")
        assert suite_cfg(cfg, "contraction")["datum2"] == "riemann:0.8,0"
        assert suite_cfg(cfg, "semilinear-demo")["bc"] == "outflow"
        two = tiny(flux="burgers;cubic")
        assert suite_cfg(two, "semilinear-demo")["flux"] == "burgers"
        assert suite_cfg(two, "solve")["flux"] == "burgers;cubic"
        assert suite_cfg(cfg, "solve")["experiment"] == "solve"

    def test_suite_runs_members_one_after_another(self, tmp_path):
        cfg = tiny(source="zero")
        suite_dir, summary = run_suite(["solve", "contraction"], cfg, tmp_path)
        assert set(summary["experiments"]) == {"solve", "contraction"}
        assert summary["pass"]
        subdirs = [p for p in suite_dir.iterdir() if p.is_dir()]
        assert len(subdirs) == 2

    def test_default_suite_names_known(self):
        assert set(DEFAULT_SUITE) <= set(EXPERIMENTS)


class TestVerdict:
    """Every experiment derives `pass` by one rule: no clause in `failed_clauses`."""

    PASSING = {
        "solve": {},
        "contraction": {"datum2": "riemann:0.8,-0.2"},
        "path-stability": {"datum": "riemann:2,0", "u_lo": -0.5, "u_hi": 2.5, "n_cells": 200,
                           "epsilons": "0.4,0.2,0.1,0.05"},
        # refine's strict-decrease clause holds at some seeds only (see ROADMAP); 3 is one
        "refine": {"level_lo": 2, "level_hi": 5, "seed": 3},
        "kinetic-check": {"n_xi": 80},
        "dissipative-check": {"n_seeds": 1, "n_data": 1, "n_anchors": 1, "datum": "riemann:0.5,0",
                              "x_lo": -2.0, "x_hi": 2.0},
        "semilinear-demo": {"n_cells": 200},
    }

    def test_every_experiment_covered(self):
        assert set(self.PASSING) == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", sorted(PASSING))
    def test_passing_config_has_no_failed_clause(self, tmp_path, name):
        _, report = execute(name, tiny(experiment=name, **self.PASSING[name]), tmp_path)
        assert report["failed_clauses"] == []
        assert report["pass"] is True

    def test_failing_contraction_prints_its_clause(self, tmp_path, capsys, monkeypatch):
        """A failing clause of an experiment other than path-stability and refine
        is printed under its FAIL line too, with its numbers."""
        monkeypatch.setattr(harness, "CONTRACTION_TOL", -1.0)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_cells = 100\nhorizon = 0.5\nn_outputs = 4\npath = brownian:4\n"
                       "datum2 = riemann:0.8,-0.2\n")
        code = main(["contraction", "--out", str(tmp_path / "out"), "--config", str(cfg)])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0].startswith("contraction: FAIL")
        assert lines[1].startswith("  failed: L1 distance grew by ") and lines[1].endswith(" > -1")
        assert not lines[2].startswith("  failed:")


class TestCli:
    def test_solve_round_trip(self, tmp_path, capsys):
        code = main(["solve", "--out", str(tmp_path), "--seed", "1",
                     "--config", self._cfg(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "solve: PASS" in out
        assert "tv_increase" in out

    def test_suite_lines(self, tmp_path, capsys):
        code = main(["suite", "solve", "--out", str(tmp_path),
                     "--config", self._cfg(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "solve: PASS" in out
        assert "suite: PASS" in out

    @pytest.mark.parametrize("command", ["single", "suite"])
    def test_failing_clauses_printed_under_fail_line(self, tmp_path, capsys, command):
        """The default suite's two failing members say which clause failed, with its numbers."""
        if command == "single":
            code = main(["path-stability", "--out", str(tmp_path)])
            name, clause = "path-stability", "failed: Richardson dx_error 9.78e-03 > errors[-1]/10 = 2.41e-03"
        else:
            code = main(["suite", "refine", "--out", str(tmp_path)])
            name, clause = "refine", (
                "failed: gaps not strictly decreasing: 0.166 -> 0.112 -> 0.133 -> 0.0536 -> 0.0265 "
                "-> 0.0388 (rise at level 5->6, 8->9)"
            )
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        fail = next(i for i, line in enumerate(lines) if line.startswith(f"{name}: FAIL"))
        assert lines[fail + 1] == f"  {clause}"
        assert not lines[fail + 2].startswith("  failed:")

    def test_package_imports_no_scipy(self):
        """The runtime is numpy-only: importing the package and its CLI loads no scipy module."""
        src = str(Path(rough_scl.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = (
            "import sys, rough_scl, rough_scl.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_unknown_suite_member(self):
        assert_rejected(REJECTED["one_off"]["unknown-suite-member"], "suite")

    @pytest.mark.parametrize("command", ["single", "suite"])
    @pytest.mark.parametrize("name", REJECTED["rejected_config"])
    def test_rejected_config_exits_2(self, command, name):
        """An experiment that rejects its config prints one `config error` line naming
        the key, the spec or the numbers at fault, leaves no run directory behind and,
        unless the rejection needs the solutions, takes no solver step."""
        assert_rejected(REJECTED["rejected_config"][name], command)

    @pytest.mark.parametrize("command", ["single", "suite"])
    @pytest.mark.parametrize("name", REJECTED["over_the_cap"])
    def test_count_over_the_cap_exits_2(self, monkeypatch, command, name):
        """A count key, or a product of them, above `solver.MAX_STEPS` is refused by name before
        anything of its size is built: no datum is built and no solver step is taken."""
        monkeypatch.setattr(solver, "MAX_STEPS", LOWERED_CAP)
        for module in (config, harness):
            monkeypatch.setattr(module, "build_datum", lambda *a: pytest.fail("built a datum"))
        assert_rejected(REJECTED["over_the_cap"][name], command)

    @pytest.mark.parametrize("rate", REJECTED["bad_linear_rate"])
    def test_bad_linear_rate_names_the_source_key(self, rate):
        """A linear rate that is not a finite number is rejected before the solve, by key and rate."""
        assert_rejected(REJECTED["bad_linear_rate"][rate])

    @pytest.mark.parametrize("command", ["single", "suite"])
    def test_numerical_breakdown_exits_2(self, monkeypatch, command):
        """A RuntimeError inside a run (here the front quadrature held to exact agreement of its
        two rules, which differ by roundoff) prints one `run error` line, not a traceback, and
        leaves no run directory."""
        monkeypatch.setattr(semilinear, "POSITION_TOL", 0.0)
        code, err, _ = run_cli(["semilinear-demo"] if command == "single" else ["suite", "semilinear-demo"],
                               "n_cells = 40\n")
        assert code == 2
        assert err.startswith("run error: front position quadrature did not converge")

    @pytest.mark.parametrize("command", ["single", "suite"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_report_value_exits_2(self, monkeypatch, command, bad):
        """Reports are strict JSON: a NaN or infinity is a run error naming its key, and no
        run directory is kept."""
        monkeypatch.setitem(harness.EXPERIMENTS, "solve",
                            lambda cfg, run_dir: {"pass": True, "levels": {"gaps": [0.5, bad]}})
        code, err, _ = run_cli(["solve"] if command == "single" else ["suite", "solve"], "")
        assert code == 2
        assert err == "run error: report.json: levels.gaps[1] is not a finite number\n"

    @pytest.mark.parametrize("command", ["single", "suite"])
    @pytest.mark.parametrize("key", REJECTED["missing_input_file"])
    def test_missing_input_file_exits_2(self, command, key):
        """A datum or path file that is not there is a config error, not a traceback."""
        assert_rejected(REJECTED["missing_input_file"][key], command)

    @pytest.mark.parametrize("flux", REJECTED["semilinear_demo_flux_key"])
    def test_semilinear_demo_flux_key_exits_2(self, flux):
        """The demo solves Burgers; another flux key was ignored and the demo still passed."""
        assert_rejected(REJECTED["semilinear_demo_flux_key"][flux])

    def test_datum_table_off_the_grid_exits_2(self):
        """A datum table whose x column is not the grid's centres is a config error."""
        assert_rejected(REJECTED["one_off"]["datum-table-off-the-grid"])

    def test_datum_table_with_nan_exits_2(self):
        """A NaN in the u column is a config error, not a solve of all-NaN states."""
        assert_rejected(REJECTED["one_off"]["datum-table-with-nan"])

    def test_malformed_config_exits_2(self):
        assert_rejected(REJECTED["one_off"]["malformed-config"])

    def test_time_limit_fails_a_run_that_does_not_end(self, monkeypatch):
        """The guard's failure escapes the CLI's one `except`, where a TimeoutError would not."""
        monkeypatch.setattr(sys.modules[__name__], "CLI_TIME_LIMIT", 0.05)
        monkeypatch.setitem(harness.EXPERIMENTS, "solve", lambda cfg, run_dir: time.sleep(5.0))
        started = time.perf_counter()
        with pytest.raises(pytest.fail.Exception, match="still running after 0.05 s"):
            run_cli(["solve"], "")
        assert time.perf_counter() - started < 1.0

    @staticmethod
    def _cfg(tmp_path) -> str:
        f = tmp_path / "tiny.txt"
        if not f.exists():
            f.write_text(
                "n_cells = 100\nhorizon = 0.5\nn_outputs = 4\npath = brownian:4\n"
                "u_lo = -1.5\nu_hi = 1.5\n"
            )
        return str(f)


EDGE_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "1e300")
# key -> usual values on tiny grids and short horizons (repeats weight the draw)
FUZZ_KEYS = {
    "flux": ("burgers", "burgers", "cubic", "burgers;cubic", "poly:0,1", "poly:0.5,-1,0,0.2"),
    "path": ("brownian:4", "tent", "identity", "monomial:2,4", "monomial:0.5,8"),
    "bc": ("periodic", "outflow"),
    "scheme": ("engquist_osher", "engquist_osher", "godunov_convex"),
    "datum": ("riemann:1,0", "riemann:1,-1", "riemann:-0.5,0.5,0.2", "bump:0,0.4,0.8", "sign-step"),
    "datum2": ("riemann:0.8,0", "bump:0.1,0.3,-0.5"),
    "source": ("logistic", "linear:0.5", "zero", "linear:-2000", "linear:-3000", "linear:-1e300"),
    "seed": ("0", "3"),
    "horizon": ("0.05", "0.2", "5"),
    "u_lo": ("-1.5",),
    "u_hi": ("1.5",),
    "x_lo": ("-1",),
    "x_hi": ("1",),
    "cfl": ("0.9", "0.5"),
    "n_cells": ("8", "16"),
    "n_outputs": ("2", "4"),
    "xi_lo": ("-1.5",),
    "xi_hi": ("1.5",),
    "n_xi": ("16",),
    "epsilons": ("0.2,0.1,0.05", "0.4,0.2,0.1,0.05"),
    "level_lo": ("1",),
    "level_hi": ("4",),
    "n_seeds": ("1",),
    "n_data": ("1",),
    "n_anchors": ("1", "2"),
}
# key -> where an edge number goes: the whole value, or one argument of a spec
EDGE_SLOTS = {key: ("{}",) for key in FUZZ_KEYS if key not in ("bc", "scheme")}
EDGE_SLOTS.update({
    "flux": ("poly:0,{}", "burgers;poly:{},1"),
    "path": ("brownian:{}", "monomial:{},4", "monomial:2,{}"),
    "datum": ("riemann:{},0", "riemann:1,0,{}", "bump:{},0.4,0.8", "bump:0,{},0.8", "bump:0,0.4,{}"),
    "datum2": ("riemann:0.8,{}",),
    "source": ("linear:{}",),
    "epsilons": ("0.2,0.1,{}", "{},0.1,0.05"),
})


@st.composite
def fuzz_configs(draw):
    """(argv head, config text): one of the 7 experiments, alone or as a one-member suite,
    with an edge number in up to two keys or spec arguments."""
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))
    cfg = {key: draw(st.sampled_from(values)) for key, values in FUZZ_KEYS.items()}
    for key in draw(st.lists(st.sampled_from(sorted(EDGE_SLOTS)), max_size=2, unique=True)):
        cfg[key] = draw(st.sampled_from(EDGE_SLOTS[key])).format(draw(st.sampled_from(EDGE_NUMBERS)))
    return fuzz_case([experiment] if draw(st.booleans()) else ["suite", experiment], **cfg)


def fuzz_case(head: list, **over):
    """A drawn value by hand: each key's first usual value, then `over`."""
    cfg = {key: values[0] for key, values in FUZZ_KEYS.items()}
    cfg.update(over)
    return head, "".join(f"{key} = {value}\n" for key, value in cfg.items())


class TestConfigFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(fuzz_configs())
    @example(fuzz_case(["solve"], u_hi="1e300"))  # stepped for ever
    @example(fuzz_case(["semilinear-demo"], u_hi="1e300"))  # stepped for ever
    @example(fuzz_case(["refine"], flux="poly:0,0"))  # every gap 0, final_vs_first 0/0 warned
    @example(fuzz_case(["semilinear-demo"], source="linear:1e300"))  # the source overflowed
    @example(fuzz_case(["solve"], horizon="1e300", path="monomial:2,4"))  # t**2 overflowed
    @example(fuzz_case(["suite", "semilinear-demo"], u_hi="0"))  # the first step refused the 1 state
    @example(rejected_argv(REJECTED["rejected_config"]["nan-unread-key"]))
    @example(rejected_argv(REJECTED["rejected_config"]["unstable-rate"]))
    @example(rejected_argv(REJECTED["rejected_config"]["overflowing-rate"]))
    @example(rejected_argv(REJECTED["rejected_config"]["front-leaves-domain"]))
    @example(rejected_argv(REJECTED["rejected_config"]["datum2-outside-u-range"]))
    @example(rejected_argv(REJECTED["rejected_config"]["no-monomial-segment"]))
    def test_cli_exits_cleanly(self, drawn):
        run_cli(*drawn)
