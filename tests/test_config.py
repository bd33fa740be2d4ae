"""Flat config grammar, datum/path builders, experiment assembly."""
import re

import numpy as np
import pytest

import rough_scl.config as config
import rough_scl.paths as paths
import rough_scl.solver as solver
from rough_scl.config import (
    CONFIG_KEYS,
    build_datum,
    build_experiment,
    build_path,
    build_source,
    config_text,
    load_config,
    parse_config_text,
)
from rough_scl.semilinear import ODE_STEP_PER_UNIT_DRIVER, RK4_STABILITY_LIMIT
from rough_scl.smooth import bump_raw
from rough_scl.solver import Grid1D


class TestParse:
    def test_defaults(self):
        cfg = load_config(None)
        assert set(cfg) == set(CONFIG_KEYS)
        assert cfg["flux"] == "burgers"
        assert cfg["n_cells"] == 400
        assert isinstance(cfg["horizon"], float)

    def test_values_comments_and_types(self):
        cfg = parse_config_text(
            """
            # a comment
            n_cells = 128   # trailing comment
            horizon = 0.5
            flux = burgers;cubic
            """
        )
        assert cfg == {"n_cells": 128, "horizon": 0.5, "flux": "burgers;cubic"}

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ValueError, match="line 2.*n_cols"):
            parse_config_text("n_cells = 4\nn_cols = 7\n")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="line 1.*n_cells"):
            parse_config_text("n_cells = many\n")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("n_cells 4\n")

    def test_file_then_overrides(self, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("n_cells = 64\nseed = 3\n")
        cfg = load_config(str(f), {"seed": 9, "horizon": None})
        assert cfg["n_cells"] == 64
        assert cfg["seed"] == 9  # override wins
        assert cfg["horizon"] == 1.0  # None override ignored

    def test_unknown_override(self):
        with pytest.raises(ValueError, match="override"):
            load_config(None, {"n_cols": 1})

    @pytest.mark.parametrize("key", sorted(k for k, spec in CONFIG_KEYS.items() if spec[0] is float))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_float_key_rejected_by_name(self, tmp_path, key, bad):
        """From the file or an override, before any experiment reads the key."""
        f = tmp_path / "c.txt"
        f.write_text(f"{key} = {bad}\n")
        for args in ((str(f), None), (None, {key: bad})):
            with pytest.raises(ValueError, match=f"^{key} = {bad}: not a finite number$"):
                load_config(*args)

    @pytest.mark.parametrize("key, value, why", [
        ("n_cells", "abc", "invalid literal for int"),
        ("seed", 1.5, "1.5 is not an integer"),
        ("seed", float("inf"), "inf is not an integer"),
        ("n_xi", True, "True is not a number"),
        ("horizon", False, "False is not a number"),
        ("cfl", "fast", "could not convert"),
        ("n_outputs", [4], "int() argument"),
    ])
    def test_override_cast_names_the_key(self, key, value, why):
        """A manifest's config goes through the overrides: a value that is not of the key's type,
        a bool, or a non-integral number for an int key, is refused by key."""
        with pytest.raises(ValueError, match=f"^bad value for '{key}': {re.escape(why)}"):
            load_config(None, {key: value})

    def test_integral_float_override_is_an_int(self):
        cfg = load_config(None, {"n_cells": 64.0, "seed": 3})
        assert cfg["n_cells"] == 64 and type(cfg["n_cells"]) is int

    def test_text_round_trip(self):
        cfg = load_config(None, {"n_cells": 37, "flux": "cubic"})
        again = parse_config_text(config_text(cfg))
        assert again == cfg


class TestDatumBuilders:
    grid = Grid1D(-1.0, 1.0, 8, "periodic")

    def test_riemann(self):
        u = build_datum("riemann:1,0", self.grid)
        assert np.array_equal(u, np.where(self.grid.centers < 0.0, 1.0, 0.0))
        u = build_datum("riemann:2,-1,0.5", self.grid)
        assert np.array_equal(u, np.where(self.grid.centers < 0.5, 2.0, -1.0))

    def test_bump(self):
        u = build_datum("bump:0,0.5,1", self.grid)
        assert u.max() <= 1.0
        assert u[0] == 0.0 and u[-1] == 0.0
        assert u[np.abs(self.grid.centers) < 0.4].min() > 0.0

    def test_negative_bump_is_bump_raw_without_negative_zeros(self):
        grid = Grid1D(-2.0, 2.0, 64, "periodic")
        u = build_datum("bump:-0.2,0.55,-1.3", grid)
        assert np.array_equal(u, -1.3 * bump_raw((grid.centers + 0.2) / 0.55))
        assert not np.any(np.signbit(u) & (u == 0.0))
        assert np.any(u == 0.0) and np.all(u <= 0.0)

    @pytest.mark.parametrize("spec", ["bump:0,0,1", "bump:0,-0.5,1"])
    def test_bump_width_must_be_positive(self, spec):
        """A zero width divided by zero and solved an all-zero datum."""
        with pytest.raises(ValueError, match="halfwidth must be positive"):
            build_datum(spec, self.grid)

    def test_sign_step(self):
        u = build_datum("sign-step", self.grid)
        assert set(np.unique(u)) == {-1.0, 1.0}

    def test_file_round_trip(self, tmp_path):
        f = tmp_path / "u.csv"
        u_ref = np.linspace(-1.0, 1.0, 8)
        f.write_text("x,u\n" + "".join(f"{x},{u}\n" for x, u in zip(self.grid.centers, u_ref)))
        u = build_datum(f"file:{f}", self.grid)
        assert np.allclose(u, u_ref)
        bad = Grid1D(-1.0, 1.0, 9, "periodic")
        with pytest.raises(ValueError, match="rows"):
            build_datum(f"file:{f}", bad)

    def test_file_x_column_must_match_grid(self, tmp_path):
        """A table written for another domain is rejected, not loaded onto this grid."""
        f = tmp_path / "u.csv"
        f.write_text("x,u\n" + "".join(f"{x},0.5\n" for x in np.linspace(5.0, 9.0, 4)))
        with pytest.raises(ValueError, match="x column .* up to 8.25"):
            build_datum(f"file:{f}", Grid1D(-1.0, 1.0, 4, "periodic"))

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_file_non_finite_value_rejected(self, tmp_path, column, bad):
        grid = Grid1D(-1.0, 1.0, 4, "periodic")
        rows = [[f"{x}", "0.5"] for x in grid.centers]
        rows[2][column] = bad
        f = tmp_path / "u.csv"
        f.write_text("x,u\n" + "".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(ValueError, match="not finite"):
            build_datum(f"file:{f}", grid)

    @pytest.mark.parametrize("n_cells", [2, 3])
    def test_one_row_file_counts_one_row(self, tmp_path, n_cells):
        f = tmp_path / "u.csv"
        f.write_text("x,u\n0.0,0.5\n")
        with pytest.raises(ValueError, match="table has 1 rows"):
            build_datum(f"file:{f}", Grid1D(-1.0, 1.0, n_cells, "periodic"))

    def test_one_column_file_rejected(self, tmp_path):
        f = tmp_path / "u.csv"
        f.write_text("u\n0.1\n0.2\n")
        with pytest.raises(ValueError, match="1 column"):
            build_datum(f"file:{f}", Grid1D(-1.0, 1.0, 2, "periodic"))

    @pytest.mark.parametrize("spec", ["file", "file:", "file:a,b.csv"])
    def test_file_needs_one_path(self, spec):
        with pytest.raises(ValueError, match="one csv path"):
            build_datum(spec, self.grid)

    def test_unknown(self):
        with pytest.raises(ValueError, match="datum spec"):
            build_datum("tophat:1", self.grid)
        with pytest.raises(ValueError, match="riemann"):
            build_datum("riemann:1", self.grid)


class TestPathBuilders:
    def test_brownian(self):
        p = build_path("brownian:4", 7, 2.0, 3)
        assert p.n_segments == 4
        assert p.n_channels == 3
        assert p.horizon == 2.0
        q = build_path("brownian:4", 7, 2.0, 3)
        assert np.array_equal(p.values, q.values)

    def test_named_single_channel(self):
        tent = build_path("tent", 0, 2.0, 1)
        assert tent.eval(1.0)[0] == pytest.approx(1.0)
        assert tent.eval(2.0)[0] == pytest.approx(0.0)
        ident = build_path("identity", 0, 1.5, 1)
        assert ident.eval(1.5)[0] == pytest.approx(1.5)
        mono = build_path("monomial:2,8", 0, 1.0, 1)
        assert mono.eval(0.5)[0] == pytest.approx(0.25)
        for name in ("tent", "identity", "monomial:2,8"):
            with pytest.raises(ValueError, match=f"^{name.partition(':')[0]} path is single-channel$"):
                build_path(name, 0, 1.0, 2)

    def test_file(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("t,w1\n0.0,0.0\n1.0,0.5\n")
        p = build_path(f"file:{f}", 0, 1.0, 1)
        assert p.eval(1.0)[0] == pytest.approx(0.5)
        with pytest.raises(ValueError, match="channels"):
            build_path(f"file:{f}", 0, 1.0, 2)

    @pytest.mark.parametrize("spec", ["file", "file:", "file:a,b.csv"])
    def test_file_needs_one_path(self, spec):
        with pytest.raises(ValueError, match="one csv path"):
            build_path(spec, 0, 1.0, 1)

    def test_unknown(self):
        with pytest.raises(ValueError, match="path spec"):
            build_path("ou:1", 0, 1.0, 1)

    @pytest.mark.parametrize("spec", ["brownian:101", "monomial:2,101"])
    def test_segment_count_above_the_step_cap_rejected_before_sampling(self, monkeypatch, spec):
        """Each segment costs the march a step, so a count above `solver.MAX_STEPS` is refused before
        a path of that size is sampled; at the cap it is built."""
        monkeypatch.setattr(solver, "MAX_STEPS", 100)
        with monkeypatch.context() as m:
            m.setattr(paths, "brownian_sample", lambda *a: pytest.fail("sampled"))
            m.setattr(paths, "PiecewiseLinearPath", lambda *a: pytest.fail("built"))
            with pytest.raises(ValueError, match=f"^path = {spec}: the segment count is 101, "
                                                 "more than the step cap of 100$"):
                build_path(spec, 0, 1.0, 1)
        assert build_path(spec.replace("101", "100"), 0, 1.0, 1).n_segments == 100

    @pytest.mark.parametrize("spec", ["monomial:2,0", "monomial:2,-1", "brownian:0"])
    def test_monomial_needs_a_segment(self, spec):
        with pytest.raises(ValueError, match=f"^path = {spec}: the segment count must be at least 1"):
            build_path(spec, 0, 1.0, 1)


class TestSource:
    def test_rk4_stability_limit(self):
        """A linear rate is kept while its 1e-3 RK4 steps are stable, and rejected by name below."""
        lam = RK4_STABILITY_LIMIT / ODE_STEP_PER_UNIT_DRIVER
        z = RK4_STABILITY_LIMIT
        assert abs(1.0 + z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0) == pytest.approx(1.0, abs=1e-15)
        assert build_source("linear:-2785")[1] == -2785.0
        for rate in ("-2785.3", "-3000", "-1e300"):
            with pytest.raises(ValueError, match=f"^source = linear:{rate}: RK4 steps of 0.001 are unstable "
                                                 f"for a rate below {lam:.6g}$"):
                build_source(f"linear:{rate}")


class TestExperiment:
    def test_build(self):
        cfg = load_config(None, {"flux": "burgers;cubic", "n_cells": 32})
        exp = build_experiment(cfg)
        assert exp.flux.n_channels == 2
        assert exp.grid.n_cells == 32
        assert exp.path().n_channels == 2  # the path follows the flux
        assert exp.outputs[0] == 0.0 and exp.outputs[-1] == exp.horizon
        assert exp.datum().shape == (32,)
        assert exp.datum("riemann:0,1").max() == 1.0

    @pytest.mark.parametrize("spec", ["riemann:0.8,3", "riemann:-1.6,0"])
    def test_datum_outside_u_range_rejected(self, spec):
        """The first step would refuse it, after a contraction run had solved its first datum."""
        exp = build_experiment(load_config(None, {"u_lo": -1.5, "u_hi": 1.5, "n_cells": 8}))
        with pytest.raises(ValueError, match=f"^{spec}: the datum's values .* leave the certified "
                                             r"u_range \[-1.5, 1.5\]$"):
            exp.datum(spec)
        assert exp.datum("riemann:1.5,-1.5").max() == 1.5  # the range's edges are in it

    def test_output_count_above_the_step_cap_rejected(self, monkeypatch):
        """Each output interval costs the march a step: more than `solver.MAX_STEPS` of them are
        refused before their times are laid out."""
        monkeypatch.setattr(solver, "MAX_STEPS", 100)
        with pytest.raises(ValueError, match="^n_outputs is 101, more than the step cap of 100$"):
            build_experiment(load_config(None, {"n_outputs": 101, "n_cells": 32}))
        assert build_experiment(load_config(None, {"n_outputs": 100, "n_cells": 32})).outputs.size == 101

    def test_cell_count_above_the_step_cap_rejected(self, monkeypatch):
        """A grid of more than `solver.MAX_STEPS` cells is refused before it is built."""
        monkeypatch.setattr(solver, "MAX_STEPS", 100)
        with monkeypatch.context() as m:
            m.setattr(config, "Grid1D", lambda *a: pytest.fail("built"))
            with pytest.raises(ValueError, match="^n_cells is 101, more than the step cap of 100$"):
                build_experiment(load_config(None, {"n_cells": 101}))
        assert build_experiment(load_config(None, {"n_cells": 100})).grid.n_cells == 100

    @pytest.mark.parametrize("n_outputs", [0, -2])
    def test_needs_one_output_interval(self, n_outputs):
        """n_outputs = 0 left one snapshot, and path-stability took log(0)."""
        with pytest.raises(ValueError, match="n_outputs must be at least 1"):
            build_experiment(load_config(None, {"n_outputs": n_outputs}))

