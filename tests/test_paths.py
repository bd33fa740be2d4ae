"""Path container, sampling, refinement, and persistence."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rough_scl.paths import (
    PathSeed,
    PiecewiseLinearPath,
    brownian_sample,
    dyadic_refine,
    identity_path,
    read_table,
    sup_distance,
    tent_path,
    write_table,
)


class TestPathSeed:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PathSeed(-1)
        with pytest.raises(ValueError):
            PathSeed(2**64)

    def test_streams_are_independent_and_reproducible(self):
        ps = PathSeed(42)
        a = ps.rng(1).normal(size=4)
        b = ps.rng(2).normal(size=4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, ps.rng(1).normal(size=4))


class TestPiecewiseLinearPath:
    def test_validation(self):
        with pytest.raises(ValueError, match="first knot"):
            PiecewiseLinearPath([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            PiecewiseLinearPath([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            PiecewiseLinearPath([0.0, 1.0], [0.0, np.inf])

    def test_eval_exact_at_knots_and_linear_between(self):
        p = PiecewiseLinearPath([0.0, 1.0, 3.0], [[0.0], [2.0], [-2.0]])
        assert p.eval(1.0)[0] == 2.0
        assert p.eval(2.0)[0] == pytest.approx(0.0)
        assert p.eval(0.5)[0] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            p.eval(3.5)

    def test_slopes_and_increment(self):
        p = PiecewiseLinearPath([0.0, 1.0, 3.0], [[0.0], [2.0], [-2.0]])
        assert p.slopes()[:, 0].tolist() == [2.0, -2.0]
        assert p.increment(0.5, 2.0)[0] == pytest.approx(-1.0)

    def test_multichannel_shape(self):
        p = brownian_sample(0, 1.0, 8, 3)
        assert p.n_channels == 3
        assert p.eval(0.5).shape == (3,)
        assert p.eval(np.array([0.1, 0.2])).shape == (2, 3)


class TestBrownianSample:
    def test_variance_matches_time(self):
        # E[W(T)^2] = T, Monte Carlo over many seeds
        horizon = 0.7
        finals = np.array(
            [brownian_sample(s, horizon, 4, 1).values[-1, 0] for s in range(4000)]
        )
        assert np.mean(finals**2) == pytest.approx(horizon, rel=0.08)
        assert abs(np.mean(finals)) < 0.05

    def test_deterministic_in_seed(self):
        a = brownian_sample(7, 1.0, 16, 2)
        b = brownian_sample(7, 1.0, 16, 2)
        assert np.array_equal(a.values, b.values)
        c = brownian_sample(8, 1.0, 16, 2)
        assert not np.allclose(a.values, c.values)


class TestDyadicRefine:
    def test_keeps_parent_knots(self):
        base = brownian_sample(3, 1.0, 8, 1)
        fine = dyadic_refine(base, 3, 4)
        assert fine.n_segments == 16
        assert np.allclose(fine.eval(base.knots), base.eval(base.knots))

    def test_refinement_is_deterministic(self):
        base = brownian_sample(3, 1.0, 8, 2)
        f1 = dyadic_refine(base, 3, 4)
        f2 = dyadic_refine(base, 3, 4)
        assert np.array_equal(f1.values, f2.values)

    def test_bridge_noise_scale(self):
        # midpoint deviation from the chord has std sqrt(dt/4)
        horizon, level = 1.0, 6
        devs = []
        for s in range(400):
            base = brownian_sample(s, horizon, 2 ** (level - 1), 1)
            fine = dyadic_refine(base, s, level)
            mid_t = 0.5 * (base.knots[:-1] + base.knots[1:])
            devs.append(fine.eval(mid_t)[:, 0] - base.eval(mid_t)[:, 0])
        dt = horizon / 2 ** (level - 1)
        assert np.std(np.concatenate(devs)) == pytest.approx(np.sqrt(dt / 4.0), rel=0.05)

    def test_zero_noise_only_for_matching_construction(self):
        lin = identity_path(1.0)
        with pytest.raises(ValueError):
            dyadic_refine(lin, 0, 0)  # level must exceed current resolution


class TestSupDistance:
    def test_exact_on_knot_disagreement(self):
        p = PiecewiseLinearPath([0.0, 1.0], [0.0, 1.0])
        q = PiecewiseLinearPath([0.0, 0.5, 1.0], [0.0, 1.0, 1.0])
        # difference peaks at t=0.5: |1.0 - 0.5| = 0.5
        assert sup_distance(p, q) == pytest.approx(0.5)

    def test_identity(self):
        p = brownian_sample(0, 1.0, 8, 2)
        assert sup_distance(p, p) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_metric_axioms(self, sa, sb, sc):
        pa = brownian_sample(sa, 1.0, 8, 1)
        pb = brownian_sample(sb, 1.0, 8, 1)
        pc = brownian_sample(sc, 1.0, 8, 1)
        dab = sup_distance(pa, pb)
        assert dab >= 0.0
        assert dab == sup_distance(pb, pa)
        assert dab <= sup_distance(pa, pc) + sup_distance(pc, pb) + 1e-12


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        p = brownian_sample(11, 1.0, 16, 3)
        write_table(tmp_path, "path.csv", "t,W1,W2,W3", [p.knots, *p.values.T])
        header, rows = read_table(tmp_path / "path.csv")
        assert header == ["t", "W1", "W2", "W3"]
        assert rows.tobytes() == np.column_stack([p.knots, p.values]).tobytes()


def test_tent_path_shape():
    p = tent_path(1.0, 1.0, 2.0)
    assert p.eval(1.0)[0] == 1.0
    assert p.eval(2.0)[0] == 0.0
    assert p.eval(0.25)[0] == pytest.approx(0.25)
