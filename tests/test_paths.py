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
    reduced_path,
    sup_distance,
    tent_path,
    write_table,
)

from reference import assert_bitwise


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

    @pytest.mark.parametrize("body", ["", "\n  \n", "# no rows\n"])
    def test_no_data_rows_rejected_by_file(self, tmp_path, body):
        """A header with no rows is a ValueError naming the file, with no loadtxt warning."""
        (tmp_path / "empty.csv").write_text("t,W1\n" + body)
        with pytest.raises(ValueError, match="empty.csv: the table has no data rows after its header"):
            read_table(tmp_path / "empty.csv")


def test_tent_path_shape():
    p = tent_path(1.0, 1.0, 2.0)
    assert p.eval(1.0)[0] == 1.0
    assert p.eval(2.0)[0] == 0.0
    assert p.eval(0.25)[0] == pytest.approx(0.25)


def _legs(path, ends):
    """Per output interval, the leg lengths |dW| of `path` between its knots."""
    out = []
    for a, b in zip(ends, ends[1:]):
        inside = (path.knots >= a) & (path.knots <= b)
        out.append(np.abs(np.diff(path.values[inside, 0])))
    return out


class TestReducedPath:
    OUTPUTS = np.linspace(0.0, 1.0, 11)

    @staticmethod
    def ladder(seed: int, level: int = 10):
        """Criterion 9's refine ladder: 16 Brownian segments, refined dyadically up to `level`."""
        path = brownian_sample(seed, 1.0, 16)
        for lv in range(5, level + 1):
            path = dyadic_refine(path, seed, lv)
        return path

    def test_three_legs_cancel_to_one(self):
        """0 -> 0.6 -> 0.3 -> 0.8: the leg of 0.3 is no longer than either neighbour."""
        got = reduced_path(PiecewiseLinearPath([0.0, 0.4, 0.6, 1.0], [0.0, 0.6, 0.3, 0.8]), [1.0])
        assert got.knots.tolist() == [0.0, 1.0] and got.values[:, 0].tolist() == [0.0, 0.8]

    def test_irreducible_path_keeps_its_legs(self):
        """0 -> 0.3 -> -0.3 -> 0.2: legs 0.3, 0.6, 0.5 rise, then fall."""
        path = PiecewiseLinearPath([0.0, 0.4, 0.6, 1.0], [0.0, 0.3, -0.3, 0.2])
        got = reduced_path(path, [0.5, 1.0])
        assert got.knots.tolist() == [0.0, 0.4, 0.5, 0.6, 1.0]  # the output 0.5 is a knot
        assert_bitwise(got.values, path.eval(got.knots))
        got = reduced_path(path, [1.0])
        assert_bitwise(got.knots, path.knots)
        assert_bitwise(got.values, path.values)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_at_outputs_and_at_kept_knots(self, seed):
        """Every output is a knot with the path's value there, bit for bit, and every other kept
        knot is one of the path's, with its value; the path ends at the last output."""
        path = self.ladder(seed)
        outputs = np.sort(PathSeed(seed).rng(9).uniform(0.0, 0.9, 7))
        got = reduced_path(path, outputs)
        assert got.horizon == outputs[-1]
        assert_bitwise(got.eval(outputs), path.eval(outputs))
        others = ~np.isin(got.knots, np.append(outputs, 0.0))
        assert np.all(np.isin(got.knots[others], path.knots))
        assert_bitwise(got.values[others], path.eval(got.knots[others]))

    @pytest.mark.parametrize("seed", range(4))
    def test_legs_rise_then_fall_in_each_interval(self, seed):
        """No interior leg is as short as both of its neighbours, and each kept knot inside an
        interval turns the path."""
        got = reduced_path(self.ladder(seed), self.OUTPUTS)
        for legs in _legs(got, self.OUTPUTS):
            peak = int(np.argmax(legs))
            assert np.all(np.diff(legs[: peak + 1]) > 0.0) and np.all(np.diff(legs[peak:]) <= 0.0)
            assert np.all(legs[1:-1] > 0.0)
        steps = np.diff(got.values[:, 0])
        inside = ~np.isin(got.knots[1:-1], self.OUTPUTS)
        assert np.all((steps[:-1] * steps[1:])[inside] < 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_reducing_twice_changes_nothing(self, seed):
        once = reduced_path(self.ladder(seed), self.OUTPUTS)
        twice = reduced_path(once, self.OUTPUTS)
        assert_bitwise(twice.knots, once.knots)
        assert_bitwise(twice.values, once.values)

    def test_fewer_legs_and_less_variation(self):
        """Criterion 9's level-10 path at seed 16: 1024 segments to 59, total variation down."""
        path = self.ladder(16)
        got = reduced_path(path, self.OUTPUTS)
        assert (path.n_segments, got.n_segments) == (1024, 59)
        assert np.abs(np.diff(got.values[:, 0])).sum() < 0.5 * np.abs(np.diff(path.values[:, 0])).sum()

    def test_monotone_path_keeps_one_leg_per_interval(self):
        """Flat stretches too: a nondecreasing path runs straight between its outputs."""
        rises = np.abs(PathSeed(5).rng().normal(size=64)) * (np.arange(64) % 5 != 0)
        path = PiecewiseLinearPath(np.linspace(0.0, 1.0, 65), np.append(0.0, np.cumsum(rises)))
        got = reduced_path(path, self.OUTPUTS)
        assert_bitwise(got.knots, self.OUTPUTS)
        assert_bitwise(got.values, path.eval(self.OUTPUTS))

    def test_rejects_two_channels(self):
        with pytest.raises(ValueError, match="single-channel only"):
            reduced_path(brownian_sample(0, 1.0, 8, 2), [1.0])
