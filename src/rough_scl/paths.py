"""Piecewise linear multi-channel time signals, and the package's one CSV table format.

A driver signal W : [0, T] -> R^M is stored by its knots and knot values and
interpolated linearly in between.  Everything downstream (solver segments,
characteristics, kernel transports) only ever sees these paths, so exactness
at knots and reproducible sampling matter more than generality (`reduced_path`
drops the oscillations that cancel in one convex channel's solution at given times).

Every CSV the package writes or reads is one table format: a header line of
column names, then rows of doubles at 17 significant digits (`write_table`,
`read_table`).  A path is the table t,W1,...,WM and a datum the table x,u.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class PathSeed:
    """Seed of a PCG64 bit generator."""

    seed: int

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    def rng(self, *stream: int) -> np.random.Generator:
        """Generator for this seed; extra integers derive independent substreams."""
        ss = np.random.SeedSequence([int(self.seed), *map(int, stream)])
        return np.random.Generator(np.random.PCG64(ss))


def _as_seed(seed: PathSeed | int) -> PathSeed:
    return seed if isinstance(seed, PathSeed) else PathSeed(int(seed))


class PiecewiseLinearPath:
    """Continuous piecewise linear path with strictly increasing knots, t0 = 0."""

    def __init__(self, knots, values) -> None:
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if knots.ndim != 1 or knots.size < 2:
            raise ValueError("need at least two knots")
        if knots[0] != 0.0:
            raise ValueError(f"first knot must be t=0, got {knots[0]}")
        if not np.all(np.diff(knots) > 0):
            raise ValueError("knots must be strictly increasing")
        if values.shape[0] != knots.size:
            raise ValueError(f"values shape {values.shape} does not match {knots.size} knots")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("knots and values must be finite")
        self.knots = knots
        self.values = values

    @property
    def horizon(self) -> float:
        return float(self.knots[-1])

    @property
    def n_segments(self) -> int:
        return self.knots.size - 1

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def eval(self, t):
        """Value at time t (scalar -> (M,), array -> (len(t), M)). Exact at knots."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0) or np.any(t_arr > self.horizon):
            raise ValueError(f"time {t} outside [0, {self.horizon}]")
        out = np.empty(t_arr.shape + (self.n_channels,))
        for i in range(self.n_channels):
            out[..., i] = np.interp(t_arr, self.knots, self.values[:, i])
        return out

    def slopes(self) -> np.ndarray:
        """All segment slopes, shape (K, M)."""
        return np.diff(self.values, axis=0) / np.diff(self.knots)[:, None]

    def increment(self, t0: float, t1: float) -> np.ndarray:
        """W(t1) - W(t0), shape (M,)."""
        return self.eval(t1) - self.eval(t0)

    def restricted_knots(self, t: float) -> np.ndarray:
        k = self.knots[self.knots < t]
        return np.append(k, t)


def sup_distance(p: PiecewiseLinearPath, q: PiecewiseLinearPath) -> float:
    """sup over the common horizon and channels of |p - q|.

    The difference of two piecewise linear paths is piecewise linear, so the
    sup is attained at a knot of the merged partition; no sampling error.
    """
    if p.n_channels != q.n_channels:
        raise ValueError("channel counts differ")
    t = min(p.horizon, q.horizon)
    merged = np.union1d(p.restricted_knots(t), q.restricted_knots(t))
    return float(np.max(np.abs(p.eval(merged) - q.eval(merged))))


def brownian_sample(
    seed: PathSeed | int, horizon: float, n_segments: int, n_channels: int = 1
) -> PiecewiseLinearPath:
    """Brownian motion sampled on uniform knots: independent N(0, dt) increments."""
    if horizon <= 0 or n_segments < 1 or n_channels < 1:
        raise ValueError("horizon, n_segments and n_channels must be positive")
    ps = _as_seed(seed)
    dt = horizon / n_segments
    incr = ps.rng().normal(0.0, np.sqrt(dt), size=(n_segments, n_channels))
    values = np.vstack([np.zeros((1, n_channels)), np.cumsum(incr, axis=0)])
    knots = np.linspace(0.0, horizon, n_segments + 1)
    knots[0] = 0.0
    return PiecewiseLinearPath(knots, values)


def dyadic_refine(path: PiecewiseLinearPath, seed: PathSeed | int, level: int) -> PiecewiseLinearPath:
    """Insert midpoints by the Brownian bridge rule.

    New value = endpoint average + N(0, dt/4) per channel, dt the current
    uniform spacing.  Old knots and their values are preserved exactly, and
    the output is deterministic given (seed, level).
    """
    spacings = np.diff(path.knots)
    dt = spacings[0]
    if not np.allclose(spacings, dt, rtol=1e-12, atol=0.0):
        raise ValueError("dyadic refinement requires uniform knots")
    if level < 1 or path.n_segments != 2 ** (level - 1):
        raise ValueError(
            f"level {level} expects 2^{level - 1} segments, path has {path.n_segments}"
        )
    ps = _as_seed(seed)
    rng = ps.rng(int(level))
    mid_t = 0.5 * (path.knots[:-1] + path.knots[1:])
    mid_v = 0.5 * (path.values[:-1] + path.values[1:])
    mid_v = mid_v + rng.normal(0.0, np.sqrt(dt / 4.0), size=mid_v.shape)
    knots = np.empty(2 * path.n_segments + 1)
    values = np.empty((knots.size, path.n_channels))
    knots[0::2] = path.knots
    knots[1::2] = mid_t
    values[0::2] = path.values
    values[1::2] = mid_v
    return PiecewiseLinearPath(knots, values)


def reduced_path(path: PiecewiseLinearPath, outputs) -> PiecewiseLinearPath:
    """A one-channel `path` up to its last output, on its irreducible legs between the outputs.

    Per output interval the knots where the path does not turn go, and a rainflow stack drops each
    interior leg no longer than both neighbours: for one channel with a convex or concave flux on the
    states, a leg of driver length s applies the entropy semigroup S(s), and S(b) S(-a) S(c) = S(b + c - a)
    for a <= min(b, c).  Kept knots, at every output and extremum, keep their times and values."""
    if path.n_channels != 1:
        raise ValueError(f"reduction is single-channel only, the path has {path.n_channels} channels")
    ends = np.union1d(0.0, np.minimum(outputs, path.horizon))
    kept = [(0.0, path.values[0, 0])]
    for a, b, w_b in zip(ends, ends[1:], path.eval(ends[1:])[:, 0].tolist()):
        inside = slice(np.searchsorted(path.knots, a, "right"), np.searchsorted(path.knots, b))  # a < t < b
        stack = [kept[-1]]
        for t, w in [*zip(path.knots[inside].tolist(), path.values[inside, 0].tolist()), (b, w_b)]:
            if len(stack) > 1 and (w - stack[-1][1]) * (stack[-1][1] - stack[-2][1]) >= 0.0:
                stack.pop()  # the path runs on through it
            stack.append((t, w))
            while len(stack) > 3 and abs(stack[-2][1] - stack[-3][1]) <= min(
                    abs(stack[-3][1] - stack[-4][1]), abs(stack[-1][1] - stack[-2][1])):
                del stack[-3:-1]  # the leg between cancels
        kept += stack[1:]
    return PiecewiseLinearPath(*zip(*kept))


def write_table(run_dir: Path, name: str, header: str, columns: list) -> None:
    """`run_dir/name`: the `header` line, then one row per entry of the equal-length
    `columns`, at full double precision (17 significant digits), so it reads back bit for bit."""
    with open(Path(run_dir) / name, "w", encoding="utf-8") as fp:
        fp.write(header + "\n")
        for row in np.column_stack([np.asarray(c, dtype=float) for c in columns]):
            fp.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_table(file: str | Path) -> tuple[list[str], np.ndarray]:
    """Inverse of `write_table`: the header's column names and the rows, one per line (2-D).
    ValueError naming the file if no row follows the header (blank and `#` lines are no rows)."""
    with open(file, "r", encoding="utf-8") as fp:
        header = fp.readline().strip().split(",")
        lines = fp.readlines()
    if not any(line.split("#", 1)[0].strip() for line in lines):
        raise ValueError(f"{file}: the table has no data rows after its header")
    return header, np.loadtxt(lines, delimiter=",", ndmin=2)


def tent_path(peak_time: float = 1.0, peak_value: float = 1.0, horizon: float = 2.0) -> PiecewiseLinearPath:
    """Single-channel tent: 0 up to peak_value at peak_time, back to 0 at horizon."""
    return PiecewiseLinearPath([0.0, peak_time, horizon], [0.0, peak_value, 0.0])


def identity_path(horizon: float) -> PiecewiseLinearPath:
    """W(t) = t as a single segment."""
    return PiecewiseLinearPath([0.0, horizon], [0.0, horizon])
