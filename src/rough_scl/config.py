"""Flat key = value experiment configuration.

The format is a plain text file of `key = value` lines ('#' starts a comment,
blank lines ignored, no sections).  Only documented keys are accepted; typos
fail loudly instead of silently running a default.  The same dictionary drives
the command line (`--config file` plus overrides) and the manifest snapshot.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import paths
from .fluxes import FluxModel, from_spec
from .semilinear import (ODE_STEP_PER_UNIT_DRIVER, RK4_STABILITY_LIMIT, SourceTerm, linear_source,
                         logistic_source, zero_source)
from .smooth import bump_weight
from .solver import Grid1D, SolverConfig, check_step_cap

# key -> (type, default, help)
CONFIG_KEYS: dict[str, tuple] = {
    "experiment": (str, "solve", "experiment name for the manifest"),
    "flux": (str, "burgers", "semicolon-separated channels: burgers | cubic | poly:c0,c1,..."),
    "u_lo": (float, -2.0, "lower edge of the certified state range"),
    "u_hi": (float, 2.0, "upper edge of the certified state range"),
    "datum": (str, "riemann:1,0", "riemann:u_l,u_r[,x_jump] | bump:center,halfwidth,height | sign-step"),
    "datum2": (str, "riemann:0.8,0", "second datum for contraction runs, same grammar"),
    "path": (str, "brownian:8", "brownian:n_segments | tent | identity | monomial:p,n_segments | file:csv"),
    "seed": (int, 0, "path seed (unsigned 64-bit)"),
    "horizon": (float, 1.0, "final time T"),
    "x_lo": (float, -1.0, "left edge of the spatial domain"),
    "x_hi": (float, 1.0, "right edge of the spatial domain"),
    "n_cells": (int, 400, "number of finite-volume cells"),
    "bc": (str, "periodic", "boundary condition: periodic | outflow"),
    "xi_lo": (float, -1.5, "lower edge of the velocity grid"),
    "xi_hi": (float, 1.5, "upper edge of the velocity grid"),
    "n_xi": (int, 200, "number of velocity cells"),
    "cfl": (float, 0.9, "CFL number in (0, 1]"),
    "scheme": (str, "engquist_osher", "flux: engquist_osher | godunov_convex (exact Godunov, any F)"),
    "n_outputs": (int, 10, "number of output intervals (snapshots at linspace)"),
    "epsilons": (str, "0.2,0.1,0.05,0.025", "perturbation sizes for path-stability"),
    "level_lo": (int, 4, "first dyadic refinement level"),
    "level_hi": (int, 10, "last dyadic refinement level"),
    "n_seeds": (int, 5, "number of driver paths (consecutive seeds) for dissipative-check"),
    "n_data": (int, 3, "number of random smooth data for the dissipative check"),
    "n_anchors": (int, 3, "number of anchor times per path for the dissipative check"),
    "source": (str, "logistic", "semilinear source: logistic | linear:lam | zero"),
}


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into a typed dict; unknown keys are an error."""
    out = dict()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"line {ln}: unknown key {key!r}; known keys: {sorted(CONFIG_KEYS)}")
        try:
            out[key] = _cast(key, value)
        except ValueError as exc:
            raise ValueError(f"line {ln}: {exc}") from exc
    return out


def _cast(key: str, value):
    """`value` as the type of `key`; a bool, or a non-integral number for an int key, is refused by name."""
    kind = CONFIG_KEYS[key][0]
    try:
        if kind is not str and isinstance(value, bool):
            raise ValueError(f"{value} is not a number")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{value} is not an integer")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from exc


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Defaults, then the file, then explicit overrides; a float key that is not finite
    is rejected by name here, before any experiment reads it."""
    cfg = {k: spec[1] for k, spec in CONFIG_KEYS.items()}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fp:
            cfg.update(parse_config_text(fp.read()))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown override {key!r}")
        cfg[key] = _cast(key, value)
    for key, value in cfg.items():
        if CONFIG_KEYS[key][0] is float and not math.isfinite(value):
            raise ValueError(f"{key} = {value}: not a finite number")
    return cfg


def config_text(cfg: dict) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


@dataclass(frozen=True)
class Experiment:
    """Concrete objects built from one config dict."""

    cfg: dict
    flux: FluxModel
    grid: Grid1D
    solver: SolverConfig

    @property
    def horizon(self) -> float:
        return float(self.cfg["horizon"])

    @property
    def outputs(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, int(self.cfg["n_outputs"]) + 1)

    def datum(self, spec: str | None = None) -> np.ndarray:
        """The datum on the grid; values outside the certified range, which the first step
        would refuse, are rejected here, before any solve."""
        spec = spec if spec is not None else self.cfg["datum"]
        u0, (lo, hi) = build_datum(spec, self.grid), self.flux.u_range
        if not lo <= u0.min() <= u0.max() <= hi:
            raise ValueError(f"{spec}: the datum's values [{u0.min():g}, {u0.max():g}] leave the certified "
                             f"u_range [{lo}, {hi}]")
        return u0

    def path(self, seed: int | None = None) -> paths.PiecewiseLinearPath:
        used = int(self.cfg["seed"]) if seed is None else int(seed)
        return build_path(self.cfg["path"], used, self.horizon, self.flux.n_channels)


def build_experiment(cfg: dict) -> Experiment:
    n_outputs = int(cfg["n_outputs"])
    if n_outputs < 1:
        raise ValueError(f"n_outputs must be at least 1, got {n_outputs}")
    n_cells = int(cfg["n_cells"])
    check_step_cap("n_outputs", n_outputs)
    check_step_cap("n_cells", n_cells)
    flux = from_spec(cfg["flux"], (float(cfg["u_lo"]), float(cfg["u_hi"])))
    grid = Grid1D(float(cfg["x_lo"]), float(cfg["x_hi"]), n_cells, cfg["bc"])
    solver = SolverConfig(cfl=float(cfg["cfl"]), scheme=cfg["scheme"], record_slabs=False)
    return Experiment(cfg, flux, grid, solver)


def _segment_count(spec: str, arg: str | None, default: int) -> int:
    """A path spec's segment count: `arg`, or `default` when the spec gives none."""
    n_seg = default if arg is None else int(arg)
    if n_seg < 1:
        raise ValueError(f"path = {spec}: the segment count must be at least 1, got {n_seg}")
    check_step_cap(f"path = {spec}: the segment count", n_seg)
    return n_seg


def _spec_args(spec: str) -> tuple[str, list[str]]:
    name, _, rest = spec.partition(":")
    args = [a.strip() for a in rest.split(",")] if rest else []
    return name.strip().lower(), args


def _file_arg(args: list[str]) -> str:
    if len(args) != 1 or not args[0]:
        raise ValueError("file takes one csv path, without commas")
    return args[0]


def _finite_args(spec: str, args: list[str]) -> list[float]:
    values = [float(a) for a in args]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{spec}: every argument must be a finite number")
    return values


def build_datum(spec: str, grid: Grid1D) -> np.ndarray:
    """Cell-center samples of a named initial datum."""
    name, args = _spec_args(spec)
    x = grid.centers
    if name == "riemann":
        if len(args) not in (2, 3):
            raise ValueError("riemann takes u_l,u_r[,x_jump]")
        u_l, u_r, jump = (_finite_args(spec, args) + [0.0])[:3]
        return np.where(x < jump, u_l, u_r)
    if name == "bump":
        if len(args) != 3:
            raise ValueError("bump takes center,halfwidth,height")
        center, halfwidth, height = _finite_args(spec, args)
        return bump_weight(center, halfwidth, height).value(x) + 0.0  # + 0.0: no -0 in the CSVs
    if name == "sign-step":
        return np.where(x < 0.0, 1.0, -1.0)
    if name == "file":
        _, data = paths.read_table(_file_arg(args))
        if data.shape[0] != grid.n_cells:
            raise ValueError(f"table has {data.shape[0]} rows, grid has {grid.n_cells} cells")
        if data.shape[1] < 2:
            raise ValueError(f"table has {data.shape[1]} column, want x,u")
        if not np.all(np.isfinite(data[:, :2])):
            raise ValueError("table has a value in its x or u column that is not finite")
        offset = float(np.max(np.abs(data[:, 0] - x)))
        if not offset <= 1e-9 * grid.dx:
            raise ValueError(f"table x column is off the grid centres by up to {offset:.3g}")
        return np.asarray(data[:, 1], dtype=float)
    raise ValueError(f"unknown datum spec {spec!r}")


def build_path(
    spec: str, seed: int, horizon: float, n_channels: int
) -> paths.PiecewiseLinearPath:
    """Named driver path on [0, horizon]."""
    if not 0.0 < horizon < math.inf:  # a NaN fails too
        raise ValueError(f"horizon = {horizon}: the horizon must be positive and finite")
    name, args = _spec_args(spec)
    if name == "brownian":
        n_seg = _segment_count(spec, args[0] if args else None, 8)
        return paths.brownian_sample(seed, horizon, n_seg, n_channels)
    if name in ("tent", "identity", "monomial") and n_channels != 1:
        raise ValueError(f"{name} path is single-channel")
    if name == "tent":
        return paths.tent_path(0.5 * horizon, 1.0, horizon)
    if name == "identity":
        return paths.identity_path(horizon)
    if name == "monomial":
        p = float(args[0]) if args else 2.0
        if not 0.0 <= p < math.inf:
            raise ValueError(f"path = {spec}: the power must be a finite number >= 0, got {p}")
        n_seg = _segment_count(spec, args[1] if len(args) > 1 else None, 64)
        knots = np.linspace(0.0, horizon, n_seg + 1)
        with np.errstate(over="ignore"):
            values = knots**p
        if not np.isfinite(values[-1]):
            raise ValueError(f"path = {spec}: t**{p} overflows at the horizon {horizon}")
        return paths.PiecewiseLinearPath(knots, values)
    if name == "file":
        header, data = paths.read_table(_file_arg(args))
        if header[0] != "t":
            raise ValueError("malformed path CSV header")
        path = paths.PiecewiseLinearPath(data[:, 0], data[:, 1:])
        if path.n_channels != n_channels:
            raise ValueError(f"path file has {path.n_channels} channels, need {n_channels}")
        return path
    raise ValueError(f"unknown path spec {spec!r}")


def build_source(spec: str) -> tuple[SourceTerm, float | None]:
    """Named semilinear source and its linear rate lam (None for the logistic source)."""
    name, args = _spec_args(spec)
    if name == "logistic":
        return logistic_source(), None
    if name == "linear":
        rate = ",".join(args)
        try:
            lam = float(rate or 0.0)
        except ValueError:
            lam = math.nan
        if not math.isfinite(lam):
            raise ValueError(f"source = {spec}: the linear rate must be a finite number, got {rate!r}")
        if lam * ODE_STEP_PER_UNIT_DRIVER < RK4_STABILITY_LIMIT:
            raise ValueError(f"source = {spec}: RK4 steps of {ODE_STEP_PER_UNIT_DRIVER:g} are unstable for "
                             f"a rate below {RK4_STABILITY_LIMIT / ODE_STEP_PER_UNIT_DRIVER:.6g}")
        return linear_source(lam), lam
    if name == "zero":
        return zero_source(), 0.0
    raise ValueError(f"unknown source spec {spec!r}")
