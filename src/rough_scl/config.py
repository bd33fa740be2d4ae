"""Flat key = value experiment configuration.

The format is a plain text file of `key = value` lines ('#' starts a comment,
blank lines ignored, no sections).  Only documented keys are accepted; typos
fail loudly instead of silently running a default.  The same dictionary drives
the command line (`--config file` plus overrides) and the manifest snapshot.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import paths
from .fluxes import FluxModel, from_spec
from .smooth import bump_datum
from .solver import Grid1D, SolverConfig

# key -> (type, default, help)
CONFIG_KEYS: dict[str, tuple] = {
    "experiment": (str, "solve", "experiment name for the manifest"),
    "flux": (str, "burgers", "semicolon-separated channels: burgers | cubic | poly:c0,c1,..."),
    "u_lo": (float, -2.0, "lower edge of the certified state range"),
    "u_hi": (float, 2.0, "upper edge of the certified state range"),
    "datum": (str, "riemann:1,0", "riemann:u_l,u_r[,x_jump] | bump:center,halfwidth,height | sign-step"),
    "datum2": (str, "", "second datum for contraction runs, same grammar"),
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
        caster = CONFIG_KEYS[key][0]
        try:
            out[key] = caster(value)
        except ValueError as exc:
            raise ValueError(f"line {ln}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Defaults, then the file, then explicit overrides."""
    cfg = {k: spec[1] for k, spec in CONFIG_KEYS.items()}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fp:
            cfg.update(parse_config_text(fp.read()))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown override {key!r}")
        cfg[key] = CONFIG_KEYS[key][0](value)
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
        return build_datum(spec if spec is not None else self.cfg["datum"], self.grid)

    def path(self, seed: int | None = None) -> paths.PiecewiseLinearPath:
        used = int(self.cfg["seed"]) if seed is None else int(seed)
        return build_path(self.cfg["path"], used, self.horizon, self.flux.n_channels)


def build_experiment(cfg: dict) -> Experiment:
    if int(cfg["n_outputs"]) < 1:
        raise ValueError(f"n_outputs must be at least 1, got {cfg['n_outputs']}")
    flux = from_spec(cfg["flux"], (float(cfg["u_lo"]), float(cfg["u_hi"])))
    grid = Grid1D(float(cfg["x_lo"]), float(cfg["x_hi"]), int(cfg["n_cells"]), cfg["bc"])
    solver = SolverConfig(cfl=float(cfg["cfl"]), scheme=cfg["scheme"], record_slabs=False)
    return Experiment(cfg, flux, grid, solver)


def _spec_args(spec: str) -> tuple[str, list[str]]:
    name, _, rest = spec.partition(":")
    args = [a.strip() for a in rest.split(",")] if rest else []
    return name.strip().lower(), args


def _file_arg(args: list[str]) -> str:
    if len(args) != 1 or not args[0]:
        raise ValueError("file takes one csv path, without commas")
    return args[0]


def build_datum(spec: str, grid: Grid1D) -> np.ndarray:
    """Cell-center samples of a named initial datum."""
    name, args = _spec_args(spec)
    x = grid.centers
    if name == "riemann":
        if len(args) not in (2, 3):
            raise ValueError("riemann takes u_l,u_r[,x_jump]")
        u_l, u_r = float(args[0]), float(args[1])
        jump = float(args[2]) if len(args) == 3 else 0.0
        return np.where(x < jump, u_l, u_r)
    if name == "bump":
        if len(args) != 3:
            raise ValueError("bump takes center,halfwidth,height")
        center, halfwidth, height = map(float, args)
        return bump_datum(center, halfwidth, height).value(x) + 0.0  # + 0.0: no -0 in the CSVs
    if name == "sign-step":
        return np.where(x < 0.0, 1.0, -1.0)
    if name == "file":
        data = np.loadtxt(_file_arg(args), delimiter=",", skiprows=1, ndmin=2)
        if data.shape[0] != grid.n_cells:
            raise ValueError(f"table has {data.shape[0]} rows, grid has {grid.n_cells} cells")
        if data.shape[1] < 2:
            raise ValueError(f"table has {data.shape[1]} column, want x,u")
        offset = float(np.max(np.abs(data[:, 0] - x)))
        if not offset <= 1e-9 * grid.dx:
            raise ValueError(f"table x column is off the grid centres by up to {offset:.3g}")
        return np.asarray(data[:, 1], dtype=float)
    raise ValueError(f"unknown datum spec {spec!r}")


def build_path(
    spec: str, seed: int, horizon: float, n_channels: int
) -> paths.PiecewiseLinearPath:
    """Named driver path on [0, horizon]."""
    name, args = _spec_args(spec)
    if name == "brownian":
        n_seg = int(args[0]) if args else 8
        return paths.brownian_sample(seed, horizon, n_seg, n_channels)
    if name == "tent":
        if n_channels != 1:
            raise ValueError("tent path is single-channel")
        return paths.tent_path(0.5 * horizon, 1.0, horizon)
    if name == "identity":
        if n_channels != 1:
            raise ValueError("identity path is single-channel")
        return paths.identity_path(horizon)
    if name == "monomial":
        if n_channels != 1:
            raise ValueError("monomial path is single-channel")
        p = float(args[0]) if args else 2.0
        n_seg = int(args[1]) if len(args) > 1 else 64
        knots = np.linspace(0.0, horizon, n_seg + 1)
        return paths.PiecewiseLinearPath(knots, knots**p)
    if name == "file":
        with open(_file_arg(args), "r", encoding="utf-8") as fp:
            path = paths.read_csv(fp)
        if path.n_channels != n_channels:
            raise ValueError(f"path file has {path.n_channels} channels, need {n_channels}")
        return path
    raise ValueError(f"unknown path spec {spec!r}")
