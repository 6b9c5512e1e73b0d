"""Run configuration and initial-data recipes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .model import ModelParams, ZRState
from .spectral import (ComplexField, Grid, check_count, check_types, low_mode_coefficients,
                       to_frequency)

RECIPES = ("gaussian", "plane-wave", "random-band-limited", "zero")


@dataclass
class SimConfig:
    """Everything a simulation run needs, validated on construction.

    Every field except `params` is a config-file key, and so is every
    `ModelParams` field.  Each field has its annotated type (`| None`: it may
    be None), checked by `spectral.check_types` on construction, from a
    config file or from Python alike."""

    dim: int = 2
    n: int = 64
    length: float = 32.0 * np.pi
    dt: float = 1e-3
    t_end: float = 1.0
    params: ModelParams = field(default_factory=ModelParams)
    recipe: str = "gaussian"
    amplitude: float = 1.0
    width: float = 1.0
    mode: tuple = (1, 0)
    normalize_h1: float | None = None
    seed: int | None = None
    diagnostics_stride: int = 1
    dealias: bool = True
    blowup_factor: float = 1e6

    def __post_init__(self):
        if self.seed is not None:
            if isinstance(self.seed, (int, np.integer)) and self.seed < 0:
                raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
            check_count(self.seed, "seed")
        check_count(self.diagnostics_stride, "diagnostics_stride", 1)
        check_types(self)
        if self.normalize_h1 is not None and self.normalize_h1 <= 0:
            raise ConfigurationError(f"normalize_h1 must be positive, got {self.normalize_h1}")
        if self.width <= 0:
            raise ConfigurationError(f"width must be positive, got {self.width}")
        if self.blowup_factor <= 0:
            raise ConfigurationError(f"blowup_factor must be positive, got {self.blowup_factor}")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ConfigurationError(f"t_end must be >= 0, got {self.t_end}")
        n_steps = round(self.t_end / self.dt)
        if abs(n_steps * self.dt - self.t_end) > 1e-9 * max(self.t_end, self.dt):
            raise ConfigurationError(
                f"t_end {self.t_end:g} is not a whole number of steps of dt {self.dt:g}"
            )
        if self.recipe not in RECIPES:
            raise ConfigurationError(f"unknown initial-data recipe {self.recipe!r}")
        if self.recipe == "random-band-limited" and self.seed is None:
            raise ConfigurationError("random recipe requires a seed")
        if not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                   for k in self.mode):
            raise ConfigurationError(f"mode components must be integers, got {list(self.mode)}")
        # Grid construction validates dim / n / length.
        self.grid = Grid(self.dim, self.n, self.length)


def h1_norm(f: ComplexField) -> float:
    """Discrete H1 norm sqrt(int |f|^2 + |grad f|^2 dx)."""
    grid = f.grid
    fh = to_frequency(f).values
    w = 1.0 + grid.xi_squared
    return float(np.sqrt(np.sum(w * np.abs(fh) ** 2) * grid.cell_volume))


def make_initial_state(config: SimConfig) -> ZRState:
    """Build the initial (psi, rho, phi) triple from the named recipe."""
    grid = config.grid
    coords = grid.coordinates() if config.recipe in ("gaussian", "plane-wave") else None

    if config.recipe == "zero":
        psi = np.zeros(grid.shape, dtype=np.complex128)
    elif config.recipe == "gaussian":
        r2 = sum(x**2 for x in coords)
        psi = config.amplitude * np.exp(-r2 / (2.0 * config.width**2)) + 0j
    elif config.recipe == "plane-wave":
        mode = tuple(config.mode)
        if len(mode) != grid.dim:
            raise ConfigurationError(f"mode must have {grid.dim} components")
        phase = sum(
            (2.0 * np.pi * k / grid.length) * x for k, x in zip(mode, coords)
        )
        psi = config.amplitude * np.exp(1j * phase)
    else:  # random-band-limited; __post_init__ admits no other recipe
        # seeded coefficients on the modes |k|_inf <= 4, scaled to peak amplitude
        coeffs = low_mode_coefficients(grid, np.random.default_rng(config.seed), 4)
        psi = np.fft.ifftn(coeffs, norm="ortho")
        peak = np.max(np.abs(psi))
        if peak > 0:
            psi = psi * (config.amplitude / peak)

    psi_f = ComplexField(grid, psi, "physical")
    if config.normalize_h1 is not None:
        norm = h1_norm(psi_f)
        if norm > 0:
            psi_f = ComplexField(grid, psi * (config.normalize_h1 / norm), "physical")

    return ZRState(psi_f, *(ComplexField(grid, np.zeros(grid.shape, dtype=np.complex128))
                            for _ in range(2)))

