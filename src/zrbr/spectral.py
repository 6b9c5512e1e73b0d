"""Periodic grids, complex fields and Fourier-multiplier calculus.

Everything here lives on a uniform periodic box [-L/2, L/2)^d with a
power-of-two number of points per axis.  Transforms are unitary (1/sqrt(N)
per axis in both directions) so the discrete Plancherel identity is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ContractViolationError

PHYSICAL = "physical"
FREQUENCY = "frequency"

def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L/2, L/2)^d with its frequency lattice."""

    dim: int
    n: int
    length: float = 2.0 * np.pi * 16.0

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ConfigurationError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 4 or not _is_power_of_two(self.n):
            raise ConfigurationError(
                f"points per axis must be a power of two >= 4, got {self.n}"
            )
        if not (self.length > 0):
            raise ConfigurationError(f"box length must be positive, got {self.length}")

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx**self.dim

    @cached_property
    def axis_coordinates(self) -> np.ndarray:
        """Physical coordinates along one axis."""
        return -self.length / 2.0 + self.dx * np.arange(self.n)

    def coordinates(self) -> list[np.ndarray]:
        """Meshgrid of physical coordinates, one array per axis."""
        axes = [self.axis_coordinates] * self.dim
        return list(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def axis_frequencies(self) -> np.ndarray:
        """Frequency lattice xi_k = 2 pi k / L along one axis, FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=1.0 / self.n) / self.length

    def frequencies(self) -> list[np.ndarray]:
        axes = [self.axis_frequencies] * self.dim
        return list(np.meshgrid(*axes, indexing="ij"))

    @cached_property
    def xi_squared(self) -> np.ndarray:
        xs = self.frequencies()
        return sum(x**2 for x in xs)

    @cached_property
    def xi_modulus(self) -> np.ndarray:
        return np.sqrt(self.xi_squared)


@dataclass
class ComplexField:
    """A complex scalar field on a Grid, tagged by its representation."""

    grid: Grid
    values: np.ndarray
    space: str = PHYSICAL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ContractViolationError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if self.space not in (PHYSICAL, FREQUENCY):
            raise ContractViolationError(f"unknown representation tag {self.space!r}")

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy(), self.space)

    def is_real_valued(self, rtol: float = 1e-12) -> bool:
        """Check the real-valuedness invariant in physical space."""
        f = self if self.space == PHYSICAL else transform(self, "inverse")
        m = np.max(np.abs(f.values))
        if m == 0.0:
            return True
        return np.max(np.abs(f.values.imag)) <= rtol * m

    def l2_norm(self) -> float:
        """Discrete L2 norm, sqrt(sum |f|^2 * dx^d); same in either space."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))


def zero_field(grid: Grid, space: str = PHYSICAL) -> ComplexField:
    return ComplexField(grid, np.zeros(grid.shape, dtype=np.complex128), space)


def transform(f: ComplexField, direction: str) -> ComplexField:
    """Unitary DFT between physical and frequency representation."""
    if direction == "forward":
        if f.space != PHYSICAL:
            raise ContractViolationError("forward transform requires physical-space input")
        return ComplexField(f.grid, np.fft.fftn(f.values, norm="ortho"), FREQUENCY)
    if direction == "inverse":
        if f.space != FREQUENCY:
            raise ContractViolationError("inverse transform requires frequency-space input")
        return ComplexField(f.grid, np.fft.ifftn(f.values, norm="ortho"), PHYSICAL)
    raise ConfigurationError(f"unknown transform direction {direction!r}")


def to_frequency(f: ComplexField) -> ComplexField:
    return f if f.space == FREQUENCY else transform(f, "forward")


def to_physical(f: ComplexField) -> ComplexField:
    return f if f.space == PHYSICAL else transform(f, "inverse")


@dataclass(frozen=True)
class Multiplier:
    """A Fourier multiplier: pointwise symbol over the frequency lattice."""

    grid: Grid
    symbol: np.ndarray
    name: str = "custom"

    def __call__(self, f: ComplexField) -> ComplexField:
        return apply_multiplier(self, f)


def _nyquist_mask(grid: Grid, axis: int) -> np.ndarray:
    """Boolean mask selecting the Nyquist plane along the given axis."""
    idx = np.zeros(grid.n, dtype=bool)
    idx[grid.n // 2] = True
    shape = [1] * grid.dim
    shape[axis] = grid.n
    return np.broadcast_to(idx.reshape(shape), grid.shape)


def make_multiplier(grid: Grid, name: str, **params) -> Multiplier:
    """Build one of the named symbols used throughout the package.

    Zero-mode convention: omega_inv and omega_inv_dx are 0 at xi = 0.
    The dx symbol is zeroed on the axis-0 Nyquist plane so derivatives of
    real fields stay real.
    """
    xi2 = grid.xi_squared
    absxi = grid.xi_modulus

    if name == "laplacian":
        sym = -xi2
    elif name == "omega":
        sym = absxi
    elif name == "omega_inv":
        sym = np.zeros(grid.shape)
        nz = absxi > 0
        sym[nz] = 1.0 / absxi[nz]
    elif name == "dx":
        xi1 = grid.frequencies()[0].astype(np.complex128)
        xi1[_nyquist_mask(grid, 0)] = 0.0
        sym = 1j * xi1
    elif name == "omega_inv_dx":
        xi1 = grid.frequencies()[0]
        sym = np.zeros(grid.shape)
        nz = absxi > 0
        sym[nz] = np.abs(xi1[nz]) / absxi[nz]
    elif name == "bracket_pow":
        s = params.get("s")
        if s is None:
            raise ConfigurationError("bracket_pow requires parameter s")
        sym = (1.0 + xi2) ** (s / 2.0)
    elif name == "schrodinger_group":
        t = _finite_time(params)
        sym = np.exp(-1j * t * xi2)
    elif name == "wave_group":
        t = _finite_time(params)
        sign = params.get("sign", "+")
        if sign not in ("+", "-", 1, -1):
            raise ConfigurationError(f"wave_group sign must be +/-, got {sign!r}")
        s = 1.0 if sign in ("+", 1) else -1.0
        # V_pm(t) = exp(∓ i omega t): the '+' group decays the phase.
        sym = np.exp(-1j * s * t * absxi)
    elif name == "wave_source_propagator":
        t = _finite_time(params)
        sym = np.full(grid.shape, t, dtype=np.float64)
        nz = absxi > 0
        sym[nz] = np.sin(absxi[nz] * t) / absxi[nz]
    else:
        raise ConfigurationError(f"unknown multiplier name {name!r}")

    return Multiplier(grid, np.asarray(sym, dtype=np.complex128), name)


def _finite_time(params) -> float:
    t = params.get("t")
    if t is None or not np.isfinite(t):
        raise ConfigurationError("group symbols require a finite time parameter t")
    return float(t)


def frozen_symbol(a) -> np.ndarray:
    """A symbol to cache and share: complex128, because numpy multiplies two
    complex arrays faster than a real one by a complex one, and read-only,
    because every caller shares it."""
    a = np.asarray(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


def apply_multiplier(m: Multiplier, f: ComplexField) -> ComplexField:
    if f.grid != m.grid:
        raise ContractViolationError("multiplier and field live on different grids")
    if f.space != FREQUENCY:
        raise ContractViolationError("apply_multiplier requires a frequency-space field")
    return ComplexField(f.grid, m.symbol * f.values, FREQUENCY)


def apply_symbol(grid: Grid, name: str, f: ComplexField, **params) -> ComplexField:
    """Apply a named multiplier to a field in either representation.

    Convenience wrapper: transforms to frequency space, multiplies, and
    returns the result in the representation the input came in.
    """
    m = make_multiplier(grid, name, **params)
    g = apply_multiplier(m, to_frequency(f))
    return g if f.space == FREQUENCY else to_physical(g)


def dealias_mask(grid: Grid) -> np.ndarray:
    """2/3-rule mask over the frequency lattice (True = keep)."""
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    keep1d = np.abs(k) <= grid.n / 3.0
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        shape = [1] * grid.dim
        shape[axis] = grid.n
        mask &= keep1d.reshape(shape)
    return mask
