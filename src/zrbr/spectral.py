"""Periodic grids, complex fields and the table of Fourier symbols.

Everything here lives on a uniform periodic box [-L/2, L/2)^d with a
power-of-two number of points per axis.  Transforms are unitary (1/sqrt(N)
per axis in both directions) so the discrete Plancherel identity is exact.

A field is tagged by its representation: physical values, the full
frequency spectrum, or, for a real field, the half-spectrum of rfftn (the
last axis cut to n//2 + 1 columns).  The other columns of a real field's
spectrum are the conjugates of these, so a half-spectrum is filled back to
the full one by copying, without a transform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigurationError, ContractViolationError

PHYSICAL = "physical"
FREQUENCY = "frequency"
HALF = "half"


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
    def half_shape(self) -> tuple:
        """Shape of a real field's rfftn half-spectrum."""
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

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

    @cached_property
    def half_xi_squared(self) -> np.ndarray:
        """|xi|^2 on the half-spectrum columns."""
        return half_width(self.xi_squared)


@dataclass
class ComplexField:
    """A complex scalar field on a Grid, tagged by its representation."""

    grid: Grid
    values: np.ndarray
    space: str = PHYSICAL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.space not in (PHYSICAL, FREQUENCY, HALF):
            raise ContractViolationError(f"unknown representation tag {self.space!r}")
        shape = self.grid.half_shape if self.space == HALF else self.grid.shape
        if self.values.shape != shape:
            raise ContractViolationError(
                f"field shape {self.values.shape} does not match grid {shape}"
            )

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy(), self.space)

    def l2_norm(self) -> float:
        """Discrete L2 norm, sqrt(sum |f|^2 * dx^d); the same in every
        representation (a half-spectrum counts its conjugate columns)."""
        a2 = np.abs(self.values) ** 2
        total = hermitian_sum(a2) if self.space == HALF else np.sum(a2)
        return float(np.sqrt(total * self.grid.cell_volume))


def half_width(a: np.ndarray) -> np.ndarray:
    """The half-spectrum columns (the first n//2 + 1 of the last axis) of an
    array over the full lattice, as a contiguous copy."""
    return np.ascontiguousarray(a[..., : a.shape[-1] // 2 + 1])


def hermitian_sum(a: np.ndarray) -> float:
    """Sum over the whole lattice of a real quantity that each coefficient
    of a real field shares with its conjugate (|f_hat|, or Re conj(f_hat)
    g_hat with g real), given on the half-spectrum: every column but the
    first and the Nyquist one stands for itself and its conjugate."""
    return 2.0 * np.sum(a) - np.sum(a[..., 0]) - np.sum(a[..., -1])


def zero_field(grid: Grid, space: str = PHYSICAL) -> ComplexField:
    return ComplexField(grid, np.zeros(grid.shape, dtype=np.complex128), space)


def full_spectrum(grid: Grid, half: np.ndarray) -> np.ndarray:
    """The full spectrum of a real field from its half-spectrum, by exact
    Hermitian copy: f_hat(k) = conj(f_hat(-k)) on the missing columns."""
    n = grid.n
    full = np.empty(grid.shape, dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    minus_k = (-np.arange(n)) % n
    np.conjugate(half[np.ix_(*[minus_k] * (grid.dim - 1), minus_k[n // 2 + 1 :])],
                 out=full[..., n // 2 + 1 :])
    return full


def half_spectrum(f: ComplexField) -> ComplexField:
    """The rfftn half-spectrum of a real field.  Physical values go through
    rfftn of their real part; a full spectrum is cut to its first n//2 + 1
    columns, so an imaginary part of the field is dropped either way."""
    if f.space == HALF:
        return f
    if f.space == FREQUENCY:
        values = half_width(f.values)
    else:
        values = np.fft.rfftn(f.values.real, norm="ortho")
    return ComplexField(f.grid, values, HALF)


def to_frequency(f: ComplexField) -> ComplexField:
    """Unitary forward DFT; a field already in frequency space is returned as
    is, and a half-spectrum is filled to the full one without a transform."""
    if f.space == FREQUENCY:
        return f
    if f.space == HALF:
        return ComplexField(f.grid, full_spectrum(f.grid, f.values), FREQUENCY)
    return ComplexField(f.grid, np.fft.fftn(f.values, norm="ortho"), FREQUENCY)


def to_physical(f: ComplexField) -> ComplexField:
    """Unitary inverse DFT; a field already in physical space is returned as
    is.  A half-spectrum goes through its full spectrum and ifftn, so it
    comes back with the same bits as that full spectrum would."""
    if f.space == PHYSICAL:
        return f
    return ComplexField(f.grid, np.fft.ifftn(to_frequency(f).values, norm="ortho"), PHYSICAL)


def sup_bound(f: ComplexField) -> float:
    """N^{-1/2} sum |f_hat| over the whole lattice, for a field held as
    coefficients: a bound on sup|f|, since the transform is unitary."""
    a = np.abs(f.values)
    total = hermitian_sum(a) if f.space == HALF else np.sum(a)
    return float(total / np.sqrt(f.grid.n**f.grid.dim))


def frozen_symbol(a) -> np.ndarray:
    """A symbol to cache and share: complex128, because numpy multiplies two
    complex arrays faster than a real one by a complex one, and read-only,
    because every caller shares it."""
    a = np.asarray(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


@lru_cache(maxsize=32)
def make_multiplier(grid: Grid, name: str) -> np.ndarray:
    """The symbol table: one shared, read-only symbol per (grid, name).

    laplacian is -|xi|^2, omega |xi|, omega_inv 1/|xi| (0 at xi = 0) and dx
    i xi_1, zeroed on the axis-0 Nyquist plane so derivatives of real fields
    stay real.
    """
    absxi = grid.xi_modulus
    if name == "laplacian":
        sym = -grid.xi_squared
    elif name == "omega":
        sym = absxi
    elif name == "omega_inv":
        sym = np.zeros(grid.shape)
        nz = absxi > 0
        sym[nz] = 1.0 / absxi[nz]
    elif name == "dx":
        xi1 = grid.frequencies()[0].astype(np.complex128)
        xi1[grid.n // 2] = 0.0
        sym = 1j * xi1
    else:
        raise ConfigurationError(f"unknown multiplier name {name!r}")
    return frozen_symbol(sym)


def low_mode_coefficients(grid: Grid, rng: np.random.Generator, band: int) -> np.ndarray:
    """Coefficients N(0,1) + i N(0,1) drawn from rng in turn on the modes
    |k|_inf <= band (lexicographic order), zero elsewhere."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for k in itertools.product(range(-band, band + 1), repeat=grid.dim):
        coeffs[tuple(np.mod(k, grid.n))] = rng.normal() + 1j * rng.normal()
    return coeffs


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
