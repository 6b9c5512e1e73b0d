"""Periodic grids, complex fields and the table of Fourier symbols.

Everything here lives on a uniform periodic box [-L/2, L/2)^d with a
power-of-two number of points per axis.  Transforms are unitary (1/sqrt(N)
per axis in both directions) so the discrete Plancherel identity is exact.

A field is tagged by its representation: physical values or the full
frequency spectrum.  A real field's rfftn half-spectrum (the last axis cut
to n//2 + 1 columns) is a plain array: the other columns of its spectrum are
the conjugates of these, so it is filled back to the full one by copying,
without a transform.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        check_dim(self.dim, "dim")
        if isinstance(self.n, (int, np.integer)) and (self.n < 4 or not _is_power_of_two(self.n)):
            raise ConfigurationError(f"points per axis must be a power of two >= 4, got {self.n}")
        check_count(self.n, "points per axis", 4)
        check_types(self)
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

    # The |xi| tables are read-only and shared by every equal grid (each
    # SimConfig builds its own Grid).
    @cached_property
    def xi_squared(self) -> np.ndarray:
        return _xi_tables(self)[0]

    @cached_property
    def xi_modulus(self) -> np.ndarray:
        return _xi_tables(self)[1]

    @cached_property
    def half_xi_squared(self) -> np.ndarray:
        """|xi|^2 on the half-spectrum columns."""
        return _xi_tables(self)[2]


@lru_cache(maxsize=8)
def _xi_tables(grid: Grid) -> tuple:
    xi2 = sum(x**2 for x in grid.frequencies())
    tables = (xi2, np.sqrt(xi2), half_width(xi2))
    for table in tables:
        table.setflags(write=False)
    return tables


@dataclass
class ComplexField:
    """A complex scalar field on a Grid, tagged by its representation."""

    grid: Grid
    values: np.ndarray
    space: str = PHYSICAL

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.space not in (PHYSICAL, FREQUENCY):
            raise ContractViolationError(f"unknown representation tag {self.space!r}")
        if self.values.shape != self.grid.shape:
            raise ContractViolationError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def copy(self) -> "ComplexField":
        return ComplexField(self.grid, self.values.copy(), self.space)

    def l2_norm(self) -> float:
        """Discrete L2 norm, sqrt(sum |f|^2 * dx^d); the same in both
        representations."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))


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


def zero_field(grid: Grid) -> ComplexField:
    return ComplexField(grid, np.zeros(grid.shape, dtype=np.complex128))


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


def half_spectrum(f: ComplexField) -> np.ndarray:
    """The rfftn half-spectrum of a real field, as a new array.  Physical
    values go through rfftn of their real part; a full spectrum is cut to its
    first n//2 + 1 columns, so an imaginary part of the field is dropped
    either way."""
    if f.space == FREQUENCY:
        return half_width(f.values)
    return np.fft.rfftn(f.values.real, norm="ortho")


def to_frequency(f: ComplexField) -> ComplexField:
    """Unitary forward DFT; a field already in frequency space is returned as is."""
    if f.space == FREQUENCY:
        return f
    return ComplexField(f.grid, np.fft.fftn(f.values, norm="ortho"), FREQUENCY)


def to_physical(f: ComplexField) -> ComplexField:
    """Unitary inverse DFT; a field already in physical space is returned as is."""
    if f.space == PHYSICAL:
        return f
    return ComplexField(f.grid, np.fft.ifftn(f.values, norm="ortho"), PHYSICAL)


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


def check_dim(value, name: str) -> None:
    """A dimension is the integer 2 or 3 (a bool or a float is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value not in (2, 3):
        raise ConfigurationError(f"{name} must be 2 or 3, got {value!r}")


def check_count(value, name: str, least: int = 0) -> None:
    """A count, such as a band of low modes, is an integer >= least (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")


def check_number(value, name: str) -> float:
    """check_types' rule for a float (finite, no bool); returns it as a float."""
    number = isinstance(value, _KINDS[float][1]) and not isinstance(value, bool)
    return _finite(value if number else np.nan, f"{name} must be a finite number, got {value!r}")


def _finite(value, message: str) -> float:
    """value as a float if it is finite; an int past the float range is not."""
    try:
        if np.isfinite(value := float(value)):
            return value
    except OverflowError:
        pass
    raise ConfigurationError(message)


# Per annotated type, its name in messages and the types of the values that
# stand for it: an int stands for a float, a list for a tuple.
_KINDS = {int: ("an integer", (int, np.integer)), str: ("a string", str),
          float: ("a number", (int, float, np.integer, np.floating)),
          tuple: ("a list", (tuple, list)), bool: ("true or false", bool)}
_annotations = lru_cache(maxsize=8)(typing.get_type_hints)


def check_types(obj) -> None:
    """Every annotated field of a dataclass has its annotated type, by the
    config file's rules: those of _KINDS, a bool for no number, None only
    under `| None`, any other class by isinstance; a number is finite."""
    for name, hint in _annotations(type(obj)).items():
        value = getattr(obj, name)
        kinds = typing.get_args(hint) or (hint,)
        kind = kinds[0]
        kind_name, accepted = _KINDS.get(kind, (f"a {kind.__name__}", kind))
        if value is None:
            ok = type(None) in kinds
        else:
            ok = isinstance(value, accepted) and (kind is bool or not isinstance(value, bool))
        if not ok:
            raise ConfigurationError(f"{name} must be {kind_name}, got {value!r}")
        if kind is float and value is not None:
            _finite(value, f"{name} must be finite, got {value}")


def low_mode_coefficients(
    grid: Grid, rng: np.random.Generator, band: int, leading: tuple = ()
) -> np.ndarray:
    """Coefficients N(0,1) + i N(0,1) on the modes |k|_inf <= band, zero
    elsewhere, shape leading + grid.shape: low_mode_draws scattered onto
    the lattice."""
    kept, draws = low_mode_draws(grid, rng, band, int(np.prod(leading)))
    coeffs = np.zeros((draws.shape[0], grid.n**grid.dim), dtype=np.complex128)
    coeffs[:, kept] = draws
    return coeffs.reshape(tuple(leading) + grid.shape)


def low_mode_draws(grid: Grid, rng: np.random.Generator, band: int, count: int) -> tuple:
    """(kept, draws): the flat indices of the modes |k|_inf <= band, in
    increasing order and read-only, and count fields of coefficients
    N(0,1) + i N(0,1) on them, shape (count, kept.size).

    All normals come from one rng.normal call: real and imaginary part in
    turn, mode by mode in lexicographic order, field by field.  That is the
    stream of one scalar draw after another.  Where the lattice folds two
    modes onto one index (2 band >= n), the later draw is kept.
    """
    check_count(band, "band")
    size, keep, kept = _low_modes(grid, band)
    z = rng.normal(size=2 * count * size).reshape(count, size, 2)
    return kept, z[:, keep, 0] + 1j * z[:, keep, 1]


@lru_cache(maxsize=16)
def _low_modes(grid: Grid, band: int) -> tuple:
    """Per (grid, band), built once: the draws per field on |k|_inf <= band,
    the draws kept, and the flat index each kept draw lands on, in
    increasing order (read-only)."""
    k = np.arange(-band, band + 1) % grid.n
    index = np.ravel_multi_index(np.meshgrid(*[k] * grid.dim, indexing="ij"), grid.shape)
    index = index.ravel()
    kept, last = np.unique(index[::-1], return_index=True)
    keep = index.size - 1 - last
    keep.setflags(write=False)
    kept.setflags(write=False)
    return index.size, keep, kept


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
