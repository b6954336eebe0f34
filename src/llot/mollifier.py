"""The radial bump profile and the grid kernel.

The continuum profile is ``chi(x) = c * exp(-1/(1-|x|^2))`` inside the unit
ball and 0 outside, with ``c`` fixed once per dimension so that the squared
profile integrates to one.  At width ``w`` it is scaled to
``w**(-d/2) * chi(x/w)``, supported in the ball of radius ``w`` and still
normalized in the squared sense.

For grid work the scaled profile is *resampled and renormalized* once, by
:class:`GridKernel`: its values on the integer offset lattice are divided by
the square root of their own quadrature sum, so the squared kernel has unit
discrete mass exactly.  Every downstream identity (marginal pinning, unit
trace) is exact in floating point because of this.  The kernel is applied
in one form only, its box table :attr:`GridKernel.box_amp`: the smoothing
(:func:`llot.regularizer.smooth_plan`) sums with its squares, and the
mixed state of :mod:`llot.quantum` reads its amplitudes.

A kernel has two halves.  Its :class:`KernelLattice` is the integer
structure: the offset cube, the offsets it keeps, the box and the slots of
the box table.  It depends on the width only through the set of offsets
kept, so it is built once per offset set, and the kernels of widths that
keep the same set can share it: ``GridKernel(dim, width, h, lattice)``.
The numbers are built per width: the amplitudes, ``norm`` and the table's
values.  This module keeps no lattice; the caller that shares one holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import ValidationError

# a 128-node Gauss-Legendre rule on [0, 1] for the radial integrals; 64 nodes
# leave the gradient moment 3e-13 off
_RADIAL_T, _RADIAL_W = np.polynomial.legendre.leggauss(128)
# squared kernel weights below this fraction of the peak are dropped
TAIL_CUT = 1e-200


def unit_sphere_area(dim: int) -> float:
    """Surface measure of the unit sphere in R^dim (2 for dim=1)."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def _raw_profile(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ri * ri))
    return out


def _raw_profile_deriv(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    ri = r[inside]
    one = 1.0 - ri * ri
    out[inside] = np.exp(-1.0 / one) * (-2.0 * ri / one**2)
    return out


def _radial_integral(f) -> float:
    """``int_0^1 f(r) dr`` by the fixed Gauss-Legendre rule; ``f`` acts on an
    array of radii."""
    return float(f((_RADIAL_T + 1.0) / 2.0) @ _RADIAL_W / 2.0)


@lru_cache(maxsize=8)
def _normalization(dim: int) -> float:
    val = _radial_integral(lambda r: _raw_profile(r) ** 2 * r ** (dim - 1))
    return 1.0 / math.sqrt(unit_sphere_area(dim) * val)


@lru_cache(maxsize=8)
def _moments(dim: int) -> tuple:
    profile = BumpProfile(dim)
    area = unit_sphere_area(dim)
    g = _radial_integral(lambda r: profile.radial_deriv(r) ** 2 * r ** (dim - 1))
    s = _radial_integral(lambda r: r * r * profile.radial(r) ** 2 * r ** (dim - 1))
    return area * g, area * s


@dataclass(frozen=True)
class BumpProfile:
    """Radial bump with support in the unit ball and unit squared mass."""

    dim: int = 1

    @property
    def c(self) -> float:
        return _normalization(self.dim)

    def radial(self, r):
        """Profile value as a function of the radius."""
        return self.c * _raw_profile(r)

    def radial_deriv(self, r):
        return self.c * _raw_profile_deriv(r)

    def moments(self) -> tuple:
        """(integral of |grad chi|^2, integral of |u|^2 chi(u)^2).

        Both by the fixed Gauss-Legendre rule of :func:`_radial_integral`,
        which agrees with adaptive quadrature to about 1e-14 relative for
        d = 1, 2, 3 (the profile is smooth, and flat to all orders at the
        unit radius).  Cached per dimension.
        """
        return _moments(self.dim)


class KernelLattice:
    """The width-independent half of a :class:`GridKernel`: one set of
    integer offsets and the box structure built on it.

    ``cube`` holds the lattice vectors with every ``|o_k| <= reach`` (C
    order) and ``radii`` their lengths ``|o| h``; both depend on the reach
    ``ceil(width / h)`` alone.  ``kept`` indexes the cube's rows that a
    width keeps, ``offsets = cube[kept]``, and the box, its slots and the
    scatter of :attr:`GridKernel.box_amp` depend on these offsets alone.
    So every width that keeps the same offsets can share one lattice, and
    only its radial values differ (the ``lattice`` argument of
    :class:`GridKernel`).  In 1-D the reach fixes the offsets, ``|o| <
    width / h``, unless ``TAIL_CUT`` drops the edge pair.
    """

    def __init__(self, cube: np.ndarray, radii: np.ndarray, h: float, kept: np.ndarray):
        self.cube, self.radii, self.h, self.kept = cube, radii, h, kept
        self.offsets = cube[kept]
        dim = cube.shape[1]
        self.halfwidth = int(np.abs(self.offsets).max())
        # the box |b_k| <= 2 halfwidth holds the support of kappa * kappa
        self.box_shape = (4 * self.halfwidth + 1,) * dim
        self._box_strides = self.box_shape[0] ** np.arange(dim - 1, -1, -1)

    @cached_property
    def box(self) -> np.ndarray:
        """The box offsets ``b``, shape (n_box, dim), in C order."""
        dim = len(self.box_shape)
        return np.indices(self.box_shape).reshape(dim, -1).T - 2 * self.halfwidth

    @cached_property
    def table_slots(self) -> np.ndarray:
        """``[i, j]``: the box slot of ``offsets[i] + offsets[j]``, the row
        of :attr:`GridKernel.box_amp` where column j holds ``amp[i]``."""
        return self.box_slot(self.offsets[:, None, :] + self.offsets[None, :, :])[0]

    def box_slot(self, diff) -> tuple:
        """Slots in :attr:`box` of integer offsets ``diff`` (..., dim), and
        whether each lies in the box; the slot of an offset outside is junk."""
        r = 2 * self.halfwidth
        return (diff + r) @ self._box_strides, np.all(np.abs(diff) <= r, axis=-1)


class GridKernel:
    """The scaled profile of width ``width`` resampled on the offset lattice
    of a grid of spacing ``h`` and renormalized.

    ``offsets`` are the integer lattice vectors ``o`` with ``|o*h| < width``,
    less those whose squared weight is below ``TAIL_CUT`` times the peak's;
    ``amp[o]`` is the renormalized amplitude with ``sum(amp**2) * h**d == 1``,
    ``norm`` the quadrature sum it was divided by, and ``sq = amp**2`` the
    unit-mass squared kernel used for smoothing.  This table is the
    package's one discrete kernel, and :attr:`box_amp` its one operator;
    ``profile`` keeps the continuum profile for the closed-form moments and
    the continuum orbitals.

    The integer structure (the offset cube, the offsets, the box and its
    slots) is the kernel's :class:`KernelLattice`, built per offset set;
    the amplitudes, ``norm`` and the values of :attr:`box_amp` are built
    per width.  Given a ``lattice``, the kernel is built on it when the
    width keeps exactly its offsets (then ``kernel.lattice is lattice``), on
    its cube when only the spacing and the reach are the same, and on a new
    lattice otherwise; it equals the kernel built without one in every
    value.
    """

    def __init__(self, dim: int, width: float, h: float,
                 lattice: Optional[KernelLattice] = None):
        if h <= 0:
            raise ValidationError("grid spacing must be positive")
        if not width >= h:
            raise ValidationError("kernel unresolved")
        self.profile = BumpProfile(dim)
        self.width = width
        self.h = float(h)
        self.dim = dim
        reach = int(math.ceil(width / h))
        # the cube depends on the spacing, the dimension and the reach alone
        if lattice is not None and lattice.h == self.h and \
                lattice.cube.shape == ((2 * reach + 1) ** dim, dim):
            cube, radii = lattice.cube, lattice.radii
        else:
            lattice = None
            cube = np.indices((2 * reach + 1,) * dim).reshape(dim, -1).T - reach
            radii = np.sqrt((cube**2).sum(axis=1)) * h
        inside = np.flatnonzero(radii < width)
        raw = width ** (-dim / 2.0) * self.profile.radial(radii[inside] / width)
        # an edge offset whose squared weight is negligible against the peak
        # would only push rho * kappa under DENOM_FLOOR; it is dropped
        sq = raw**2
        keep = sq >= TAIL_CUT * sq.max()
        kept, raw = inside[keep], raw[keep]
        if lattice is None or not np.array_equal(kept, lattice.kept):
            lattice = KernelLattice(cube, radii, self.h, kept)
        self.lattice = lattice
        self.offsets = lattice.offsets
        self.halfwidth = lattice.halfwidth
        norm = (raw**2).sum() * h**dim
        if norm <= 0:
            raise ValidationError("kernel unresolved")
        self.norm = float(norm)
        self.amp = raw / math.sqrt(norm)
        self.sq = self.amp**2

    @property
    def box(self) -> np.ndarray:
        """The box offsets ``b``, shape (n_box, dim), in C order."""
        return self.lattice.box

    @cached_property
    def box_amp(self) -> np.ndarray:
        """``amp(b - o)`` per box slot ``b`` (rows) and kernel offset ``o``
        (columns), 0 where ``b - o`` is not a kernel offset, and a last row
        of zeros for slot -1: nodes off the box.

        The package's one kernel operator.  For a center c, a vector on its
        box ``c + b`` times the squared table sums against ``kappa`` at
        each window node ``c + o``, and a vector on its window times the
        transposed table spreads back onto the box: the two sums of the
        smoothing.  The mixed state reads the amplitudes themselves.  Its
        size is ``n_box x n_offsets``, about 19 MB in d = 3 at a width of
        5 h.  The values are the width's; where they go, ``b - o = o'``
        exactly at ``b = o + o'``, is the lattice's
        (:attr:`KernelLattice.table_slots`).
        """
        n_offsets = len(self.offsets)
        table = np.zeros((len(self.box) + 1, n_offsets))
        table[self.lattice.table_slots, np.arange(n_offsets)] = self.amp[:, None]
        return table

    def box_slot(self, diff) -> tuple:
        """Slots in :attr:`box` of integer offsets ``diff`` (..., dim), and
        whether each lies in the box; the slot of an offset outside is junk."""
        return self.lattice.box_slot(diff)
