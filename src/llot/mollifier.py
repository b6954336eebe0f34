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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    """

    def __init__(self, dim: int, width: float, h: float):
        if h <= 0:
            raise ValidationError("grid spacing must be positive")
        if not width >= h:
            raise ValidationError("kernel unresolved")
        self.profile = BumpProfile(dim)
        self.width = width
        self.h = float(h)
        self.dim = dim
        reach = int(math.ceil(width / h))
        cube = np.indices((2 * reach + 1,) * dim).reshape(dim, -1).T - reach
        r = np.sqrt((cube**2).sum(axis=1)) * h
        inside = r < width
        offsets, r = cube[inside], r[inside]
        raw = width ** (-dim / 2.0) * self.profile.radial(r / width)
        # an edge offset whose squared weight is negligible against the peak
        # would only push rho * kappa under DENOM_FLOOR; it is dropped
        sq = raw**2
        keep = sq >= TAIL_CUT * sq.max()
        self.offsets, raw = offsets[keep], raw[keep]
        self.halfwidth = int(np.abs(self.offsets).max())
        norm = (raw**2).sum() * h**dim
        if norm <= 0:
            raise ValidationError("kernel unresolved")
        self.norm = float(norm)
        self.amp = raw / math.sqrt(norm)
        self.sq = self.amp**2
        # the box |b_k| <= 2 halfwidth holds the support of kappa * kappa
        self.box_shape = (4 * self.halfwidth + 1,) * dim
        self._box_strides = self.box_shape[0] ** np.arange(dim - 1, -1, -1)

    @cached_property
    def box(self) -> np.ndarray:
        """The box offsets ``b``, shape (n_box, dim), in C order."""
        return np.indices(self.box_shape).reshape(self.dim, -1).T - 2 * self.halfwidth

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
        5 h.
        """
        n_offsets = len(self.offsets)
        table = np.zeros((len(self.box) + 1, n_offsets))
        # b - o is the offset o' exactly at b = o + o', which lies in the box
        slot, _ = self.box_slot(self.offsets[:, None, :] + self.offsets[None, :, :])
        table[slot, np.arange(n_offsets)] = self.amp[:, None]
        return table

    def box_slot(self, diff) -> tuple:
        """Slots in :attr:`box` of integer offsets ``diff`` (..., dim), and
        whether each lies in the box; the slot of an offset outside is junk."""
        r = 2 * self.halfwidth
        return (diff + r) @ self._box_strides, np.all(np.abs(diff) <= r, axis=-1)
