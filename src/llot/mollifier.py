"""The radial bump profile, the grid kernel, and grid convolution.

The continuum profile is ``chi(x) = c * exp(-1/(1-|x|^2))`` inside the unit
ball and 0 outside, with ``c`` fixed once per dimension so that the squared
profile integrates to one.  At width ``w`` it is scaled to
``w**(-d/2) * chi(x/w)``, supported in the ball of radius ``w`` and still
normalized in the squared sense.

For grid work the scaled profile is *resampled and renormalized* once, by
:class:`GridKernel`: its values on the integer offset lattice are divided by
the square root of their own quadrature sum, so the squared kernel has unit
discrete mass exactly.  Every downstream identity (marginal pinning, unit
trace) is exact in floating point because of this.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError
from .grids import GridDensity

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
    package's one discrete kernel; ``profile`` keeps the continuum profile
    for the closed-form moments and the continuum orbitals.
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
        rng = range(-reach, reach + 1)
        offsets = [
            o for o in itertools.product(rng, repeat=dim)
            if math.sqrt(sum(v * v for v in o)) * h < width
        ]
        offsets = np.array(offsets, dtype=int)
        r = np.sqrt((offsets.astype(float) ** 2).sum(axis=1)) * h
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
        of zeros for slot -1: nodes off the box."""
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


def offset_sum(values: np.ndarray, offsets: np.ndarray, weights) -> np.ndarray:
    """``out[x] = sum_o w_o * values[x - o]`` over the trailing ``dim`` axes.

    ``dim`` is the length of each offset; leading axes of ``values`` are
    batch axes.  ``values`` counts as zero off the grid.  The sum is direct,
    one slice-add per lattice offset, so denormal-size products survive.
    """
    values = np.asarray(values, dtype=float)
    shape = values.shape[values.ndim - offsets.shape[1]:]
    out = np.zeros_like(values)
    # Python numbers: the slice arithmetic below costs less than on numpy scalars
    for o, w in zip(np.asarray(offsets).tolist(), np.asarray(weights).tolist()):
        if any(abs(ok) >= npts for ok, npts in zip(o, shape)):
            continue
        dst = tuple(slice(max(ok, 0), npts + min(ok, 0)) for ok, npts in zip(o, shape))
        src = tuple(slice(max(-ok, 0), npts - max(ok, 0)) for ok, npts in zip(o, shape))
        out[(Ellipsis,) + dst] += w * values[(Ellipsis,) + src]
    return out


def convolve_sq(rho: GridDensity, kernel: GridKernel) -> np.ndarray:
    """``rho`` convolved with the squared kernel ``kernel.sq``: values on
    ``rho``'s grid, not a density, since the grid boundary may truncate them.

    ``kernel`` is built for the spacing of ``rho``'s grid; the caller decides
    its width (see :func:`llot.regularizer.smooth_plan`).  Mass is preserved
    to machine precision whenever the support of ``rho`` keeps a kernel
    radius of margin from the grid boundary.  Summed directly by
    :func:`offset_sum`, so the denormal-size tails that the smoothing
    denominators depend on are kept, not flushed or lost to FFT rounding.
    """
    if kernel.h != rho.grid.h:
        raise ValidationError(
            f"kernel built for spacing {kernel.h:g}, grid spacing is {rho.grid.h:g}")
    return offset_sum(rho.values, kernel.offsets, kernel.sq * rho.grid.cell_volume)
