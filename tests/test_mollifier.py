import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from llot.errors import ValidationError
from llot.grids import Grid, GridDensity, density_from_values
from llot.mollifier import (
    TAIL_CUT,
    BumpProfile,
    _raw_profile,
    resample,
    unit_sphere_area,
)
from oracles import amp_at, convolve_sq, offset_sum, one_width_kernel


@pytest.fixture(scope="module")
def bump():
    return BumpProfile(1)


def test_profile_squared_mass_is_one(bump):
    val, err = integrate.quad(lambda r: bump.radial(r) ** 2, -1.0, 1.0)
    assert abs(val - 1.0) < 1e-10


def test_profile_support(bump):
    assert bump.radial(1.0) == 0.0
    assert bump.radial(-1.3) == 0.0
    assert bump.radial(0.999) > 0.0


def test_scaled_mass_is_one_across_widths():
    # the kernel's quadrature sum of the scaled profile squared, before it
    # renormalizes, on a grid fine against the width
    for eps in (1.0, 0.1, 0.01):
        assert abs(one_width_kernel(1, eps, eps / 100).norm - 1.0) < 1e-10


def test_eval_chi_support_boundary():
    # the offset at exactly the width (4 * 0.125, exact in binary) is outside
    k = one_width_kernel(1, 0.5, 0.125)
    assert k.offsets.ravel().tolist() == [-3, -2, -1, 0, 1, 2, 3]
    assert np.all(k.amp > 0.0)


def test_eval_chi_center_value(bump):
    k = one_width_kernel(1, 1.0, 0.01)
    center = k.amp[np.all(k.offsets == 0, axis=1)][0]
    assert center * np.sqrt(k.norm) == pytest.approx(bump.c * np.exp(-1.0), rel=1e-14)


def test_eval_chi_even_symmetry():
    # offsets run in C order, so reversing the table negates every offset
    for dim in (1, 2, 3):
        k = one_width_kernel(dim, 0.37, 0.05)
        assert np.array_equal(k.offsets[::-1], -k.offsets)
        assert np.array_equal(k.amp[::-1], k.amp)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radial_rule_matches_adaptive_quadrature(dim):
    """The fixed Gauss-Legendre rule against ``quad`` on the normalization
    and both moments."""
    profile = BumpProfile(dim)
    area = unit_sphere_area(dim)

    def quad(f):
        return integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]

    c = 1.0 / np.sqrt(area * quad(lambda r: _raw_profile(r) ** 2 * r ** (dim - 1)))
    grad_sq = area * quad(lambda r: profile.radial_deriv(r) ** 2 * r ** (dim - 1))
    second = area * quad(lambda r: r ** (dim + 1) * profile.radial(r) ** 2)
    assert profile.c == pytest.approx(c, rel=1e-13)
    assert profile.moments() == pytest.approx((grad_sq, second), rel=1e-13)


def test_moments_second_moment_below_one(bump):
    grad_sq, second = bump.moments()
    assert 0.0 < second < 1.0
    assert grad_sq > 0.0


def test_moments_scaling(bump):
    # the width-eps profile eps^(-1/2) chi(x / eps), as the orbitals use it
    eps = 0.2
    grad_direct, _ = integrate.quad(
        lambda x: (eps ** -1.5 * bump.radial_deriv(abs(x) / eps)) ** 2, -eps, eps,
        epsabs=1e-12, limit=400)
    assert grad_direct == pytest.approx(bump.moments()[0] / eps**2, rel=1e-8)
    second_direct, _ = integrate.quad(
        lambda x: x * x * (eps ** -0.5 * bump.radial(abs(x) / eps)) ** 2, -eps, eps,
        epsabs=1e-13, limit=400)
    assert second_direct == pytest.approx(bump.moments()[1] * eps**2, rel=1e-8)


def test_moments_against_trapezoid_oracle(bump):
    xs = np.linspace(-1.0, 1.0, 1_000_001)
    grad_oracle = np.trapezoid(bump.radial_deriv(np.abs(xs)) ** 2, xs)
    second_oracle = np.trapezoid(xs * xs * bump.radial(np.abs(xs)) ** 2, xs)
    grad_sq, second = bump.moments()
    assert grad_sq == pytest.approx(grad_oracle, rel=1e-8)
    assert second == pytest.approx(second_oracle, rel=1e-8)


def test_grid_kernel_unit_mass_and_unresolved():
    k = one_width_kernel(1, 0.2, 0.05)
    assert k.sq.sum() * 0.05 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError, match="kernel unresolved"):
        one_width_kernel(1, 0.2, 0.3)


def full_offset_count(dim, width, h):
    reach = int(np.ceil(width / h))
    cube = np.array(list(itertools.product(range(-reach, reach + 1), repeat=dim)))
    return int((np.sqrt((cube**2).sum(axis=1)) * h < width).sum())


@pytest.mark.parametrize("dim, width, h, n_cut", [
    (1, 0.2, 0.05, 0), (2, 0.2, 0.05, 0), (3, 0.2, 0.05, 0),
    (1, 0.05, 2.0 / 1023, 0), (2, 4.007, 1.0, 4), (2, 1.0, 1.0, 0),
], ids=["1", "2", "3", "fine-51-offsets", "tail-cut", "one-node"])
def test_box_amp_matches_a_per_entry_lookup(dim, width, h, n_cut):
    k = one_width_kernel(dim, width, h)
    # at 4.007 h the four offsets at distance 4 h fall below TAIL_CUT, with
    # squared weights about 1e-248 of the peak: dropped, not underflowed
    assert len(k.offsets) == full_offset_count(dim, width, h) - n_cut
    ref = amp_at(k, k.box[:, None, :] - k.offsets[None, :, :])
    assert np.array_equal(k.box_amp[:-1], ref)
    assert np.array_equal(k.box_amp[-1], np.zeros(len(k.offsets)))


def product_filter_offsets(dim, width, h):
    """The kernel offsets by a Python filter over the product cube: the
    lattice rule ``|o h| < width``, then the ``TAIL_CUT`` rule on the squared
    profile weights; and the number of cube offsets with ``|o h| == width``."""
    reach = int(np.ceil(width / h))
    cube = itertools.product(range(-reach, reach + 1), repeat=dim)
    radii = {o: math.sqrt(sum(v * v for v in o)) * h for o in cube}
    offsets = [o for o, r in radii.items() if r < width]
    sq = np.array([BumpProfile(dim).radial(radii[o] / width) for o in offsets]) ** 2
    on_edge = sum(r == width for r in radii.values())
    return np.array(offsets, dtype=int)[sq >= TAIL_CUT * sq.max()], on_edge


@pytest.mark.parametrize("dim, width, h, on_edge, n_cut", [
    (1, 0.2, 0.05, 2, 0), (2, 0.2, 0.05, 4, 0), (3, 0.2, 0.05, 6, 0),
    (1, 1.0, 0.25, 2, 0), (2, 5.0, 1.0, 12, 0), (3, 2.0, 1.0, 6, 0),
    (2, 4.007, 1.0, 0, 4), (1, 3.0001, 1.0, 0, 2), (3, 2.0005, 1.0, 0, 6),
    (1, 1.0, 1.0, 2, 0),
], ids=["1", "2", "3", "1-edge", "2-edge-diagonal", "3-edge", "2-tail-cut",
        "1-underflow", "3-underflow", "one-node"])
def test_offsets_match_the_product_filter(dim, width, h, on_edge, n_cut):
    # offsets at |o h| == width exactly are excluded (the (3, 4) diagonal at
    # 5 h among them), and those whose squared weight falls below TAIL_CUT of
    # the peak, or underflows to 0, are dropped
    k = one_width_kernel(dim, width, h)
    ref, edge_count = product_filter_offsets(dim, width, h)
    assert edge_count == on_edge
    assert k.offsets.dtype == ref.dtype and np.array_equal(k.offsets, ref)
    assert len(k.offsets) == full_offset_count(dim, width, h) - n_cut


@pytest.mark.parametrize("dim, old_h, first, then, shared", [
    (1, 1.0, 2.5, 2.7, "lattice"),
    (2, 1.0, 1.1, 1.5, "cube"),
    (1, 1.0, 3.0001, 3.5, "cube"),
    (1, 1.0, 2.5, 3.5, None),
    (3, 1.0, 1.5, 2.5, None),
    (1, 0.5, 1.25, 2.5, None),
], ids=["same-offsets", "2-diagonals-join", "1-tail-cut-edge-pair", "another-reach",
        "3-another-reach", "another-spacing"])
def test_a_kernel_sharing_a_lattice_equals_a_new_one(dim, old_h, first, then, shared):
    # widths of one reach share the offset cube; a lattice is shared only
    # when the kept offsets are the same, and a cube only at one spacing
    old = one_width_kernel(dim, first, old_h)
    k = one_width_kernel(dim, then, 1.0, old.lattice)
    new = one_width_kernel(dim, then, 1.0)
    for name in ("offsets", "amp", "sq", "box", "box_amp"):
        assert np.array_equal(getattr(k, name), getattr(new, name)), name
    assert (k.norm, k.halfwidth, k.width, k.h) == (new.norm, new.halfwidth, new.width, new.h)
    assert (k.lattice is old.lattice) == (shared == "lattice")
    assert (k.lattice.cube is old.lattice.cube) == (shared is not None)


@pytest.mark.parametrize("dim, widths, runs", [
    (1, [2.5, 2.7, 3.0001, 3.5, 3.2, 2.6], [2, 1, 2, 1]),
    (2, [1.1, 1.5, 1.45, 4.007, 4.6, 4.55], [1, 2, 1, 2]),
], ids=["1", "2-tail-cut"])
def test_a_stack_equals_its_one_width_kernels(dim, widths, runs):
    # one kernel per run of consecutive widths with the same offsets: in
    # 1-D, 3.0001 h keeps the offsets of 2.5 h (TAIL_CUT drops the pair at
    # 3 h) on another cube, and 2.6 h returns to the first set; in 2-D,
    # 1.1 h keeps the axes only and 4.007 h drops the four offsets at 4 h.
    # Each width's row is its one-width kernel, bit for bit
    stacks = resample(dim, np.array(widths), 1.0)
    assert [len(k.width) for k in stacks] == runs
    rows = [(k, i) for k in stacks for i in range(len(k.width))]
    for w, (k, i) in zip(widths, rows):
        one = one_width_kernel(dim, w, 1.0)
        assert k.width[i] == w and k.norm[i] == one.norm
        assert np.array_equal(k.offsets, one.offsets)
        for name in ("amp", "sq", "box_amp"):
            assert np.array_equal(getattr(k, name)[i], getattr(one, name)), name
    for before, k in zip(stacks, stacks[1:]):
        assert k.lattice is not before.lattice
        same_reach = before.lattice.cube.shape == k.lattice.cube.shape
        assert (k.lattice.cube is before.lattice.cube) == same_reach


@pytest.mark.parametrize("dim", [1, 2])
def test_box_amp_is_exact_at_and_beyond_the_box_edge(dim):
    """``amp(b - o)`` read through :meth:`GridKernel.box_slot`, as the mixed
    state reads it, at differences ``b`` on, at and far past the box edge."""
    k = one_width_kernel(dim, 0.2, 0.05)
    r = 2 * k.halfwidth
    steps = [-10**9, -10 * r, -r - 1, -r, -r + 1, 0, r - 1, r, r + 1, 10 * r, 10**9]
    diffs = np.array(list(itertools.product(steps, repeat=dim)))
    slot, inside = k.box_slot(diffs)
    got = k.box_amp[np.where(inside, slot, -1)]
    assert np.array_equal(got, amp_at(k, diffs[:, None, :] - k.offsets[None, :, :]))


def test_convolve_point_mass_gives_kernel_copy():
    g = Grid.line(0.0, 0.05, 64)
    vals = np.zeros(64)
    vals[30] = 1.0 / g.h
    rho = GridDensity(g, vals)
    k = one_width_kernel(1, 0.2, g.h)
    out = convolve_sq(rho, k)
    expected = np.zeros(64)
    for o, v in zip(k.offsets, k.sq):
        expected[30 + o[0]] = v
    assert np.allclose(out, expected, rtol=0, atol=1e-12)


def test_convolve_constant_density_interior_unchanged():
    g = Grid.line(0.0, 0.05, 200)
    rho = GridDensity(g, np.full(200, 1.0 / (200 * 0.05)))
    k = one_width_kernel(1, 0.2, g.h)
    out = convolve_sq(rho, k)
    inner = slice(k.halfwidth, 200 - k.halfwidth)
    assert np.allclose(out[inner], rho.values[inner], rtol=1e-12)


def test_convolve_mass_preserved_exactly():
    # compact support with a kernel margin: mass preserved to rounding
    g = Grid.line(0.0, 0.02, 256)
    x = g.axis()
    vals = np.exp(-((x - 2.5) / 0.4) ** 2)
    vals[vals < 1e-4 * vals.max()] = 0.0
    rho = density_from_values(g, vals, normalize=True)
    out = convolve_sq(rho, one_width_kernel(1, 0.2, g.h))
    assert out.sum() * g.h == pytest.approx(rho.mass(), abs=1e-13)


def test_convolve_l1_error_order_eps_squared():
    g = Grid.line(0.0, 2e-3, 2048)
    x = g.axis()
    rho = density_from_values(g, np.exp(-((x - 2.0) / 0.4) ** 2), normalize=True)
    errs = []
    eps_list = (0.4, 0.2, 0.1)
    for eps in eps_list:
        out = convolve_sq(rho, one_width_kernel(1, eps, g.h))
        errs.append(np.abs(out - rho.values).sum() * g.h)
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def brute_offset_sum(values, offsets, weights):
    """Double loop over nodes and offsets, ``out[x] += w_o * values[x - o]``."""
    dim = offsets.shape[1]
    shape = values.shape[-dim:]
    out = np.zeros_like(values)
    for x in np.ndindex(*shape):
        for o, w in zip(offsets, weights):
            src = tuple(int(xi - oi) for xi, oi in zip(x, o))
            if all(0 <= i < n for i, n in zip(src, shape)):
                out[(Ellipsis,) + x] += w * values[(Ellipsis,) + src]
    return out


def test_offset_sum_matches_brute_force_double_loop():
    rng = np.random.default_rng(3)
    values = rng.uniform(0.0, 1.0, size=(2, 5, 5))
    offsets = np.array([(0, 0), (1, 0), (-2, 1), (0, -3), (4, 4), (-6, 0), (2, 2)])
    weights = rng.uniform(0.1, 1.0, size=len(offsets))
    got = offset_sum(values, offsets, weights)
    assert np.allclose(got, brute_offset_sum(values, offsets, weights),
                       rtol=1e-15, atol=0.0)


def test_offset_sum_slices_follow_the_offsets_and_the_shape():
    """Offsets in one and two dimensions, one set of offsets on two shapes,
    and int32 offsets each give the double loop's sums."""
    rng = np.random.default_rng(4)
    cases = [(np.array([[1], [0]]), (3, 5)), (np.array([[1, 0]]), (5, 5)),
             (np.array([[1], [0]]), (3, 2)), (np.array([[1], [-1]], dtype=np.int32), (2, 4))]
    for offsets, shape in cases:
        values = rng.uniform(0.0, 1.0, size=shape)
        weights = rng.uniform(0.1, 1.0, size=len(offsets))
        got = offset_sum(values, offsets, weights)
        assert np.array_equal(got, brute_offset_sum(values, offsets, weights)), offsets


def test_convolve_sq_matches_brute_force_double_loop():
    g = Grid.line(0.0, 0.05, 24)
    rng = np.random.default_rng(5)
    vals = np.zeros(24)
    vals[6:18] = rng.uniform(0.0, 1.0, size=12)
    rho = density_from_values(g, vals, normalize=True)
    k = one_width_kernel(1, 0.2, g.h)
    expected = brute_offset_sum(rho.values, k.offsets, k.sq * g.h)
    assert np.allclose(convolve_sq(rho, k), expected,
                       rtol=1e-15, atol=0.0)


def test_convolve_sq_keeps_denormal_tails():
    # a unit-mass density: one full node, and a denormal node far from it
    g = Grid.line(0.0, 0.05, 64)
    vals = np.zeros(64)
    vals[10] = 1.0 / g.h
    vals[50] = 1e-310
    rho = GridDensity(g, vals)
    k = one_width_kernel(1, 0.2, g.h)
    out = convolve_sq(rho, k)
    window = 50 + k.offsets[:, 0]
    assert np.all(out[window] > 0.0)
    assert out[window].max() < np.finfo(float).tiny
    assert np.array_equal(out, brute_offset_sum(rho.values, k.offsets, k.sq * g.h))
