"""Test-only reference code: the one-width grid kernel, a per-entry lookup
of it, the slice-add lattice sum and the whole-grid convolution with the
squared kernel, whole-grid forms of the smoothed plan's per-center tables,
of its tensor, of the Coulomb integral read from the tensor, of the
Dirichlet sum (``np.gradient``) and of the kinetic check, explicit orbitals
and Slater determinants, the window tuples of the mixed state with the signs
of its permutations, its dense kernel and one-body matrices, and the Coulomb
cost's derivative blocks, shared by the grid, mollifier, regularizer and
quantum tests as oracles; a plan whose support reaches the grid's upper
edge; two smooth three-particle plans, one small enough for the dense
one-body matrix; the sweep preset's geometry on finer grids; cos^4 cluster
densities, one with many pair offsets and one past the dense tensor's cap at
n = 3; the 1024-node paired plan and a traced-memory probe; an LP solver
with wrong duals; and the row-by-row readers of the density CSV and the plan
JSON."""

import csv
import itertools
import json
import math
import tracemalloc
from typing import Optional

import numpy as np

from llot.errors import ValidationError
from llot.fileio import MASS_WINDOW
from llot.grids import (MASS_TOL, AtomicPlan, Grid, GridDensity, coulomb, density_from_values,
                        marginal, stripes)
from llot.mollifier import GridKernel, resample
from llot.presets import SWEEP_SCALE, cos4_window, paired_plan
from llot.regularizer import build_regularized
from instances import permutation_plan, plan_from_atoms


def permutations(n: int) -> np.ndarray:
    """All permutations of range(n) as the rows of an (n!, n) array, in
    lexicographic order."""
    return np.array(list(itertools.permutations(range(n))))


def expanded(plan) -> tuple:
    """A plan's atoms over every ordering, ``(configs, weights)`` of shapes
    ``(m n!, n, dim)`` and ``(m n!,)``: each orbit's n! permuted copies,
    weight ``W / n!`` each, orbit by orbit.  The n-point density of the
    plan, and of its smoothing, is the direct sum over these atoms."""
    perms = permutations(plan.n)
    configs = plan.configs[:, perms].reshape(-1, plan.n, plan.dim)
    return configs, np.repeat(plan.weights / len(perms), len(perms))


def expanded_rows(rp) -> tuple:
    """The atoms of :func:`expanded` of a smoothing's node-snapped plan as
    rows of ``rp.centers``, ``(m n!, n)``, and their weights ``W / n!``."""
    configs, weights = expanded(rp.source)
    flat = rp.grid.flat_index(rp.grid.indices_of(configs))
    return np.searchsorted(rp.grid.flat_index(rp.centers), flat), weights


def one_width_kernel(dim: int, width: float, h: float, lattice=None) -> GridKernel:
    """The kernel of one width: row 0 of the stack of one that
    :func:`~llot.mollifier.resample` gives, as
    :func:`~llot.regularizer.smooth_plan` takes it."""
    (k,) = resample(dim, width, h, lattice)
    return GridKernel(k.lattice, k.profile, float(k.width[0]), k.norm[0], k.amp[0])


def amp_at(kernel: GridKernel, o) -> np.ndarray:
    """``kernel.amp`` at integer lattice offsets ``o`` of shape (..., dim), 0
    for offsets not in the table; one dictionary lookup per entry."""
    o = np.asarray(o, dtype=int)
    table = dict(zip(map(tuple, kernel.offsets.tolist()), kernel.amp.tolist()))
    flat = [table.get(tuple(x), 0.0) for x in o.reshape(-1, o.shape[-1]).tolist()]
    return np.array(flat).reshape(o.shape[:-1])


def offset_sum(values: np.ndarray, offsets: np.ndarray, weights) -> np.ndarray:
    """``out[x] = sum_o w_o * values[x - o]`` over the trailing ``dim`` axes.

    ``dim`` is the length of each offset; leading axes of ``values`` are
    batch axes.  ``values`` counts as zero off the grid.  The sum is direct,
    one slice-add per lattice offset, so denormal-size products survive.
    """
    values = np.asarray(values, dtype=float)
    offsets = np.asarray(offsets, dtype=int)
    shape = values.shape[values.ndim - offsets.shape[1]:]
    out = np.zeros_like(values)
    for o, w in zip(offsets.tolist(), np.asarray(weights).tolist()):
        if any(abs(ok) >= npts for ok, npts in zip(o, shape)):
            continue
        dst = tuple(slice(max(ok, 0), npts + min(ok, 0)) for ok, npts in zip(o, shape))
        src = tuple(slice(max(-ok, 0), npts - max(ok, 0)) for ok, npts in zip(o, shape))
        out[(Ellipsis,) + dst] += w * values[(Ellipsis,) + src]
    return out


def convolve_sq(rho: GridDensity, kernel: GridKernel) -> np.ndarray:
    """``rho`` convolved with the squared kernel ``kernel.sq`` on the whole
    grid by :func:`offset_sum`: the smoothing's denominator ``rho * kappa``
    at every node, values that the grid boundary may truncate."""
    return offset_sum(rho.values, kernel.offsets, kernel.sq * rho.grid.cell_volume)


def dense_q(rp) -> np.ndarray:
    """``kappa / (rho * kappa)`` on each center's window, ``rp.q``'s shape,
    with the denominator from :func:`convolve_sq` over the whole grid."""
    return rp.kernel.sq / convolve_sq(rp.rho, rp.kernel).ravel()[rp.window]


def dense_transfer(rp):
    """The transfer vectors as ``(n_centers, n_sites)`` rows, built over the
    whole grid: :func:`dense_q` scattered to each center's window nodes and
    spread by :func:`offset_sum` on the grid, times ``rho * h^d``."""
    grid = rp.grid
    n_centers = len(rp.centers)
    u = np.zeros((n_centers, grid.n_sites))
    u[np.arange(n_centers)[:, None], rp.window] = dense_q(rp)
    spread = offset_sum(u.reshape((n_centers,) + grid.shape), rp.kernel.offsets,
                        rp.kernel.sq)
    return (rp.rho.values * spread * grid.cell_volume).reshape(n_centers, -1)


def scattered_transfer(rp):
    """The box table ``rp.transfer`` written row by row onto the grid."""
    rows = np.zeros((len(rp.centers), rp.grid.n_sites))
    for row, nodes, values in zip(rows, rp.nodes, rp.transfer):
        row[nodes[nodes >= 0]] = values[nodes >= 0]
    return rows


def whole_grid_tensor(rp) -> np.ndarray:
    """The tensor density as one contraction over every ordering of every
    atom (:func:`expanded_rows`) on whole-grid rows,
    ``(w T_0 ... T_{n-2})^T @ T_{n-1}``: the reference for the block-sparse
    build of :meth:`llot.regularizer.RegularizedPlan.tensor`."""
    centers, weights = expanded_rows(rp)
    rows = scattered_transfer(rp)[centers]                  # (n_rows, n, n_sites)
    left = weights[:, None]
    for k in range(rp.n - 1):
        left = (left[:, :, None] * rows[:, k, None, :]).reshape(len(left), -1)
    return (left.T @ rows[:, -1]).reshape(rp.grid.shape * rp.n)


def dense_integrate_observable(rp) -> float:
    """The Coulomb cost integrated against the tensor density, read in
    stripes of its support box: per stripe, the nonzero entries, their
    coordinates from the grid axes, and cost times density, summed once at
    the end.  The cost is never read on coincidence points, where
    ``P_eps = 0``.  The reference for the pair form of
    :func:`llot.regularizer.integrate_observable`."""
    grid = rp.grid
    box = rp.support_box(0)
    t = rp.tensor()[box * rp.n]
    axes = [grid.axis(k)[b] for k, b in enumerate(box)] * rp.n   # per tensor axis
    products = []
    for lo, hi in stripes(t.shape):
        stripe = t[lo:hi]
        live = stripe != 0
        idx = np.unravel_index(np.flatnonzero(live), stripe.shape)
        configs = np.stack([a[i] for a, i in zip([axes[0][lo:hi]] + axes[1:], idx)], axis=-1)
        products.append(coulomb(configs.reshape(-1, rp.n, grid.dim)) * stripe[live])
    return float(np.concatenate(products).sum() * grid.cell_volume**rp.n)


def gradient_dirichlet_sum_sqrt(values, h) -> float:
    """``sum |grad sqrt(values)|^2`` from whole-array ``np.gradient`` calls,
    second order and one-sided at the edges, summed axis by axis: the
    reference for the striped :func:`llot.grids.dirichlet_sum_sqrt`."""
    g = np.sqrt(values)
    total = 0.0
    for axis in range(g.ndim):
        d = np.gradient(g, h, axis=axis, edge_order=2)
        d *= d
        total += d.sum()
    return total


def whole_grid_kinetic_of_sqrt(rp) -> float:
    """Dirichlet energy of sqrt(P_eps): :func:`gradient_dirichlet_sum_sqrt`
    over the whole n-fold tensor grid, the reference for the support-box
    form of :func:`llot.regularizer.kinetic_of_sqrt`."""
    total = gradient_dirichlet_sum_sqrt(rp.tensor(), rp.grid.h)
    return float(total * rp.grid.cell_volume**rp.n)


def upper_grid_edge_case():
    """A plan whose support sits one kernel halfwidth below the last node,
    so that window orbitals reach past the grid."""
    grid = Grid.line(0.0, 1 / 16, 32)
    plan = permutation_plan([14 * grid.h, 28 * grid.h])
    rp = build_regularized(plan, marginal(plan, grid), 0.2)
    assert 28 + rp.kernel.halfwidth == grid.npts - 1
    return rp


def small_three_particle_case():
    """A smooth n = 3 smoothing small enough for :func:`dense_one_body_matrix`:
    each node s of a two-node cluster at 2 h, 3 h (weights 1/4, 3/4) with
    s + 9 h and s + 18 h, on a 23-node line, smoothed at eps = 2 h.  Each
    center's window is three nodes, so the orbitals of the two cluster nodes
    overlap; 2 orbits of 27 window tuples against 23^3 columns stay under
    ``MAX_DENSE_ENTRIES``."""
    grid = Grid.line(0.0, 1 / 8, 23)
    atoms = [((np.array([s, s + 9, s + 18]) * grid.h)[:, None], w)
             for s, w in ((2, 0.25), (3, 0.75))]
    plan = plan_from_atoms(atoms, dim=1)
    return build_regularized(plan, marginal(plan, grid), 2 * grid.h)


def three_cluster_plan():
    """n = 3 plan on a 128-node line: each node s of a cos^4-weighted cluster
    at 12 h..32 h with s + 40 h and s + 80 h, 21 orbits, to smooth at
    eps = 6 h; its marginal is three smooth humps.  Returns ``(grid, plan,
    eps)``."""
    grid = Grid.line(0.0, 1 / 128, 128)
    s = np.arange(12, 33)
    w = cos4_window((s - 22) / 11)
    configs = np.stack([s, s + 40, s + 80], axis=1)[:, :, None] * grid.h
    return grid, AtomicPlan(3, 1, configs, w / w.sum()), 6 * grid.h


def diagonal_pair_plan():
    """n = 2 plan on a 21 x 21 grid of spacing 1: each node of a 3 x 3
    cos^4 cluster at (4..6, 4..6) with its (10, 10) translate, one orbit per
    node.  Its separation is 10 sqrt 2, so the eps window is [2, 3.53]; the
    32 scan widths keep 6 offset sets on 3 offset cubes, and ``TAIL_CUT``
    drops edge offsets with ``|o h| < w`` at two of them (2.834 and 3.164).
    Returns ``(rho, plan)``."""
    grid = Grid(dim=2, origin=np.zeros(2), h=1.0, npts=21)
    idx = np.arange(4, 7)
    profile = cos4_window((idx - 5) / 2.0)
    weights = np.outer(profile, profile).ravel()
    nodes = np.stack(np.meshgrid(idx, idx, indexing="ij"), axis=-1).reshape(-1, 2)
    plan = plan_from_atoms([(np.stack([x, x + 10.0]), w / weights.sum())
                            for x, w in zip(nodes.astype(float), weights)], dim=2)
    return marginal(plan, grid), plan


class OrbitalSet:
    """Localized orbitals amp(x - z_k), optionally weighted by sqrt(rho)."""

    def __init__(self, centers: np.ndarray, kernel: GridKernel,
                 rho: Optional[GridDensity] = None):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim == 1:
            centers = centers[:, None]
        self.centers = centers
        self.kernel = kernel
        self.rho = rho

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def eps(self) -> float:
        return self.kernel.width

    def min_center_distance(self) -> float:
        if self.n < 2:
            return math.inf
        diff = self.centers[:, None, :] - self.centers[None, :, :]
        dist = np.sqrt((diff**2).sum(-1))
        iu = np.triu_indices(self.n, k=1)
        return float(dist[iu].min())

    def matrix(self, config) -> np.ndarray:
        """Orbital values phi_i(x_j), shape (n, n).

        Index-space orbitals: ``phi_i(x) = amp(rint((x - z_i) / h))`` from the
        kernel's table, times ``sqrt(rho)`` at the node nearest to ``x`` when
        a density is given.
        """
        config = np.asarray(config, dtype=float).reshape(self.n, -1)
        steps = np.rint((config[None, :, :] - self.centers[:, None, :]) / self.kernel.h)
        vals = amp_at(self.kernel, steps.astype(int))
        if self.rho is not None:
            idx = self.rho.grid.indices_of(config)
            vals = vals * np.sqrt(self.rho.values[tuple(idx.T)])[None, :]
        return vals


def signed_permutations(n: int) -> tuple:
    """All permutations of range(n) as rows of an array, and their signs:
    the determinants of their permutation matrices."""
    perms = permutations(n)
    return perms, np.rint(np.linalg.det(np.eye(n)[perms])).astype(int)


def slater(orbitals: OrbitalSet, config) -> float:
    """Normalized Slater determinant (1/sqrt(n!)) det(phi_i(x_j))."""
    mat = orbitals.matrix(config)
    return float(np.linalg.det(mat) / math.sqrt(math.factorial(orbitals.n)))


def det_square_identity(orbitals: OrbitalSet, config) -> tuple:
    """Both sides of the disjoint-support determinant-square collapse.

    Returns ``(lhs, rhs)`` with ``lhs = det(phi_i(x_j))**2`` and
    ``rhs = sum_sigma prod_k phi_{sigma(k)}(x_k)**2``; they agree to rounding
    whenever the orbital centers are at least 2 eps apart.
    """
    if orbitals.min_center_distance() < 2.0 * orbitals.eps:
        raise ValidationError("identity requires disjoint supports")
    mat = orbitals.matrix(config)
    lhs = float(np.linalg.det(mat) ** 2)
    rhs = sum(float(np.prod(mat[perm, np.arange(orbitals.n)] ** 2))
              for perm in permutations(orbitals.n))
    return lhs, float(rhs)


def coulomb_grad(configs, j):
    """Gradient block d/dx_j of :func:`llot.grids.coulomb`, shape (m, dim)."""
    configs = np.asarray(configs, dtype=float)
    m, n, d = configs.shape
    out = np.zeros((m, d))
    for k in range(n):
        if k == j:
            continue
        u = configs[:, j] - configs[:, k]
        r = np.sqrt((u * u).sum(-1))
        out -= u / r[:, None] ** 3
    return out


def coulomb_hess(configs, j, k):
    """Second-derivative block d^2/dx_j dx_k of :func:`llot.grids.coulomb`,
    shape (m, dim, dim)."""
    configs = np.asarray(configs, dtype=float)
    m, n, d = configs.shape
    eye = np.eye(d)
    out = np.zeros((m, d, d))
    if j == k:
        for l in range(n):
            if l == j:
                continue
            u = configs[:, j] - configs[:, l]
            r = np.sqrt((u * u).sum(-1))[:, None, None]
            out += -eye / r**3 + 3.0 * u[:, :, None] * u[:, None, :] / r**5
    else:
        u = configs[:, j] - configs[:, k]
        r = np.sqrt((u * u).sum(-1))[:, None, None]
        out = eye / r**3 - 3.0 * u[:, :, None] * u[:, None, :] / r**5
    return out


def window_tuples(K, atoms: Optional[tuple] = None) -> tuple:
    """Every atom's window node tuples ``(m, n)`` as flat node indices, and
    their weights ``w * prod_i q_i(z_i) * h^{d n}``, for a
    :class:`~llot.quantum.MixedStateKernel` ``K``.  ``atoms`` is ``(center
    rows, weights)``, by default the plan's, one atom per orbit.

    Atom by atom, each in the C order of its tuple grid; particle axis i
    broadcasts the window row of the atom's i-th center.
    """
    rp = K.rp
    rows, atom_weights = (rp.center_of, rp.source.weights) if atoms is None else atoms
    n, n_atoms = rp.n, len(rows)
    full = (n_atoms,) + rp.window.shape[1:] * n

    def along(table, i):
        shape = [n_atoms] + [1] * n
        shape[1 + i] = -1
        return table[rows[:, i]].reshape(shape)

    tuples = np.stack([np.broadcast_to(along(rp.window, i), full).ravel()
                       for i in range(n)], axis=1)
    weights = atom_weights.reshape((n_atoms,) + (1,) * n)
    for i in range(n):
        weights = weights * along(rp.q, i)
    return tuples, (weights * rp.grid.cell_volume**n).ravel()


MAX_DENSE_ENTRIES = 1 << 24


def slater_rows(K) -> tuple:
    """One explicit Slater vector per window tuple of a
    :class:`~llot.quantum.MixedStateKernel` ``K``, as the rows of an
    ``(n_tuples, n_sites^n)`` array, and the tuple weights.

    The orbital columns are ``f_z(x) = sqrt(rho(x)) * amp(x - z)`` over
    every node x.
    """
    rp = K.rp
    n = rp.n
    s = rp.grid.n_sites
    dim_total = s**n
    tuples, weights = window_tuples(K)
    rows = tuples.shape[0]
    if rows * dim_total > MAX_DENSE_ENTRIES:
        raise ValidationError(
            f"dense kernel of {rows} x {dim_total} entries exceeds the "
            f"{MAX_DENSE_ENTRIES} limit"
        )
    zs, col_of = np.unique(tuples, return_inverse=True)
    col_of = col_of.reshape(tuples.shape)
    nodes = np.stack(np.unravel_index(np.arange(s), rp.grid.shape), axis=-1)
    cols = K.sqrt_rho[:, None] * amp_at(rp.kernel, nodes[:, None] - nodes[None, zs])
    perms, signs = signed_permutations(n)
    b = np.zeros((rows, dim_total))
    for perm, sign in zip(perms, signs):
        # per tuple: the product state prod_j f_{z_perm(j)}(x_j), flattened
        term = cols[:, col_of[:, perm[0]]].T
        for j in range(1, n):
            nxt = cols[:, col_of[:, perm[j]]].T
            term = (term[:, :, None] * nxt[:, None, :]).reshape(rows, -1)
        b += sign * term
    return b / math.sqrt(math.factorial(n)), weights


def dense_kernel_matrix(K) -> np.ndarray:
    """Dense (n_sites^n, n_sites^n) matrix of a :class:`MixedStateKernel`
    ``K``, for desk-size checks: the weighted sum of the outer products of
    :func:`slater_rows`.  The reference the tests compare
    :func:`llot.quantum.kernel_eval` against."""
    b, weights = slater_rows(K)
    return (b * weights[:, None]).T @ b


def dense_one_body_matrix(K) -> np.ndarray:
    """n times the partial trace of :func:`dense_kernel_matrix` over
    coordinates 2..n (a sum over their nodes times ``h^{d(n-1)}``), summed
    row by row from :func:`slater_rows` without forming the matrix."""
    b, weights = slater_rows(K)
    b = b.reshape(len(b), K.grid.n_sites, -1)
    trace = np.tensordot(b * weights[:, None, None], b, axes=([0, 2], [0, 2]))
    return K.n * trace * K.grid.cell_volume ** (K.n - 1)


def refined_sweep_density(refine: int, pad: int):
    """``sweep_density``'s geometry on a grid ``refine`` times finer.

    Same domain scale, clusters at coarse nodes 6 and 25 and the same cos^4
    profile, sampled at every fine node within two coarse spacings of a
    center; ``pad`` empty nodes on each side keep the support a kernel
    radius of alpha/4 from the boundary.  ``refine=1, pad=0`` is the preset.
    """
    npts = 32 * refine + 2 * pad
    h = SWEEP_SCALE / 31.0 / refine
    offsets = np.arange(-2 * refine, 2 * refine + 1)
    profile = cos4_window(offsets / (4.0 * refine))
    raw = np.zeros(npts)
    for c in (6, 25):
        raw[pad + refine * c + offsets] += profile
    return density_from_values(Grid.line(-pad * h, h, npts), raw, normalize=True)


def cos4_clusters(npts: int, clusters) -> GridDensity:
    """A density on ``npts`` nodes of the unit interval: per ``(node,
    half)`` of ``clusters``, the ``2 half + 1`` cos^4 samples around the node,
    all positive, at mass 1/len(clusters) each."""
    grid = Grid.line(0.0, 1.0 / (npts - 1), npts)
    raw = np.zeros(npts)
    for node, half in clusters:
        s = np.arange(-half, half + 1)
        w = cos4_window(s / (half + 1))
        raw[node + s] += w / w.sum()
    return density_from_values(grid, raw, normalize=True)


def unequal_cluster_density() -> GridDensity:
    """Two cos^4 clusters of 25 and 11 nodes around nodes 24 and 72 on 96
    nodes.  Its optimal pair plan pairs nodes at many different offsets:
    35 orbits over 15 distinct center offsets, separation 41 h."""
    return cos4_clusters(96, [(24, 12), (72, 5)])


def three_cluster_density() -> GridDensity:
    """Three cos^4 clusters of 9 nodes around nodes 32, 96 and 160 on 192
    nodes: an n = 3 sweep geometry whose 192^3 tensor exceeds
    ``MAX_TENSOR_ENTRIES``."""
    return cos4_clusters(192, [(32, 4), (96, 4), (160, 4)])


def fine_paired_plan():
    """The 1024-node paired plan at width 0.05: 259 orbits, an 8 MB tensor."""
    grid = Grid.line(0.0, 2.0 / 1023, 1024)
    plan = paired_plan(grid, 0.25, 0.76, 0.75)
    return build_regularized(plan, marginal(plan, grid), 0.05)


def traced_peak(call):
    """Peak bytes traced by ``tracemalloc`` while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def raise_lp_duals(monkeypatch):
    """Make scipy's ``linprog`` return its row duals raised by 0.5 at the
    first site; ``solve_lp`` imports ``linprog`` on each call, so the patch
    reaches it."""
    from scipy.optimize import linprog

    def raised(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.eqlin.marginals[0] += 0.5
        return res

    monkeypatch.setattr("scipy.optimize.linprog", raised)


# -- the row-by-row readers (fileio parses each file in one bulk pass) -------

def read_density(path, n_particles: Optional[int] = None) -> GridDensity:
    """``fileio.read_density`` with one ``csv`` row, ``float`` and
    ``math.isfinite`` per line."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[-1].strip() != "value":
            raise ValidationError(f"{path}: line 1: expected header ending in 'value'")
        if len(header) != 2:
            raise ValidationError(f"{path}: only 1-d densities are supported in CSV")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}: line {lineno}: expected 2 fields")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError:
                raise ValidationError(f"{path}: line {lineno}: non-numeric field")
            if not all(map(math.isfinite, rows[-1])):
                raise ValidationError(f"{path}: line {lineno}: non-finite field")
    if len(rows) < 2:
        raise ValidationError(f"{path}: need at least 2 rows")
    rows = np.asarray(rows)
    order = np.argsort(rows[:, 0])
    xs, vals = rows[order, 0], rows[order, 1]
    spacings = np.diff(xs)
    h = spacings.mean()
    if h <= 0 or np.abs(spacings - h).max() > 1e-9 * max(abs(xs[-1]), abs(xs[0]), 1.0):
        raise ValidationError(f"{path}: grid spacing is not uniform")
    grid = Grid.line(float(xs[0]), float(h), len(xs))
    mass = vals.sum() * grid.cell_volume
    if abs(mass - 1.0) > MASS_WINDOW:
        if not (n_particles and abs(mass - n_particles) <= MASS_WINDOW * n_particles):
            raise ValidationError(
                f"{path}: mass {mass:.6g} is neither 1 nor n_particles = {n_particles}")
        vals = vals / n_particles
        mass = vals.sum() * grid.cell_volume
    if abs(mass - 1.0) > MASS_TOL:
        vals = vals / mass
    return GridDensity(grid, vals)


def _json_numbers(value) -> bool:
    """Whether ``value`` is a JSON number, or a list nesting only numbers:
    no string and no boolean, which ``float`` would read as numbers."""
    if isinstance(value, list):
        return all(map(_json_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_plan(path) -> AtomicPlan:
    """``fileio.read_plan`` with one ``np.asarray`` per atom, through
    :func:`instances.plan_from_atoms`."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: line {exc.lineno}: invalid JSON ({exc.msg})")
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")
    for key in ("n", "dim", "atoms"):
        if key not in data:
            raise ValidationError(f"{path}: missing key {key!r}")
    for key in ("n", "dim"):
        if not isinstance(data[key], int) or isinstance(data[key], bool):
            raise ValidationError(f"{path}: {key!r} must be an integer, got {data[key]!r}")
    if not isinstance(data["atoms"], list):
        raise ValidationError(f"{path}: 'atoms' must be a list")
    atoms = []
    for i, atom in enumerate(data["atoms"]):
        if not isinstance(atom, dict) or "x" not in atom or "w" not in atom:
            raise ValidationError(f"{path}: atom {i}: must be an object with 'x' and 'w'")
        numeric = _json_numbers(atom["x"]) and _json_numbers([atom["w"]])
        try:
            x = np.asarray(atom["x"], dtype=float)
            w = float(atom["w"])
        except (TypeError, ValueError, OverflowError):
            numeric = False
        if not numeric:
            raise ValidationError(f"{path}: atom {i}: x must be a numeric array "
                                  "and w a number")
        if x.shape != (data["n"], data["dim"]):
            raise ValidationError(
                f"{path}: atom {i}: x must be shape ({data['n']}, {data['dim']})"
            )
        atoms.append((x, w))
    try:
        return plan_from_atoms(atoms, dim=data["dim"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}")
