"""Built-in desk-scale instances: the paired plan and the sweep preset.

All coordinates are exact grid-node multiples so the node-support identities
hold to rounding.  The calibrated geometry here (pair offsets, window edges,
domain scales) is what the benchmark and the acceptance suite run on.
"""

from __future__ import annotations

import numpy as np

from .grids import AtomicPlan, Grid, GridDensity, density_from_values

PAIRED_WEIGHT_FLOOR = 1e-8  # relative weight below which paired_plan drops a node


def cos4_window(t):
    """Smooth compact weight profile cos^4(pi t / 2) on |t| < 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.cos(np.pi * t[inside] / 2.0) ** 4
    return out


def paired_plan(grid: Grid, s_lo: float, s_hi: float, delta: float) -> AtomicPlan:
    """Two-particle plan pairing each node s in [s_lo, s_hi] with s + delta.

    Weights follow the cos^4 window over the range, so the one-particle
    marginal is a smooth two-hump density and every atom has internal
    separation exactly delta.  Nodes whose weight is below ``PAIRED_WEIGHT_FLOOR``
    times the largest are dropped.  One atom, an orbit, per kept node.
    """
    axis = grid.axis()
    nodes = axis[(axis >= s_lo - 1e-12) & (axis <= s_hi + 1e-12)]
    center, halfwidth = 0.5 * (s_lo + s_hi), 0.5 * (s_hi - s_lo)
    w = cos4_window((nodes - center) / halfwidth)
    keep = w > PAIRED_WEIGHT_FLOOR * w.max()
    nodes, w = nodes[keep], w[keep]
    return AtomicPlan(2, 1, np.stack([nodes, nodes + delta], axis=1)[:, :, None],
                      w / w.sum())


SWEEP_SCALE = 1200.0
SWEEP_ETAS = tuple(np.geomspace(1e-4, 1e-1, 10))


def sweep_density(scale: float = SWEEP_SCALE) -> GridDensity:
    """32-site mirror-symmetric two-cluster density for the rate study.

    Each cluster is five cos^4 samples (|t| <= 1/2) around nodes 6 and 25.
    The optimal pair plan has separation alpha = 19 h, so the sweep's feasible
    window [2h, alpha/4) has ratio 19/8, independent of ``scale``.  That is
    narrower than the 1000^(1/4) ~ 5.6x move of eps_opt that a sqrt(eta)
    regime over eta in [1e-4, 1e-1] needs: on this grid the optimum sits on
    a window edge for most etas.

    Only ``eta / L`` matters, ``L = 19h`` the distance between the clusters:
    by the exact Coulomb scaling law, the sweep of ``sweep_density(lambda
    scale)`` at eta is that of ``sweep_density(scale)`` at ``eta / lambda``,
    rescaled.  ``SWEEP_ETAS`` spans the dimensionless window ``SWEEP_ETAS /
    L``, 1.36e-7 to 1.36e-4 at the default scale (``L = 735.48``).
    """
    grid = Grid.line(0.0, scale / 31.0, 32)
    raw = np.zeros(32)
    profile = cos4_window(np.array([-0.5, -0.25, 0.0, 0.25, 0.5]))
    for c in (6, 25):
        raw[c - 2:c + 3] += profile
    return density_from_values(grid, raw, normalize=True)
