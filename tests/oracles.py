"""Whole-grid forms of the smoothed plan's per-center tables, shared by the
regularizer and the quantum tests as oracles."""

import numpy as np

from llot.mollifier import offset_sum


def dense_transfer(rp):
    """The transfer vectors as ``(n_centers, n_sites)`` rows, built over the
    whole grid: ``q`` scattered to each center's window nodes and spread by
    :func:`offset_sum` on the grid, times ``rho * h^d``."""
    grid = rp.grid
    n_centers = len(rp.centers)
    u = np.zeros((n_centers, grid.n_sites))
    u[np.arange(n_centers)[:, None], rp.window] = rp.q
    spread = offset_sum(u.reshape((n_centers,) + grid.shape), rp.kernel.offsets,
                        rp.kernel.sq)
    return (rp.rho.values * spread * grid.cell_volume).reshape(n_centers, -1)


def scattered_transfer(rp):
    """The box table ``rp.transfer`` written row by row onto the grid."""
    rows = np.zeros((len(rp.centers), rp.grid.n_sites))
    for row, nodes, values in zip(rows, rp.nodes, rp.transfer):
        row[nodes[nodes >= 0]] = values[nodes >= 0]
    return rows
