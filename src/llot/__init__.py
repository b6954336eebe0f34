"""Marginal-pinned smoothing of symmetric particle ensembles, the matching
fermionic mixed state, Coulomb multi-marginal transport, and the
small-parameter rate study, all at desk scale on uniform grids.

The package's namespace is its modules: each name is bound once, in the
module that defines it (``llot.grids.AtomicPlan``,
``llot.semiclassics.sweep``).  ``import llot`` loads the modules below;
``cli``, ``fileio`` and ``presets`` load on their first import.
"""

from . import errors, grids, mollifier, regularizer, quantum, mmot, semiclassics

__version__ = "0.1.0"
