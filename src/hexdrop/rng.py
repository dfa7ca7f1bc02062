"""Seedable random variate streams."""

from __future__ import annotations

import numpy as np

# Recorded in verification reports so a run can be reproduced elsewhere.
GENERATOR_LABEL = "numpy-pcg64"


class VariateStream:
    """Deterministic stream of uniform and standard-normal variates.

    Backed by numpy's PCG64 (64-bit seedable, period 2**128).  Uniforms are
    drawn from the open interval (0, 1): an exact 0.0 (probability 2**-53
    per draw) is redrawn, and numpy never returns 1.0, so inverse transforms
    downstream never evaluate at a support endpoint.  Each :meth:`uniforms`
    call redraws its own zeros at its end, so drawing n values in blocks
    gives the values of one n-draw call unless an exact 0.0 is drawn.  A
    stream is single-threaded state.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n draws from the open unit interval, written into out if given.

        Exact zeros are redrawn, in order, by further draws of this call;
        only then is a zero mask formed, so a call without zeros allocates
        nothing when out is given.
        """
        u = self._rng.random(int(n)) if out is None else self._rng.random(int(n), out=out)
        while not u.all():
            zero = u == 0.0
            u[zero] = self._rng.random(int(zero.sum()))
        return u

    def normals(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n standard-normal draws, written into out if given."""
        return self._rng.standard_normal(int(n), out=out)
