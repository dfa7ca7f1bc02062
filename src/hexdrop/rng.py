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
    downstream never evaluate at a support endpoint.  A stream is
    single-threaded state.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    def uniforms(self, n: int) -> np.ndarray:
        """n draws from the open unit interval."""
        u = self._rng.random(int(n))
        zero = u == 0.0
        while zero.any():
            u[zero] = self._rng.random(int(zero.sum()))
            zero = u == 0.0
        return u

    def normals(self, n: int) -> np.ndarray:
        return self._rng.standard_normal(int(n))
