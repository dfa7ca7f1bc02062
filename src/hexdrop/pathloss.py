"""Log-distance path loss with log-normal shadowing, all in dB."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PathLossParams:
    """Parameters of loss = alpha + beta*log10(r/r0) + shadowing.

    alpha      mean loss at the close-in distance, dB
    beta       slope, dB per decade of distance (10x the loss exponent)
    r0         close-in distance, metres
    sigma_psi  shadowing standard deviation, dB
    """

    alpha: float
    beta: float
    r0: float
    sigma_psi: float

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.r0 > 0.0:
            raise ValueError(f"r0 must be positive, got {self.r0}")
        if self.sigma_psi < 0.0:
            raise ValueError(f"sigma_psi must be nonnegative, got {self.sigma_psi}")

    @classmethod
    def from_intercept(
        cls, alpha_prime: float, beta: float, r0: float, sigma_psi: float
    ) -> "PathLossParams":
        """Build from the metre-referenced intercept.

        The close-in distance is absorbed into the intercept, so
        alpha = alpha_prime + beta*log10(r0) leaves the mean loss at any
        distance unchanged.
        """
        if not r0 > 0.0:
            raise ValueError(f"r0 must be positive, got {r0}")
        return cls(alpha_prime + beta * math.log10(r0), beta, r0, sigma_psi)


def mean_pathloss(params: PathLossParams, r, out=None):
    """Mean loss alpha + beta*log10(r/r0) in dB; strictly increasing in r.

    r may be scalar or array, in metres.  Distances below r0 extrapolate
    the same formula.  out, if given, is a float array of r's shape that
    receives the loss; it may be r itself, which then turns from distances
    into losses, and the call allocates nothing.
    """
    arr = np.asarray(r, dtype=float)
    if not np.min(arr, initial=np.inf) > 0.0:  # NaN fails too
        raise ValueError("distance must be positive")
    w = np.divide(arr, params.r0, out=np.empty_like(arr) if out is None else out)
    np.log10(w, out=w)
    w *= params.beta
    w += params.alpha
    return float(w) if np.ndim(r) == 0 else w
