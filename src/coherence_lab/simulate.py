"""Euler-Maruyama simulation of the consensus dynamics.

Confirms the analytic steady-state variances empirically: followers (and,
for noise-corrupted dynamics, leaders too) integrate
``dx = -A x dt + dW`` with unit-intensity white noise. Both dynamics take
one body: A is the Laplacian grounded at the leaders, from the same
``graphs._grounded_entries`` as the trace route, with the pinned
leaders' rows dropped (noise-free; every node pinned leaves nothing to
integrate and the value 0) or each leader's weight on its diagonal
(noise-corrupted). The reported value
is the time-averaged sum of squared states; in steady state that sum
equals half the trace of the inverse system matrix (the stationary
covariance solves A P + P A = I, so P = A^{-1} / 2), which is exactly the
analytic coherence. Trials use independent noise substreams derived from
the seed, so results are reproducible bit for bit and per-trial outputs
do not depend on the number of trials.

The iterate is Euler-Maruyama's ``X <- (I - dt A) X + sqrt(dt) xi``, run
in the eigenbasis of the symmetric A = V diag(lambda) V^T. There
Y = V^T X obeys n independent scalar recursions
``y_i <- (1 - dt lambda_i) y_i + sqrt(dt) eta_i`` with eta = V^T xi, and
|X| = |Y|. V is orthogonal, so eta is again white, iid N(0, I): the
recursions take their standard normal draws as eta directly, and only the
eigenvalues are needed, never V. Over a chunk of pre-drawn noise each
mode's recursion is one unit lower-bidiagonal triangular solve with one
right-hand side per trial, so no Python loop runs over steps. The
eigenvalues (LAPACK ``dsyevd``, as in ``numpy.linalg.eigvalsh``) and the
mode solves (``dtbtrs``) run on scipy's LAPACK, so numpy's own BLAS
thread pool is never woken to spin against scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevd, dtbtrs

from .electrical import leaders_with_kappa, normalize_leaders
from .errors import (
    BadParameterError,
    DisconnectedGraphError,
    SolverError,
    UnstableStepError,
)
from .graphs import Graph, _dense, _grounded_entries, _is_int, _is_real, is_connected

# cap on the noise buffer: chunk_steps * n * trials doubles
_NOISE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SimConfig:
    """Integration parameters; ``burn_in`` is the discarded fraction."""

    dt: float
    horizon: float
    burn_in: float = 0.25
    trials: int = 8
    seed: int = 0

    def __post_init__(self):
        # real numbers, as weights must be (graphs._is_real): float() would
        # read True as 1.0, and comparing a string or None raises TypeError
        for name in ("dt", "horizon", "burn_in"):
            value = getattr(self, name)
            if not _is_real(value):
                raise BadParameterError(f"{name} must be a real number, got {value!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise BadParameterError(f"dt must be positive, got {self.dt}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise BadParameterError(f"horizon must be positive, got {self.horizon}")
        if not (0.0 <= self.burn_in < 1.0):
            raise BadParameterError(f"burn_in must be in [0, 1), got {self.burn_in}")
        if not (_is_int(self.trials) and self.trials >= 1):
            raise BadParameterError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise BadParameterError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class SimResult:
    """Empirical coherence estimate with its across-trial standard error."""

    value: float
    stderr: float
    steps: int
    kept_steps: int
    trials: int


def _run(A: np.ndarray, cfg: SimConfig) -> SimResult:
    n = A.shape[0]
    if n == 0:
        return SimResult(0.0, 0.0, 0, 0, cfg.trials)
    lam, _, info = dsyevd(A, compute_v=0, lower=1)
    if info != 0:
        raise SolverError(f"LAPACK eigendecomposition failed (info={info})")
    lam_max = float(lam[-1])
    if lam_max > 0.0 and cfg.dt >= 2.0 / lam_max:
        raise UnstableStepError(
            f"dt={cfg.dt} violates the stability bound 2/lambda_max="
            f"{2.0 / lam_max:.3e}"
        )
    steps = max(1, int(round(cfg.horizon / cfg.dt)))
    burn = int(cfg.burn_in * steps)
    m = cfg.trials
    gens = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(m)]
    decay = 1.0 - cfg.dt * lam
    scale = math.sqrt(cfg.dt)
    chunk = max(1, min(16384, _NOISE_BUDGET // max(1, n * m)))
    # Z[i, t, s]: mode i of trial t at step s of the chunk; each Z[i].T is
    # the Fortran-ordered right-hand side block of that mode's solve, whose
    # band holds the (ignored) unit diagonal and the sub-diagonal -decay[i]
    buffer = np.empty(n * m * chunk)
    band = np.ones((2, chunk), order="F")
    state = np.zeros((n, m))
    acc = np.zeros(m)
    done = 0
    kept = 0
    while done < steps:
        span = min(chunk, steps - done)
        Z = buffer[: n * m * span].reshape(n, m, span)
        for t, g in enumerate(gens):
            np.multiply(g.standard_normal((span, n)).T, scale, out=Z[:, t])
        # carry each mode's last state into step 0 of this chunk
        Z[:, :, 0] += decay[:, None] * state
        for i in range(n):
            band[1, :span] = -decay[i]
            y, info = dtbtrs(band[:, :span], Z[i].T, uplo="L", diag="U",
                             overwrite_b=1)
            if info != 0:
                raise SolverError(f"mode recursion solve failed (info={info})")
            Z[i] = y.T
        state = Z[:, :, -1].copy()
        skip = min(span, max(0, burn - done))
        kept_part = Z[:, :, skip:]
        acc += np.einsum("its,its->t", kept_part, kept_part)
        kept += span - skip
        done += span
    per_trial = acc / kept
    value = float(per_trial.mean())
    stderr = float(per_trial.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return SimResult(value, stderr, steps, kept, m)


def _simulate(g: Graph, S, kvec, cfg: SimConfig) -> SimResult:
    """Integrate under the Laplacian grounded at the normalised leaders
    ``S``: pinned (rows dropped) when ``kvec`` is None, else tied to the
    reference by their weights ``kvec`` on the diagonal."""
    if not is_connected(g):
        raise DisconnectedGraphError("simulation requires a connected graph")
    return _run(_dense(*_grounded_entries(g, S, kvec)[1:]), cfg)


def simulate_nf(g: Graph, leaders, cfg: SimConfig) -> SimResult:
    """Empirical noise-free coherence: only followers are integrated, the
    leaders stay pinned to the reference."""
    return _simulate(g, normalize_leaders(g, leaders), None, cfg)


def simulate_nc(g: Graph, leaders, cfg: SimConfig, kappa=None) -> SimResult:
    """Empirical noise-corrupted coherence: the full state is integrated
    under the Laplacian shifted by the leader stubbornness weights. A
    kappa list follows ``leaders`` in the order given, as in
    :func:`~coherence_lab.coherence.coherence_nc`."""
    return _simulate(g, *leaders_with_kappa(g, leaders, kappa), cfg)
