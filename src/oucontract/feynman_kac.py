"""Monte Carlo oracle for the Dirichlet resolvent via the killed diffusion.

The process dX = -X dt + sqrt(2) dW has generator lap - <x, grad>, so the
rescaled resolvent applied to f admits the stochastic representation

    u(x) = sigma^-1 * E[ integral_0^tau exp(-t/sigma) f(X_t) dt ],  X_0 = x,

with tau the first exit time from the domain (tau = inf on the whole
space).  Paths are advanced by Euler-Maruyama,

    X_{k+1} = X_k (1 - dt) + sqrt(2 dt) xi_k,

killed at the first grid time where G(X_k) >= 0, with no crossing
correction.  The time integral is a trapezoid rule in the discounted
integrand (half weight at k = 0), whose quadrature error is O(dt^2).
Paths are truncated at t_max = sigma * log(1e6), so the discarded tail
weight exp(-t_max/sigma) is 1e-6.  ``bias_budget`` declares
sup|f| * (cap + dt) only: the O(sqrt(dt)) exit bias of grid-time killing
is not inside it.

States are stored column-major, as (d, v, m): coordinate, start, live
path.  f and the level function get the transposed (v*m, d) view, whose
columns are contiguous, so per-coordinate arithmetic such as x - c and
the sum over coordinates run over contiguous memory.  The noise is drawn
into a C-ordered (m, d) buffer and added transposed, so the random stream
is that of a C-ordered (v, m, d) state, and so is every per-path sum
whenever f and the level function give the same bits in either layout.

This estimator is the independent cross-check for the finite-difference
solver: the two never share code beyond the domain's level function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import LevelSetDomain


@dataclass
class KilledPathEstimator:
    domain: LevelSetDomain | None
    sigma: float
    dt: float = 1e-3
    n_paths: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")

    @property
    def t_max(self) -> float:
        """Path cap with exp(-t_max/sigma) = 1e-6."""
        return self.sigma * math.log(1e6)

    @property
    def n_steps(self) -> int:
        return int(math.ceil(self.t_max / self.dt))

    def bias_budget(self, sup_f: float) -> float:
        """Declared deterministic-bias allowance for |estimate - truth|.

        Cap truncation (<= 1e-6 relative) plus an O(dt) weak-error
        allowance for the Euler step.  The O(sqrt(dt)) exit bias of
        grid-time killing is not covered.
        """
        return abs(sup_f) * (math.exp(-self.t_max / self.sigma) + self.dt)


@dataclass
class McEstimate:
    value: float
    stderr: float
    x: np.ndarray
    n_paths: int
    dt: float
    sigma: float
    seed: int
    n_steps_used: int = 0


def _require_interior(domain: LevelSetDomain | None, x: np.ndarray) -> None:
    if domain is not None and not domain.value(x) < 0.0:
        raise ValueError(f"start point {x} is not interior to the domain")


def _killed_paths(est: KilledPathEstimator, f, starts: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-path discounted occupation sums from v start points.

    Path j draws the same noise xi_k at every start (common random
    numbers), so differences between starts are low variance.  The states
    are held as (d, v, m): coordinate, start, live path column.  A path
    column is compacted away once it is dead at every start; until then its
    dead rows are stepped but masked out of the sums.  Returns the per-path
    estimates, shape (v, n_paths), and the number of steps run.
    """
    v, d = starts.shape
    n = est.n_paths
    rng = np.random.default_rng(est.seed)
    states = np.repeat(starts.T[:, :, None], n, axis=2)  # (d, v, m), m live columns
    totals = np.zeros((v, n))  # per original path, written on death/cap
    acc = np.zeros((v, n))
    path_id = np.arange(n)
    alive = np.ones((v, n), dtype=bool)
    noise = np.empty((n, d))
    masked = False
    sqrt_step = math.sqrt(2.0 * est.dt)
    decay = 1.0 - est.dt
    steps_used = 0
    for k in range(est.n_steps):
        steps_used = k + 1
        m = states.shape[2]
        # (v*m, d) view with contiguous columns; states stays C-contiguous,
        # so the view also sees the in-place step taken below
        points = states.reshape(d, v * m).T
        # trapezoid rule in the discounted integrand: half weight at k = 0
        w = math.exp(-k * est.dt / est.sigma)
        if k == 0:
            w *= 0.5
        # f may return a view into the state buffer, so never scale fv
        # in place; the masked branch allocates a fresh array anyway
        fv = np.asarray(f(points), dtype=float).reshape(v, m)
        if masked:
            fv = fv * alive
            fv *= w
            acc += fv
        else:
            acc += w * fv
        buf = noise[:m]
        rng.standard_normal(out=buf)
        states *= decay
        buf *= sqrt_step
        states += buf.T[:, None, :]
        if est.domain is None:
            continue
        inside = np.asarray(est.domain.value(points)) < 0.0
        alive &= inside.reshape(v, m)
        n_alive = int(np.count_nonzero(alive))
        if n_alive == 0:
            break
        masked = n_alive < alive.size
        if masked:
            live = alive.any(axis=0)
            if m - int(np.count_nonzero(live)) > m // 8:
                dead = ~live
                totals[:, path_id[dead]] = acc[:, dead]
                states = np.ascontiguousarray(states[:, :, live])
                acc = acc[:, live]
                path_id = path_id[live]
                alive = alive[:, live]
                masked = n_alive < alive.size
    if path_id.size:
        totals[:, path_id] = acc
    return totals * (est.dt / est.sigma), steps_used


def mc_resolvent(est: KilledPathEstimator, f, x) -> McEstimate:
    """Estimate u(x) = (I - sigma*L)^-1 f at one interior point.

    f must accept batches (n, d) -> (n,).  f and the domain's level function
    are given an (n, d) view whose columns are contiguous (not C order); they
    must not assume C order, and must not write into it.  Returns the
    path-mean and its standard error; the deterministic discretization
    allowance is available separately via ``est.bias_budget``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _require_interior(est.domain, x)
    per_path, steps_used = _killed_paths(est, f, x[None, :])
    per_path = per_path[0]
    n = est.n_paths
    value = float(np.mean(per_path))
    stderr = float(np.std(per_path, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(value, stderr, x, n, est.dt, est.sigma, est.seed,
                      n_steps_used=steps_used)


def mc_gradient_probe(est: KilledPathEstimator, f, x, h_fd: float) -> np.ndarray:
    """Central difference of common-random-number estimates per axis.

    Requires every probe point x +- h_fd e_i to be interior.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    steps = h_fd * np.eye(x.size)
    starts = np.stack([x + steps, x - steps], axis=1).reshape(-1, x.size)
    for s in starts:
        _require_interior(est.domain, s)
    values = _killed_paths(est, f, starts)[0].mean(axis=1)
    return (values[0::2] - values[1::2]) / (2.0 * h_fd)
