"""Monte Carlo oracle for the Dirichlet resolvent via the killed diffusion.

The process dX = -X dt + sqrt(2) dW has generator lap - <x, grad>, so the
rescaled resolvent applied to f admits the stochastic representation

    u(x) = sigma^-1 * E[ integral_0^tau exp(-t/sigma) f(X_t) dt ],  X_0 = x,

with tau the first exit time from the domain.  Paths are advanced by
Euler-Maruyama,

    X_{k+1} = X_k (1 - dt) + sqrt(2 dt) xi_k,

killed at the first grid time where G(X_k) >= 0, with no crossing
correction.  The time integral is a trapezoid rule in the discounted
integrand (half weight at k = 0), whose quadrature error is O(dt^2).
Paths are truncated at t_max = sigma * log(1e6), so the discarded tail
weight exp(-t_max/sigma) is 1e-6.  ``bias_budget`` declares
sup|f| * (cap + dt) only: the O(sqrt(dt)) exit bias of grid-time killing
is not inside it.

The paths form two fixed blocks, the first n // 2 and the rest.  Block b
has its own thread, its own buffers and its own generator, child b of
``SeedSequence(seed).spawn(2)``, so the estimate does not depend on how
the threads interleave.  A block stores its states column-major, as
(d, v, m): coordinate, start, live path.  f and the level function get
(c, d) views of one start and at most 32768 columns, whose columns are
contiguous; they are called from both threads at once and must keep no
state between calls.  Each step draws the normals in the same (d, m)
layout and adds them as is.

The normals come from a Box-Muller transform (Box & Muller 1958) on the
generator's uniforms (see ``_normals``).  The angle lies on a 2^-24
lattice and float32 sin and cos carry a relative error of about 1e-7 per
normal; the largest |z| is sqrt(106 log 2), about 8.57.  The bits follow
numpy's SIMD log, sin and cos, as the bump's exp already does.

This estimator is the independent cross-check for the finite-difference
solver: the two never share code beyond the domain's level function.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .domains import LevelSetDomain


@dataclass
class KilledPathEstimator:
    domain: LevelSetDomain
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
    n_paths: int
    n_steps_used: int = 0
    # paths alive at some start after each tenth of the steps (11 counts)
    live_paths: list[int] = field(default_factory=list)
    # normals drawn: d per live path column per step, over both blocks
    normals: int = 0


def _require_interior(domain: LevelSetDomain, x: np.ndarray) -> None:
    if x.shape != (domain.dim,):
        raise ValueError(f"start point {x.tolist()} has shape {x.shape}, "
                         f"but 'dim' is {domain.dim}")
    if not domain.value(x) < 0.0:
        raise ValueError(f"start point {x} is not interior to the domain")


_TWO_PI = np.float32(2.0 * math.pi)
_CHUNK = 32768  # columns per f and level-function call


def _normals(rng: np.random.Generator, out: np.ndarray, scratch, var: float) -> np.ndarray:
    """Fill the C-contiguous ``out`` with Box-Muller N(0, var) draws, return it.

    ``scratch`` is a float64 and a float32 array, each of at least
    ceil(out.size / 2) values.  With N = out.size and h = ceil(N/2), the
    flat block gets r cos a in its first h slots and r sin a in the other
    N - h, from h float64 uniforms u for the radii r = sqrt(-2 var log(1 - u))
    and h float32 uniforms for the angles.
    """
    flat = out.reshape(-1)
    n = flat.size
    h = n - n // 2
    r = scratch[0][:h]
    a = scratch[1][:h]
    rng.random(out=r)
    np.subtract(1.0, r, out=r)  # in (0, 1], so the log is finite
    np.log(r, out=r)
    r *= -2.0 * var
    np.sqrt(r, out=r)
    rng.random(out=a, dtype=np.float32)
    a *= _TWO_PI
    np.cos(a, out=flat[:h])
    flat[:h] *= r
    np.sin(a[:n - h], out=flat[h:])
    flat[h:] *= r[:n - h]
    return out


def _live_chunks(states: np.ndarray, m: int):
    """(start, columns, (c, d) view) over chunks of the first m columns."""
    for s in range(states.shape[1]):
        for c in range(0, m, _CHUNK):
            cols = slice(c, min(c + _CHUNK, m))
            yield s, cols, states[:, s, cols].T


def _path_block(est: KilledPathEstimator, f, starts: np.ndarray,
                rng: np.random.Generator, n: int, stop: threading.Event):
    """Unscaled sums (v, n), steps run, live counts and normals of one block.

    Columns [:m] of the (d, v, n) states are live.  After the kill test,
    each column dead at every start, first to last, takes the place of the
    last live column.  The loop ends early once ``stop`` is set.
    """
    v, d = starts.shape
    states = np.repeat(starts.T[:, :, None], n, axis=2)
    acc = np.zeros((v, n))
    totals = np.zeros((v, n))  # by original column, written on death or at the cap
    path_id = np.arange(n)
    alive = np.ones((v, n), dtype=bool)  # per start; all true in [:m] when v = 1
    noise = np.empty(d * n)
    half = d * n - d * n // 2
    scratch = (np.empty(half), np.empty(half, dtype=np.float32))
    m = n
    steps_used = normals = 0
    marks = [i * est.n_steps // 10 for i in range(11)]  # steps run at each tenth
    live_paths = [n] * marks.count(0)
    for k in range(est.n_steps):
        if m == 0 or stop.is_set():
            break
        steps_used = k + 1
        # trapezoid rule in the discounted integrand: half weight at k = 0
        w = math.exp(-k * est.dt / est.sigma) * (0.5 if k == 0 else 1.0)
        for s, cols, points in _live_chunks(states, m):
            terms = np.asarray(f(points), dtype=float) * w  # fresh: f may return a view
            if v > 1:
                terms *= alive[s, cols]
            acc[s, cols] += terms
        live = states[:, :, :m]
        live *= 1.0 - est.dt
        live += _normals(rng, noise[:d * m].reshape(d, m), scratch, 2.0 * est.dt)[:, None, :]
        normals += d * m
        for s, cols, points in _live_chunks(states, m):
            alive[s, cols] &= np.asarray(est.domain.value(points)) < 0.0
        dead = np.flatnonzero(~alive[:, :m].any(axis=0))
        if dead.size:
            totals[:, path_id[dead]] = acc[:, dead]
            last, m = m, m - dead.size
            holes, gone = np.split(dead, [np.searchsorted(dead, m)])
            movers = np.setdiff1d(np.arange(m, last), gone)[::-1]
            for arr in (states, acc, alive, path_id):
                arr[..., holes] = arr[..., movers]
        live_paths += [m] * marks.count(k + 1)
    totals[:, path_id[:m]] = acc[:, :m]
    live_paths += [0] * (11 - len(live_paths))  # all dead after a break
    return totals, steps_used, live_paths, normals


def _killed_paths(est: KilledPathEstimator, f,
                  starts: np.ndarray) -> tuple[np.ndarray, int, list[int], int]:
    """Per-path discounted occupation sums from v start points.

    Path j draws the same noise xi_k at every start (common random
    numbers), so differences between starts are low variance.  An error
    in one block stops the other at its next step and reaches the caller.

    Returns the per-path estimates, shape (v, n_paths), the number of steps
    run, the number of paths alive at some start after each tenth of
    ``est.n_steps`` (11 counts, from step 0), and the normals drawn.
    """
    n = est.n_paths
    stop = threading.Event()

    def block(seed, size):
        try:
            return _path_block(est, f, starts, np.random.default_rng(seed), size, stop)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(2, thread_name_prefix="oucontract-paths") as pool:
        runs = [pool.submit(block, seed, size) for seed, size in
                zip(np.random.SeedSequence(est.seed).spawn(2), (n // 2, n - n // 2))]
        try:
            (sums0, steps0, live0, drawn0), (sums1, steps1, live1, drawn1) = \
                [run.result() for run in runs]
        finally:
            stop.set()  # also when the caller is interrupted
    return (np.concatenate([sums0, sums1], axis=1) * (est.dt / est.sigma),
            max(steps0, steps1), [a + b for a, b in zip(live0, live1)], drawn0 + drawn1)


def mc_resolvent(est: KilledPathEstimator, f, x) -> McEstimate:
    """Estimate u(x) = (I - sigma*L)^-1 f at one interior point.

    f must accept batches (n, d) -> (n,).  f and the domain's level function
    are given (n, d) views whose columns are contiguous (not C order), from
    two threads at once; they must not assume C order, must not write into
    the view and must keep no state between calls.  Returns the
    path-mean and its standard error; the deterministic discretization
    allowance is available separately via ``est.bias_budget``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _require_interior(est.domain, x)
    per_path, steps_used, live_paths, normals = _killed_paths(est, f, x[None, :])
    per_path = per_path[0]
    n = est.n_paths
    value = float(np.mean(per_path))
    stderr = float(np.std(per_path, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return McEstimate(value, stderr, n, n_steps_used=steps_used, live_paths=live_paths,
                      normals=normals)


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
