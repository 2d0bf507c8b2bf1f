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
in the same (d, m) layout and added as is.

The normals are drawn by a Box-Muller transform (Box & Muller 1958) on
uniforms from the generator: for a block of N values and h = ceil(N/2),
h float64 radii sqrt(-2 log(1 - u)) and h float32 angles 2 pi u' give
r cos a in the block's first h slots and r sin a in the other N - h.
The angle lies on a 2^-24 lattice and float32 sin and cos carry a
relative error of about 1e-7 per normal; the largest |z| is
sqrt(106 log 2), about 8.57.  The bits follow numpy's SIMD log, sin and
cos, as the bump's exp already does.

The normals are drawn one step ahead on a worker thread, so each step's
draw overlaps the previous step's update and kill test and its own f
evaluation; numpy releases the GIL inside the draw and inside large
array operations.  f and the level function are called only from the
calling thread, the generator only from the worker.  A draw is sized by
the columns live before the kill test that may compact the states; the
kept columns then take a prefix of that block.  Step k+1's normals are
independent of everything up to step k, and so of the compaction, so
any prefix of the block is still i.i.d. N(0, 1).

This estimator is the independent cross-check for the finite-difference
solver: the two never share code beyond the domain's level function.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
    n_paths: int
    n_steps_used: int = 0
    # paths alive at some start after each tenth of the steps (11 counts)
    live_paths: list[int] = field(default_factory=list)
    # normals the state updates consumed (unused block tails and the last
    # lookahead draw excluded)
    normals: int = 0


def _require_interior(domain: LevelSetDomain | None, x: np.ndarray) -> None:
    if domain is None:
        return
    if x.shape != (domain.dim,):
        raise ValueError(f"start point {x.tolist()} has shape {x.shape}, "
                         f"but 'dim' is {domain.dim}")
    if not domain.value(x) < 0.0:
        raise ValueError(f"start point {x} is not interior to the domain")


_TWO_PI = np.float32(2.0 * math.pi)


def _normals(rng: np.random.Generator, out: np.ndarray, scratch) -> np.ndarray:
    """Fill the C-contiguous ``out`` with Box-Muller normals and return it.

    ``scratch`` is a float64 and a float32 array, each of at least
    ceil(out.size / 2) values.  With N = out.size and h = ceil(N/2), the
    flat block gets r cos a in its first h slots and r sin a in the other
    N - h, from h float64 uniforms for the radii and h float32 uniforms
    for the angles.
    """
    flat = out.reshape(-1)
    n = flat.size
    h = n - n // 2
    r = scratch[0][:h]
    a = scratch[1][:h]
    rng.random(out=r)
    np.subtract(1.0, r, out=r)  # in (0, 1], so the log is finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    rng.random(out=a, dtype=np.float32)
    a *= _TWO_PI
    np.cos(a, out=flat[:h])
    flat[:h] *= r
    np.sin(a[:n - h], out=flat[h:])
    flat[h:] *= r[:n - h]
    return out


def _killed_paths(est: KilledPathEstimator, f,
                  starts: np.ndarray) -> tuple[np.ndarray, int, list[int], int]:
    """Per-path discounted occupation sums from v start points.

    Path j draws the same noise xi_k at every start (common random
    numbers), so differences between starts are low variance.  The states
    are held as (d, v, m): coordinate, start, live path column.  A path
    column is compacted away once it is dead at every start; until then its
    dead rows are stepped but masked out of the sums.

    As soon as step k's normals are taken, one worker thread starts step
    k+1's draw into the second of two flat buffers of d*n values, while
    this thread runs step k's update and kill test and step k+1's f.  The
    draw fills d*m' values, m' being the live-column count before step k's
    kill test; step k+1 views them as (d, m') and uses the first m <= m'
    columns.  The generator and the draw's scratch are only ever used on
    the worker, f and the level function only on this thread.  The
    ``with`` block joins the worker on return and on error.

    Returns the per-path estimates, shape (v, n_paths), the number of steps
    run, the number of paths alive at some start after each tenth of
    ``est.n_steps`` (11 counts, from step 0), and the number of normals the
    state updates consumed.
    """
    v, d = starts.shape
    n = est.n_paths
    n_steps = est.n_steps
    rng = np.random.default_rng(est.seed)
    states = np.repeat(starts.T[:, :, None], n, axis=2)  # (d, v, m), m live columns
    totals = np.zeros((v, n))  # per original path, written on death/cap
    acc = np.zeros((v, n))
    path_id = np.arange(n)
    alive = np.ones((v, n), dtype=bool)
    noise = (np.empty(d * n), np.empty(d * n))
    half = n * d - n * d // 2
    scratch = (np.empty(half), np.empty(half, dtype=np.float32))
    sqrt_step = math.sqrt(2.0 * est.dt)
    decay = 1.0 - est.dt
    steps_used = 0
    normals = 0
    marks = [i * n_steps // 10 for i in range(11)]  # steps run at each tenth
    live_paths = [n] * marks.count(0)
    with ThreadPoolExecutor(1, thread_name_prefix="oucontract-normals") as pool:
        draw = pool.submit(_normals, rng, noise[0], scratch)
        for k in range(n_steps):
            steps_used = k + 1
            m = states.shape[2]
            # (v*m, d) view with contiguous columns; states stays
            # C-contiguous, so the view also sees the in-place step below
            points = states.reshape(d, v * m).T
            # trapezoid rule in the discounted integrand: half weight at k = 0
            w = math.exp(-k * est.dt / est.sigma)
            if k == 0:
                w *= 0.5
            # f may return a view into the state buffer: fv * alive is a
            # fresh array, so it is scaled in place; a live path's term is
            # w * fv to the bit, a dead one's is 0
            fv = np.asarray(f(points), dtype=float).reshape(v, m) * alive
            fv *= w
            acc += fv
            buf = draw.result().reshape(d, -1)[:, :m]
            draw = pool.submit(_normals, rng, noise[(k + 1) % 2][:d * m], scratch)
            states *= decay
            buf *= sqrt_step
            states += buf[:, None, :]
            normals += buf.size
            n_live = m
            if est.domain is not None:
                inside = np.asarray(est.domain.value(points)) < 0.0
                alive &= inside.reshape(v, m)
                n_alive = int(np.count_nonzero(alive))
                if n_alive == 0:
                    break
                if n_alive < alive.size:
                    live = alive.any(axis=0)
                    n_live = int(np.count_nonzero(live))
                    if m - n_live > m // 8:
                        dead = ~live
                        totals[:, path_id[dead]] = acc[:, dead]
                        states = np.ascontiguousarray(states[:, :, live])
                        acc = acc[:, live]
                        path_id = path_id[live]
                        alive = alive[:, live]
            live_paths += [n_live] * marks.count(k + 1)
        draw.result()  # the last lookahead draw is unused; surface its errors
    if path_id.size:
        totals[:, path_id] = acc
    live_paths += [0] * (11 - len(live_paths))  # all dead after a break
    return totals * (est.dt / est.sigma), steps_used, live_paths, normals


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
