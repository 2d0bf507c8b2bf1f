import math
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from oucontract import feynman_kac
from oucontract.contract import BumpFunction
from oucontract.domains import ball, halfspace
from oucontract.feynman_kac import KilledPathEstimator, mc_gradient_probe, mc_resolvent


def ones(p):
    return np.ones(p.shape[0])


def normals_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("oucontract-normals")]


def normals(rng, shape):
    # one block through the kernel's draw, with scratch of its own size
    out = np.empty(shape)
    half = out.size - out.size // 2
    return feynman_kac._normals(rng, out, (np.empty(half), np.empty(half, dtype=np.float32)))


def batch_sizes(f, sizes):
    # records the batch size of every call; each compaction shrinks it
    def counted(p):
        sizes.append(len(p))
        return f(p)
    return counted


@pytest.fixture(scope="module")
def free_estimator():
    # whole space, modest budget: unit tests trade precision for speed
    return KilledPathEstimator(None, sigma=1.0, dt=2e-3, n_paths=2000, seed=5)


class TestEstimatorContract:
    def test_default_cap_meets_budget(self):
        est = KilledPathEstimator(None, sigma=0.3)
        assert np.exp(-est.t_max / est.sigma) <= 1e-6 * (1 + 1e-9)

    def test_interior_precondition(self):
        est = KilledPathEstimator(halfspace(1, 1.0), sigma=1.0, n_paths=10)
        with pytest.raises(ValueError, match="not interior"):
            mc_resolvent(est, ones, np.array([0.0]))

    @pytest.mark.parametrize("start", [[-3.0], [-3.0, 0.0, 0.0]])
    def test_start_point_of_another_dim(self, start):
        est = KilledPathEstimator(halfspace(2, 1.0), sigma=1.0, n_paths=10)
        with pytest.raises(ValueError, match="'dim' is 2"):
            mc_resolvent(est, ones, np.array(start))
        with pytest.raises(ValueError, match="'dim' is 2"):
            mc_gradient_probe(est, ones, np.array(start), 0.05)

    def test_reproducible(self):
        est = KilledPathEstimator(halfspace(1, 1.0), sigma=0.5, dt=5e-3,
                                  n_paths=500, seed=77)
        a = mc_resolvent(est, ones, np.array([-2.0]))
        b = mc_resolvent(est, ones, np.array([-2.0]))
        assert a.value == b.value
        assert a.stderr == b.stderr


class SynchronousExecutor:
    """Stand-in for ThreadPoolExecutor: each call runs when it is submitted."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args, **kwargs):
        done = Future()
        done.set_result(fn(*args, **kwargs))
        return done


def sequential_killed_paths(est, f, starts):
    # the kernel's rule on one thread, in a C-ordered (v, m, d) state: one
    # (d, n) block is drawn before step 0, and after each step's update a
    # (d, m) block for the m columns live before that step's kill test; each
    # step takes the first m columns of its block, and the path columns dead
    # at every start are dropped once they are more than an eighth of them
    v, d = starts.shape
    n = est.n_paths
    rng = np.random.default_rng(est.seed)
    x = np.repeat(starts[:, None, :], n, axis=1)
    acc = np.zeros((v, n))
    totals = np.zeros((v, n))
    path_id = np.arange(n)
    alive = np.ones((v, n), dtype=bool)
    block = normals(rng, (d, n))
    for k in range(est.n_steps):
        m = x.shape[1]
        w = math.exp(-k * est.dt / est.sigma) * (0.5 if k == 0 else 1.0)
        acc += w * f(x.reshape(v * m, d)).reshape(v, m) * alive
        noise = block[:, :m].T * math.sqrt(2.0 * est.dt)
        x = x * (1.0 - est.dt) + noise[None, :, :]
        block = normals(rng, (d, m))
        alive &= est.domain.value(x.reshape(v * m, d)).reshape(v, m) < 0.0
        if not alive.any():
            break
        live = alive.any(axis=0)
        if m - np.count_nonzero(live) > m // 8:
            totals[:, path_id[~live]] = acc[:, ~live]
            x, acc = x[:, live], acc[:, live]
            path_id, alive = path_id[live], alive[:, live]
    totals[:, path_id] = acc
    return totals * (est.dt / est.sigma), k + 1


class TestLookaheadKernel:
    # the normals are drawn a step ahead on a worker thread, sized before
    # the kill test, and a compaction keeps a prefix of the block in flight;
    # the estimates must be those of the same draws in turn on one thread
    def check_compacting_ball(self):
        sizes = []
        est = KilledPathEstimator(ball(2, 1.5), sigma=0.5, dt=2e-3,
                                  n_paths=20_000, seed=53)
        bump = BumpFunction(np.array([0.3, -0.2]), 1.0)
        x0 = np.array([0.4, 0.3])
        mc = mc_resolvent(est, batch_sizes(bump, sizes), x0)
        assert len(set(sizes)) > 3  # at least three compactions
        per_path, steps = sequential_killed_paths(est, bump, x0[None, :])
        assert mc.value == np.mean(per_path[0])
        assert mc.stderr == np.std(per_path[0], ddof=1) / math.sqrt(est.n_paths)
        assert mc.n_steps_used == steps
        # each step's update consumes d normals per live column; f saw
        # v = 1 start per column, so the unused block tails are not counted
        assert mc.normals == 2 * sum(sizes)

    def test_compacting_ball_matches_sequential_draws(self):
        self.check_compacting_ball()

    def test_sequential_draws_under_frequent_thread_switches(self):
        # the interpreter hands the lock between threads every 10 us, so an
        # unsynchronised use of a buffer or of the generator shows in the bits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self.check_compacting_ball()
        finally:
            sys.setswitchinterval(interval)

    def test_synchronous_draws_give_the_same_bits(self, monkeypatch):
        # a worker that draws at once fills the lookahead block before
        # submit returns, an order the worker thread rarely shows
        monkeypatch.setattr(feynman_kac, "ThreadPoolExecutor", SynchronousExecutor)
        self.check_compacting_ball()

    def test_each_draw_is_sized_before_the_kill_test(self, monkeypatch):
        # the kernel reaches the generator only through _normals; draw k + 1
        # is sized by the columns live before step k's kill test
        draws = []
        draw = feynman_kac._normals

        def recorded(rng, out, scratch):
            draws.append((rng, out.size))
            return draw(rng, out, scratch)

        monkeypatch.setattr(feynman_kac, "_normals", recorded)
        sizes = []
        est = KilledPathEstimator(ball(2, 1.5), sigma=0.5, dt=2e-3,
                                  n_paths=20_000, seed=53)
        bump = BumpFunction(np.array([0.3, -0.2]), 1.0)
        mc = mc_resolvent(est, batch_sizes(bump, sizes), np.array([0.4, 0.3]))
        monkeypatch.undo()
        assert len(set(sizes)) > 3
        assert len(draws) == mc.n_steps_used + 1
        drawn = [size for _, size in draws]
        assert drawn == [2 * est.n_paths] + [2 * s for s in sizes]
        assert len({id(rng) for rng, _ in draws}) == 1
        rng = np.random.default_rng(est.seed)
        for size in drawn:
            normals(rng, (size,))
        assert draws[0][0].bit_generator.state == rng.bit_generator.state

    def test_compacting_gradient_probe_matches_sequential_draws(self):
        sizes = []
        est = KilledPathEstimator(halfspace(2, 1.0), sigma=0.5, dt=2e-3,
                                  n_paths=20_000, seed=59)
        bump = BumpFunction(np.array([-2.0, 0.0]), 1.0)
        x0, h = np.array([-1.6, 0.2]), 0.05
        g = mc_gradient_probe(est, batch_sizes(bump, sizes), x0, h)
        assert sizes[0] == 4 * 20_000  # v = 4 starts per path column
        assert len(set(sizes)) > 3
        starts = np.array([x0 + [h, 0], x0 - [h, 0], x0 + [0, h], x0 - [0, h]])
        values = sequential_killed_paths(est, bump, starts)[0].mean(axis=1)
        assert np.array_equal(g, (values[0::2] - values[1::2]) / (2.0 * h))

    def test_error_in_f_reaches_caller_and_no_thread_is_left(self):
        seen = []

        def failing(p):
            seen.append(len(normals_threads()))
            if len(seen) == 50:
                raise ValueError("f failed at step 50")
            return np.ones(p.shape[0])

        est = KilledPathEstimator(halfspace(1, 1.0), sigma=0.5, dt=1e-2,
                                  n_paths=2000, seed=3)
        with pytest.raises(ValueError, match="step 50"):
            mc_resolvent(est, failing, np.array([-2.0]))
        assert len(seen) == 50 and seen[-1] == 1  # the worker was running
        assert normals_threads() == []
        mc_resolvent(est, ones, np.array([-2.0]))
        assert normals_threads() == []

    def test_live_paths_start_full_and_never_grow(self):
        est = KilledPathEstimator(ball(2, 1.5), sigma=0.5, dt=2e-3,
                                  n_paths=20_000, seed=53)
        mc = mc_resolvent(est, ones, np.array([0.4, 0.3]))
        live = mc.live_paths
        assert len(live) == 11
        assert live[0] == est.n_paths
        assert all(b <= a for a, b in zip(live, live[1:]))
        assert 0 < live[1] < est.n_paths
        # every path leaves the ball before the cap, so the run stops early
        assert mc.n_steps_used < est.n_steps and live[-1] == 0

    def test_live_paths_stay_full_on_whole_space(self, free_estimator):
        mc = mc_resolvent(free_estimator, ones, np.array([0.3]))
        assert mc.live_paths == [free_estimator.n_paths] * 11

    def test_normals_count_every_path_step_on_whole_space(self):
        est = KilledPathEstimator(None, sigma=0.2, dt=1e-2, n_paths=301, seed=2)
        mc = mc_resolvent(est, ones, np.array([0.3, -0.1]))
        assert mc.normals == est.n_paths * 2 * est.n_steps


class TestNormals:
    # the kernel's Box-Muller draw: its law, its fill and its replay
    def test_two_million_draws_match_the_standard_normal(self):
        n = 2_000_000
        z = normals(np.random.default_rng(2024), (n // 2, 2)).ravel()
        se = 1.0 / math.sqrt(n)
        assert abs(z.mean()) <= 5 * se
        # Var of the sample variance is 2/n for a normal law
        assert abs(z.var() - 1.0) <= 5 * math.sqrt(2.0) * se
        for t in (-3.0, -1.5, -0.5, 0.0, 0.7, 2.0):
            p = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
            assert abs(np.count_nonzero(z <= t) / n - p) <= 5 * math.sqrt(p * (1 - p)) * se
        # a radius of sqrt(-2 log 2^-53) bounds every value
        assert np.abs(z).max() <= math.sqrt(106 * math.log(2.0))

    def test_odd_block_fills_every_slot(self):
        out = np.full((7, 1), np.nan)
        scratch = (np.full(4, np.nan), np.full(4, np.nan, dtype=np.float32))
        assert feynman_kac._normals(np.random.default_rng(1), out, scratch) is out
        assert np.all(np.isfinite(out))

    def test_restored_state_draws_the_same_bits(self):
        rng = np.random.default_rng(11)
        normals(rng, (5, 1))  # an odd count of float32 angles leaves half a word
        state = rng.bit_generator.state
        first = normals(rng, (9, 2))
        after = rng.bit_generator.state
        rng.bit_generator.state = state
        assert np.array_equal(normals(rng, (9, 2)), first)
        assert rng.bit_generator.state == after


class TestResolventValues:
    def test_constant_function_whole_space(self, free_estimator):
        # sigma^-1 int_0^inf e^(-t/sigma) dt = 1, no killing
        mc = mc_resolvent(free_estimator, ones, np.array([0.3]))
        slack = 3 * mc.stderr + free_estimator.bias_budget(1.0)
        assert abs(mc.value - 1.0) <= slack

    def test_constant_function_huge_ball(self):
        est = KilledPathEstimator(ball(1, 50.0), sigma=0.2, dt=2e-3,
                                  n_paths=500, seed=9)
        mc = mc_resolvent(est, ones, np.array([0.0]))
        assert abs(mc.value - 1.0) <= 3 * mc.stderr + est.bias_budget(1.0)

    def test_linear_eigenfunction(self):
        # J_sigma x = x/(1+sigma) on the whole space
        est = KilledPathEstimator(None, sigma=1.0, dt=2e-3, n_paths=20_000, seed=6)
        mc = mc_resolvent(est, lambda p: p[:, 0], np.array([0.7]))
        assert abs(mc.value - 0.35) <= 3 * mc.stderr + est.bias_budget(0.7 + 5.0)

    def test_matches_plain_euler_loop_in_2d(self):
        # an anisotropic f on the whole space against a plain C-ordered
        # (n, d) Euler loop that draws (d, n) blocks and adds their
        # transpose: the kernel's state layout must not change a single bit
        def f(p):
            return p[:, 1] + 2.0 * p[:, 0] ** 2

        est = KilledPathEstimator(None, sigma=0.5, dt=5e-3, n_paths=3000, seed=19)
        x0 = np.array([0.3, -0.6])
        mc = mc_resolvent(est, f, x0)
        rng = np.random.default_rng(est.seed)
        x = np.repeat(x0[None, :], est.n_paths, axis=0)
        acc = np.zeros(est.n_paths)
        for k in range(est.n_steps):
            w = math.exp(-k * est.dt / est.sigma) * (0.5 if k == 0 else 1.0)
            acc += w * f(x)
            noise = normals(rng, (2, est.n_paths)).T
            x = x * (1.0 - est.dt) + noise * math.sqrt(2.0 * est.dt)
        per_path = acc * (est.dt / est.sigma)
        assert mc.value == np.mean(per_path)
        assert mc.stderr == np.std(per_path, ddof=1) / math.sqrt(est.n_paths)

    def test_positive_function_positive_estimate(self):
        dom = halfspace(1, 1.0)
        bump = BumpFunction(np.array([-3.0]), 1.0)
        est = KilledPathEstimator(dom, sigma=1.0, dt=2e-3, n_paths=5000, seed=3)
        mc = mc_resolvent(est, bump, np.array([-3.0]))
        assert mc.value >= -3 * mc.stderr

    def test_bounded_by_sup(self):
        dom = halfspace(1, 1.0)
        bump = BumpFunction(np.array([-3.0]), 1.0)
        est = KilledPathEstimator(dom, sigma=1.0, dt=2e-3, n_paths=5000, seed=4)
        mc = mc_resolvent(est, bump, np.array([-3.0]))
        assert mc.value <= 1.0 + 3 * mc.stderr

    def test_near_boundary_start_fast_killing(self):
        # almost every path dies within a few steps: exercises the buffer
        # compaction bookkeeping under heavy attrition
        dom = halfspace(1, 1.0)
        bump = BumpFunction(np.array([-3.0]), 1.0)
        est = KilledPathEstimator(dom, sigma=0.5, dt=2e-3, n_paths=4000, seed=31)
        mc = mc_resolvent(est, bump, np.array([-1.05]))
        assert 0.0 <= mc.value <= 0.05
        again = mc_resolvent(est, bump, np.array([-1.05]))
        assert again.value == mc.value

    def test_dt_stability(self):
        dom = halfspace(1, 1.0)
        bump = BumpFunction(np.array([-3.0]), 1.0)
        coarse = KilledPathEstimator(dom, sigma=0.5, dt=4e-3, n_paths=20_000, seed=12)
        fine = KilledPathEstimator(dom, sigma=0.5, dt=2e-3, n_paths=20_000, seed=13)
        a = mc_resolvent(coarse, bump, np.array([-3.0]))
        b = mc_resolvent(fine, bump, np.array([-3.0]))
        combined = np.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) <= 3 * combined + coarse.bias_budget(1.0)


class TestCrossOracle:
    def test_halfline_agrees_with_fd(self):
        # independent stochastic oracle vs the grid solver, loose budget
        from oucontract.grid import GaussianGrid, ScalarField
        from oucontract.solver import ResolventJob, solve_resolvent

        dom = halfspace(1, 1.0)
        bump = BumpFunction(np.array([-3.0]), 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.02)
        sol = solve_resolvent(
            ResolventJob(grid, 1.0, ScalarField.from_callable(grid, bump)), tol=1e-11
        )
        fd = float(grid.interpolator(sol.u.values)(np.array([[-3.0]]))[0])
        est = KilledPathEstimator(dom, sigma=1.0, dt=1e-3, n_paths=50_000, seed=21)
        mc = mc_resolvent(est, bump, np.array([-3.0]))
        assert abs(mc.value - fd) <= 3 * mc.stderr + est.bias_budget(1.0)


class TestGradientProbe:
    def test_zero_function(self, free_estimator):
        g = mc_gradient_probe(free_estimator, lambda p: np.zeros(p.shape[0]),
                              np.array([0.1]), 0.05)
        assert np.allclose(g, 0.0)

    def test_linear_function_derivative(self):
        # d/dx J_sigma x = 1/(1+sigma); common random numbers make the
        # difference nearly deterministic
        est = KilledPathEstimator(None, sigma=1.0, dt=2e-3, n_paths=5000, seed=8)
        g = mc_gradient_probe(est, lambda p: p[:, 0], np.array([0.4]), 0.05)
        assert abs(g[0] - 0.5) <= 5e-3

    def test_symmetry_gives_zero_component(self):
        # even f and symmetric start: derivative vanishes in x1
        est = KilledPathEstimator(None, sigma=1.0, dt=2e-3, n_paths=5000, seed=14)
        g = mc_gradient_probe(est, lambda p: p[:, 0] ** 2, np.array([0.0]), 0.05)
        assert abs(g[0]) <= 5e-3

    def test_compaction_keeps_paired_starts_identical(self):
        # f and the kill see only x1, so the +-e2 starts share every kill
        # and every f value; several start rows per path column exercise
        # the column compaction with v > 1
        est = KilledPathEstimator(halfspace(2, 1.0), sigma=0.5, dt=2e-3,
                                  n_paths=5000, seed=41)
        g = mc_gradient_probe(est, lambda p: np.exp(-(p[:, 0] + 2.0) ** 2),
                              np.array([-1.3, 0.2]), 0.05)
        assert g[1] == 0.0

    def test_compaction_keeps_paired_starts_identical_second_axis(self):
        # the mirror image: domain, f and kill read only x2, so the +-e1
        # starts must agree exactly; fails if the kernel mixes up the axes
        est = KilledPathEstimator(halfspace(2, 1.0, axis=1), sigma=0.5, dt=2e-3,
                                  n_paths=5000, seed=41)
        g = mc_gradient_probe(est, lambda p: np.exp(-(p[:, 1] + 2.0) ** 2),
                              np.array([0.2, -1.3]), 0.05)
        assert g[0] == 0.0

    def test_probe_requires_interior_points(self):
        dom = halfspace(1, 1.0)
        est = KilledPathEstimator(dom, sigma=1.0, n_paths=10)
        with pytest.raises(ValueError, match="not interior"):
            mc_gradient_probe(est, ones, np.array([-1.01]), 0.05)

    def test_killed_domain_probe_matches_fd_slope(self):
        from oucontract.grid import GaussianGrid, ScalarField, discrete_gradient
        from oucontract.solver import ResolventJob, solve_resolvent

        dom = halfspace(1, 1.0)
        bump = BumpFunction(np.array([-3.0]), 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.02)
        sol = solve_resolvent(
            ResolventJob(grid, 0.5, ScalarField.from_callable(grid, bump)), tol=1e-11
        )
        grad = discrete_gradient(sol.u)[..., 0]
        idx = int(np.argmin(np.abs(grid.axes[0] + 3.0)))
        est = KilledPathEstimator(dom, sigma=0.5, dt=2e-3, n_paths=30_000, seed=17)
        probe = mc_gradient_probe(est, bump, np.array([-3.0]), 0.05)
        # CRN differences are low variance; allow the fd-step and dt budget
        assert probe[0] == pytest.approx(grad[idx], abs=0.02)
