import itertools
import math
import sys
import threading

import numpy as np
import pytest

from oucontract import feynman_kac
from oucontract.contract import BumpFunction
from oucontract.domains import ball, halfspace
from oucontract.feynman_kac import KilledPathEstimator, mc_gradient_probe, mc_resolvent


def ones(p):
    return np.ones(p.shape[0])


def paths_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("oucontract-paths")]


def normals(rng, shape, var=1.0):
    # one block through the kernel's draw, with scratch of its own size
    out = np.empty(shape)
    half = out.size - out.size // 2
    return feynman_kac._normals(rng, out, (np.empty(half), np.empty(half, dtype=np.float32)),
                                var)


def batch_sizes(f, sizes):
    # records the batch size of every call; each death shrinks it
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


def child_rng(est, b):
    return np.random.default_rng(np.random.SeedSequence(est.seed).spawn(2)[b])


def block_columns(est, b):
    half = est.n_paths // 2
    return slice(0, half) if b == 0 else slice(half, est.n_paths)


def block_reference(est, f, starts, b):
    # block b of the kernel as a plain loop on one thread over child stream b,
    # in a C-ordered (v, m, d) state: each step draws a (d, m) block of
    # N(0, 2 dt) normals for the m live columns and adds its transpose, and
    # f sees C-ordered rows of all starts at once; after the kill test each column
    # dead at every start, first to last, takes the place of the last column
    # (tested again in its new place)
    v, d = starts.shape
    rng = child_rng(est, b)
    cols = block_columns(est, b)
    size = cols.stop - cols.start
    x = np.repeat(starts[:, None, :], size, axis=1)
    acc = np.zeros((v, size))
    totals = np.zeros((v, size))
    ids = list(range(size))
    alive = np.ones((v, size), dtype=bool)
    steps = 0
    for k in range(est.n_steps):
        m = len(ids)
        if m == 0:
            break
        steps = k + 1
        w = math.exp(-k * est.dt / est.sigma) * (0.5 if k == 0 else 1.0)
        acc += w * (f(x.reshape(v * m, d)).reshape(v, m) * alive)
        noise = normals(rng, (d, m), 2.0 * est.dt).T
        x = x * (1.0 - est.dt) + noise[None, :, :]
        if est.domain is None:
            continue
        alive &= est.domain.value(x.reshape(v * m, d)).reshape(v, m) < 0.0
        dead = (~alive.any(axis=0)).tolist()
        for j in np.flatnonzero(dead):
            while j < len(ids) and dead[j]:
                totals[:, ids[j]] = acc[:, j]
                last = len(ids) - 1
                x[:, j], acc[:, j], alive[:, j] = x[:, last], acc[:, last], alive[:, last]
                ids[j], dead[j] = ids[last], dead[last]
                x, acc, alive = x[:, :last], acc[:, :last], alive[:, :last]
                ids.pop()
                dead.pop()
    totals[:, ids] = acc
    return totals * (est.dt / est.sigma), steps


def ball_case():
    est = KilledPathEstimator(ball(2, 1.5), sigma=0.5, dt=5e-3, n_paths=20_000, seed=53)
    return est, BumpFunction(np.array([0.3, -0.2]), 1.0), np.array([[0.4, 0.3]])


def check_blocks_match_references(est, f, starts):
    per_path, steps, _, _ = feynman_kac._killed_paths(est, f, starts)
    ref_steps = []
    for b in (0, 1):
        ref, used = block_reference(est, f, starts, b)
        assert np.array_equal(per_path[:, block_columns(est, b)], ref)
        ref_steps.append(used)
    assert steps == max(ref_steps)
    return per_path


class TestPathBlocks:
    # two fixed path blocks, each with its own child generator, buffers and
    # thread; each must equal a one-thread loop over its own stream, bit for
    # bit, however the threads interleave
    def test_each_block_matches_a_one_thread_loop(self):
        sizes = []
        est, bump, starts = ball_case()
        mc = mc_resolvent(est, batch_sizes(bump, sizes), starts[0])
        assert len(set(sizes)) > 3  # columns died and were swapped out
        per_path = check_blocks_match_references(est, bump, starts)[0]
        assert mc.value == np.mean(per_path)
        assert mc.stderr == np.std(per_path, ddof=1) / math.sqrt(est.n_paths)
        # each step draws d normals per live column; f saw v = 1 start each
        assert mc.normals == 2 * sum(sizes)

    def test_blocks_run_one_after_another_give_the_same_bits(self):
        est, bump, starts = ball_case()
        per_path, steps, live, drawn = feynman_kac._killed_paths(est, bump, starts)
        blocks = [feynman_kac._path_block(est, bump, starts, child_rng(est, b), size,
                                          threading.Event())
                  for b, size in ((0, 10_000), (1, 10_000))]
        scale = est.dt / est.sigma
        assert np.array_equal(per_path, np.concatenate([blk[0] for blk in blocks], axis=1) * scale)
        assert steps == max(blk[1] for blk in blocks)
        assert live == [a + b for a, b in zip(blocks[0][2], blocks[1][2])]
        assert drawn == blocks[0][3] + blocks[1][3]

    def test_same_bits_under_frequent_thread_switches(self):
        # the interpreter hands the lock between threads every 10 us, so a
        # buffer or generator shared between the blocks shows in the bits
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            check_blocks_match_references(*ball_case())
        finally:
            sys.setswitchinterval(interval)

    def test_multi_start_blocks_match_one_thread_loops(self):
        sizes = []
        est = KilledPathEstimator(halfspace(2, 1.0), sigma=0.5, dt=5e-3,
                                  n_paths=20_000, seed=59)
        bump = BumpFunction(np.array([-2.0, 0.0]), 1.0)
        x0, h = np.array([-1.6, 0.2]), 0.05
        g = mc_gradient_probe(est, batch_sizes(bump, sizes), x0, h)
        assert sizes[0] == 10_000  # one start of one block per call
        assert len(set(sizes)) > 3
        starts = np.array([x0 + [h, 0], x0 - [h, 0], x0 + [0, h], x0 - [0, h]])
        values = check_blocks_match_references(est, bump, starts).mean(axis=1)
        assert np.array_equal(g, (values[0::2] - values[1::2]) / (2.0 * h))

    def test_f_sees_chunks_of_live_columns(self):
        sizes = []
        est = KilledPathEstimator(None, sigma=0.1, dt=0.05, n_paths=4 * feynman_kac._CHUNK + 6,
                                  seed=4)
        mc = mc_resolvent(est, batch_sizes(ones, sizes), np.array([0.3]))
        assert max(sizes) == feynman_kac._CHUNK
        assert sum(sizes) == est.n_paths * est.n_steps == mc.normals

    def test_error_in_f_stops_the_other_block_and_no_thread_is_left(self):
        calls = itertools.count(1)
        threads = []

        def failing(p):
            threads.append(len(paths_threads()))
            if next(calls) == 50:
                raise ValueError("f failed at call 50")
            return np.ones(p.shape[0])

        est = KilledPathEstimator(halfspace(1, 1.0), sigma=0.5, dt=1e-2,
                                  n_paths=2000, seed=3)
        with pytest.raises(ValueError, match="call 50"):
            mc_resolvent(est, failing, np.array([-2.0]))
        assert max(threads) == 2  # both blocks were running
        # each block calls f once a step for its n_steps steps; the other
        # block stops at its next step
        assert 50 <= len(threads) <= 52 < est.n_steps
        assert paths_threads() == []
        mc_resolvent(est, ones, np.array([-2.0]))
        assert paths_threads() == []

    def test_live_paths_start_full_and_never_grow(self):
        # in the ball of radius 1 a path outlives the cap with probability
        # far below 1/n_paths, so the run stops early
        est = KilledPathEstimator(ball(2, 1.0), sigma=0.5, dt=2e-3,
                                  n_paths=20_000, seed=53)
        mc = mc_resolvent(est, ones, np.array([0.4, 0.3]))
        live = mc.live_paths
        assert len(live) == 11
        assert live[0] == est.n_paths
        assert all(b <= a for a, b in zip(live, live[1:]))
        assert 0 < live[1] < est.n_paths
        assert mc.n_steps_used < est.n_steps and live[-1] == 0

    def test_live_paths_stay_full_on_whole_space(self, free_estimator):
        mc = mc_resolvent(free_estimator, ones, np.array([0.3]))
        assert mc.live_paths == [free_estimator.n_paths] * 11

    def test_normals_count_every_path_step_on_whole_space(self):
        est = KilledPathEstimator(None, sigma=0.2, dt=1e-2, n_paths=301, seed=2)
        mc = mc_resolvent(est, ones, np.array([0.3, -0.1]))
        assert mc.normals == est.n_paths * 2 * est.n_steps

    def test_single_path_leaves_the_first_block_empty(self):
        est = KilledPathEstimator(halfspace(1, 1.0), sigma=0.5, dt=1e-2, n_paths=1, seed=8)
        mc = mc_resolvent(est, ones, np.array([-2.0]))
        ref, steps = block_reference(est, ones, np.array([[-2.0]]), 1)
        assert mc.value == ref[0, 0] and mc.n_steps_used == steps


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
        assert feynman_kac._normals(np.random.default_rng(1), out, scratch, 1.0) is out
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
        # an anisotropic f on the whole space against plain C-ordered (n, d)
        # Euler loops, one per block over its child stream, that draw (d, n)
        # blocks and add their transpose: the kernel's state layout must not
        # change a single bit
        def f(p):
            return p[:, 1] + 2.0 * p[:, 0] ** 2

        est = KilledPathEstimator(None, sigma=0.5, dt=5e-3, n_paths=3001, seed=19)
        x0 = np.array([0.3, -0.6])
        mc = mc_resolvent(est, f, x0)
        per_path = []
        for b in (0, 1):
            rng = child_rng(est, b)
            cols = block_columns(est, b)
            x = np.repeat(x0[None, :], cols.stop - cols.start, axis=0)
            acc = np.zeros(len(x))
            for k in range(est.n_steps):
                w = math.exp(-k * est.dt / est.sigma) * (0.5 if k == 0 else 1.0)
                acc += w * f(x)
                noise = normals(rng, (2, len(x)), 2.0 * est.dt).T
                x = x * (1.0 - est.dt) + noise
            per_path.append(acc * (est.dt / est.sigma))
        per_path = np.concatenate(per_path)
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
        # almost every path dies within a few steps: exercises the column
        # swaps under heavy attrition
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
        # even f and symmetric start: the Euler chain is symmetric in law for
        # any dt, so the derivative in x1 has mean 0; with 81k paths its
        # standard error is 1.66e-3, so the bound is 3 SE
        est = KilledPathEstimator(None, sigma=1.0, dt=1e-2, n_paths=81_000, seed=14)
        g = mc_gradient_probe(est, lambda p: p[:, 0] ** 2, np.array([0.0]), 0.05)
        assert abs(g[0]) <= 5e-3

    def test_swaps_keep_paired_starts_identical(self):
        # f and the kill see only x1, so the +-e2 starts share every kill
        # and every f value; several start rows per path column exercise
        # the column swaps with v > 1
        est = KilledPathEstimator(halfspace(2, 1.0), sigma=0.5, dt=2e-3,
                                  n_paths=5000, seed=41)
        g = mc_gradient_probe(est, lambda p: np.exp(-(p[:, 0] + 2.0) ** 2),
                              np.array([-1.3, 0.2]), 0.05)
        assert g[1] == 0.0

    def test_swaps_keep_paired_starts_identical_second_axis(self):
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
