"""Tests for the convergence harness: quadratic problems with closed-form
optima, federated averaging behavior, and the weight-simplex check."""

import numpy as np
import pytest

from fedsim.convergence import make_problem, run_fedavg_convergence, verify_simplex
from fedsim.errors import ConfigError, DomainError
from oracles import centralized_grad


class TestMakeProblem:
    def test_identity_mats_common_target_has_zero_optimum(self):
        p = make_problem(3, 4, seed=0, heterogeneity=0.0)
        # replace with identical quadratics: optimum is the shared target
        b = np.array([1.0, -2.0, 0.5, 3.0])
        p.mats[:] = np.eye(4)
        p.targets[:] = b
        lhs = np.einsum("k,kij->ij", p.weights, p.mats)
        rhs = np.einsum("k,kij,kj->i", p.weights, p.mats, p.targets)
        w_star = np.linalg.solve(lhs, rhs)
        np.testing.assert_allclose(w_star, b, atol=1e-12)

    def test_scalar_case_closed_form(self):
        # two clients, A = [2] and [2], b = 1 and 5 -> w* = 3, F* = 1/2*2*4 = 4
        p = make_problem(2, 1, seed=1)
        p.mats[:] = 2.0
        p.targets[0, 0], p.targets[1, 0] = 1.0, 5.0
        assert p.value(np.array([3.0])) == pytest.approx(
            0.5 * (0.5 * 2 * 4 + 0.5 * 2 * 4) * 2 / 2)
        # gradient vanishes at the average target
        np.testing.assert_allclose(centralized_grad(p, np.array([3.0])), [0.0],
                                   atol=1e-12)

    def test_optimum_matches_normal_equations_oracle(self):
        for seed in range(10):
            p = make_problem(4, 6, seed=seed, heterogeneity=2.0)
            # oracle: brute-force average Hessian and solve
            avg_a = sum(w * a for w, a in zip(p.weights, p.mats))
            avg_ab = sum(w * a @ b for w, a, b in
                         zip(p.weights, p.mats, p.targets))
            np.testing.assert_allclose(p.w_star, np.linalg.solve(avg_a, avg_ab),
                                       atol=1e-9)
            np.testing.assert_allclose(centralized_grad(p, p.w_star), np.zeros(6),
                                       atol=1e-9)
            # f_star is the global minimum: random points are no better
            rng = np.random.default_rng(seed)
            for _ in range(20):
                w = p.w_star + rng.standard_normal(6)
                assert p.value(w) >= p.f_star - 1e-12

    def test_constants_bound_spectrum(self):
        p = make_problem(3, 5, seed=2, eig_range=(0.5, 2.0))
        assert 0.5 - 1e-9 <= p.strong_convexity <= p.smoothness <= 2.0 + 1e-9
        assert p.condition_number == pytest.approx(
            p.smoothness / p.strong_convexity)

    def test_mats_symmetric_positive_definite(self):
        p = make_problem(5, 4, seed=3)
        for m in p.mats:
            np.testing.assert_array_equal(m, m.T)
            assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            make_problem(0, 3, seed=0)
        with pytest.raises(ConfigError):
            make_problem(2, 0, seed=0)


class TestRunFedavgConvergence:
    def test_noise_free_single_local_step_equals_centralized_gd(self):
        # with E = 1 the averaged update is exactly gradient descent on the
        # weighted objective
        p = make_problem(3, 4, seed=4, heterogeneity=1.5)
        trace = run_fedavg_convergence(p, rounds=20, local_steps=1,
                                       lr_scale=0.5, lr_offset=2.0,
                                       noise=0.0, seed=0)
        w = np.zeros(4)
        expected = [p.value(w) - p.f_star]
        for t in range(20):
            w = w - (0.5 / (t + 2.0)) * centralized_grad(p, w)
            expected.append(p.value(w) - p.f_star)
        np.testing.assert_allclose(trace.mean_gap, expected, atol=1e-10)

    def test_start_at_optimum_stays_there_noise_free(self):
        p = make_problem(2, 3, seed=5, heterogeneity=0.0)
        # zero heterogeneity: all targets equal, local steps cannot drift
        trace = run_fedavg_convergence(p, rounds=10, local_steps=5,
                                       lr_scale=0.2, lr_offset=1.0, noise=0.0,
                                       seed=0, w0=p.w_star.copy())
        np.testing.assert_allclose(trace.mean_gap, np.zeros(11), atol=1e-20)

    def test_gap_decreases_monotonically_noise_free(self):
        # homogeneous targets: no client-drift bias, so the gap keeps falling
        p = make_problem(3, 4, seed=6, heterogeneity=0.0)
        trace = run_fedavg_convergence(p, rounds=60, local_steps=3,
                                       lr_scale=1.0, lr_offset=2.0,
                                       noise=0.0, seed=0)
        assert np.all(np.diff(trace.mean_gap) <= 1e-12)
        assert trace.mean_gap[-1] < 1e-3 * trace.mean_gap[0]

    def test_decaying_steps_shrink_noisy_gap(self):
        # averaged over replicates, the gap at round 200 is well below the
        # gap at round 50 under decaying step sizes
        p = make_problem(4, 4, seed=7, heterogeneity=1.0)
        trace = run_fedavg_convergence(p, rounds=200, local_steps=2,
                                       lr_scale=0.5, lr_offset=4.0,
                                       noise=0.5, seed=11, replicates=30)
        assert trace.mean_gap[200] <= 0.5 * trace.mean_gap[50]

    def test_replicate_seeds_differ_but_run_is_deterministic(self):
        p = make_problem(2, 3, seed=8)
        kw = dict(rounds=5, local_steps=2, lr_scale=0.3, lr_offset=2.0,
                  noise=0.3, seed=4, replicates=3)
        a = run_fedavg_convergence(p, **kw)
        b = run_fedavg_convergence(p, **kw)
        np.testing.assert_array_equal(a.mean_gap, b.mean_gap)
        assert np.any(a.std_gap[1:] > 0)  # replicates actually differ

    def test_divergent_step_size_raises(self):
        p = make_problem(2, 3, seed=9)
        with pytest.raises(DomainError):
            run_fedavg_convergence(p, rounds=200, local_steps=5,
                                   lr_scale=500.0, lr_offset=1.0,
                                   noise=0.0, seed=0)

    def test_bad_sizes_rejected(self):
        p = make_problem(2, 2, seed=10)
        with pytest.raises(ConfigError):
            run_fedavg_convergence(p, rounds=0, local_steps=1,
                                   lr_scale=0.1, lr_offset=1.0, noise=0.0,
                                   seed=0)


class TestVerifySimplex:
    def test_ten_thousand_samples_zero_violations(self):
        violations, worst = verify_simplex(10_000, seed=0)
        assert violations == 0
        assert worst < 1e-12

    def test_deterministic(self):
        assert verify_simplex(500, seed=3) == verify_simplex(500, seed=3)
