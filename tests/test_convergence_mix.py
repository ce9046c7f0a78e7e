"""The convergence harness as the server holds clients: one (N, dim) model
stack, one stacked gradient per local step and one `aggregation.mix` per
round. Its gaps must be the bytes of the per-client harness it replaced
(`oracles.run_fedavg_convergence`), and it refuses settings it cannot run."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.convergence
import oracles
from fedsim.convergence import make_problem, run_fedavg_convergence, verify_simplex
from fedsim.errors import ConfigError


@st.composite
def harness_runs(draw):
    problem = make_problem(draw(st.integers(1, 6)), draw(st.integers(2, 7)),
                           seed=draw(st.integers(0, 2**16)),
                           heterogeneity=draw(st.floats(0.0, 2.0)))
    kw = dict(rounds=draw(st.integers(1, 6)), local_steps=draw(st.integers(1, 3)),
              lr_scale=draw(st.floats(0.01, 1.0)), lr_offset=draw(st.floats(1.0, 5.0)),
              noise=draw(st.sampled_from([0.0, 0.3])), seed=draw(st.integers(0, 99)),
              replicates=draw(st.integers(1, 2)))
    if draw(st.booleans()):
        kw["w0"] = np.random.default_rng(kw["seed"]).standard_normal(problem.dim)
    return problem, kw


@given(harness_runs())
@settings(max_examples=60, deadline=None)
def test_gaps_match_per_client_harness_bytes(run):
    problem, kw = run
    trace = run_fedavg_convergence(problem, **kw)
    mean_gap, std_gap = oracles.run_fedavg_convergence(problem, **kw)
    assert trace.mean_gap.tobytes() == mean_gap.tobytes()
    assert trace.std_gap.tobytes() == std_gap.tobytes()


def test_stacked_gradients_match_per_client_bytes():
    rng = np.random.default_rng(0)
    for seed in range(20):
        problem = make_problem(5, int(rng.integers(1, 8)), seed=seed)
        models = rng.standard_normal((5, problem.dim))
        got = problem.client_grads(models)
        for k in range(5):
            assert got[k].tobytes() == oracles.client_grad(problem, k, models[k]).tobytes()


def test_harness_averages_through_mix(monkeypatch):
    calls = []
    real = fedsim.convergence.mix

    def spy(params, weights, gamma):
        calls.append((params.shape, weights.copy(), gamma))
        return real(params, weights, gamma)

    monkeypatch.setattr(fedsim.convergence, "mix", spy)
    problem = make_problem(3, 4, seed=1)
    run_fedavg_convergence(problem, rounds=4, local_steps=2, lr_scale=0.5,
                           lr_offset=2.0, noise=0.0, seed=0)
    assert len(calls) == 4
    for shape, weights, gamma in calls:
        assert shape == (3, 4) and gamma == 1.0
        assert np.array_equal(weights, np.tile(problem.weights, (3, 1)))


def test_simplex_check_reads_mix(monkeypatch):
    real = fedsim.convergence.mix
    monkeypatch.setattr(fedsim.convergence, "mix",
                        lambda params, weights, gamma: 1.01 * real(params, weights, gamma))
    violations, worst = verify_simplex(50, seed=0)
    assert violations == 50 and worst == pytest.approx(0.01)


KW = dict(rounds=2, local_steps=1, lr_scale=0.5, lr_offset=2.0, noise=0.0, seed=0)


@pytest.mark.parametrize("override", [
    {"replicates": 0}, {"lr_offset": 0.0}, {"lr_offset": -1.0}, {"lr_scale": -0.1},
    {"lr_offset": float("nan")}])
def test_bad_harness_settings_rejected(override):
    with pytest.raises(ConfigError):
        run_fedavg_convergence(make_problem(2, 3, seed=0), **{**KW, **override})


@pytest.mark.parametrize("eig_range", [(-1.0, 2.0), (0.0, 1.0), (2.0, 1.0)])
def test_bad_eig_range_rejected(eig_range):
    with pytest.raises(ConfigError, match="eig_range"):
        make_problem(2, 3, seed=0, eig_range=eig_range)


def test_equal_eig_bounds_allowed():
    problem = make_problem(2, 3, seed=0, eig_range=(1.0, 1.0))
    assert problem.condition_number == pytest.approx(1.0)
