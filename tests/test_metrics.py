"""Tests for open-set verification scoring and the EER / TAR@FAR metrics."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fedsim.errors import DomainError
from fedsim.experiment import write_roc_csv
from fedsim.metrics import (MetricsRecord, ScoreSet, eer, operating_points,
                            pair_positions, score_pairs, tar_at_far, write_metrics_csv)


def brute_force_rates(scores, threshold):
    """Direct counting at one threshold (accept when score >= threshold)."""
    far = np.mean(scores.impostor >= threshold)
    frr = np.mean(scores.genuine < threshold)
    return far, frr


def brute_force_eer(scores):
    """Exhaustive sweep over all observed thresholds with the same
    interpolation rule, written as an independent straight-line loop."""
    thresholds = sorted(set(scores.genuine.tolist() + scores.impostor.tolist()))
    points = []
    for t in thresholds:
        points.append(brute_force_rates(scores, t))
    points.append((0.0, 1.0))  # above every score
    prev = None
    for k, (far, frr) in enumerate(points):
        if far - frr <= 0:
            if k == 0:
                return 0.5 * (far + frr)
            far0, frr0 = prev
            d0, d1 = far0 - frr0, far - frr
            alpha = 0.0 if d0 == d1 else d0 / (d0 - d1)
            return ((1 - alpha) * 0.5 * (far0 + frr0)
                    + alpha * 0.5 * (far + frr))
        prev = (far, frr)
    raise AssertionError("no crossing found")


def double_loop_pairs(embeddings, labels, cap, seed):
    """Genuine and impostor scores in i < j double-loop order, impostors
    subsampled past `cap` with the seed and rule that `score_pairs` uses."""
    unit = embeddings / np.linalg.norm(embeddings, axis=1)[:, None]
    sims = unit @ unit.T
    genuine, impostor = [], []
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            (genuine if labels[i] == labels[j] else impostor).append(sims[i, j])
    impostor = np.array(impostor)
    if impostor.size > cap:
        idx = np.random.default_rng(seed).choice(impostor.size, size=cap, replace=False)
        impostor = impostor[np.sort(idx)]
    return np.array(genuine), impostor


def brute_force_tar(scores, target):
    thresholds = sorted(set(scores.genuine.tolist() + scores.impostor.tolist()))
    for t in thresholds:
        far, frr = brute_force_rates(scores, t)
        if far <= target:
            return 1.0 - frr
    return 0.0


class TestScorePairs:
    def test_two_by_two_pair_counts(self):
        emb = np.array([[1.0, 0], [0.9, 0.1], [0, 1.0], [0.1, 0.9]])
        labels = [0, 0, 1, 1]
        s = score_pairs(emb, labels)
        assert s.genuine.size == 2 and s.impostor.size == 4

    def test_identical_embeddings_score_one(self):
        emb = np.tile([1.0, 2.0], (4, 1))
        s = score_pairs(emb, [0, 0, 1, 1])
        np.testing.assert_allclose(s.genuine, 1.0)
        np.testing.assert_allclose(s.impostor, 1.0)

    def test_five_by_three_combinatorics(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((15, 4))
        labels = np.repeat(np.arange(5), 3)
        s = score_pairs(emb, labels)
        assert s.genuine.size == 5 * 3  # 5 * C(3,2)
        assert s.impostor.size == 15 * 14 // 2 - 15

    @staticmethod
    def assert_every_scorer_refuses(emb, labels, message):
        for score in (lambda: score_pairs(emb, labels), lambda: pair_positions(labels),
                      lambda: oracles.score_pairs(emb, labels)):
            with pytest.raises(DomainError) as info:
                score()
            assert str(info.value) == message

    def test_no_genuine_pairs_raises(self):
        emb = np.random.default_rng(1).standard_normal((3, 2))
        self.assert_every_scorer_refuses(
            emb, [0, 1, 2], "no genuine pairs: need an identity with >= 2 samples")

    def test_single_identity_raises(self):
        emb = np.random.default_rng(2).standard_normal((3, 2))
        self.assert_every_scorer_refuses(
            emb, [0, 0, 0], "no impostor pairs: need >= 2 identities")

    def test_impostor_cap_subsampling_deterministic(self):
        rng = np.random.default_rng(3)
        emb = rng.standard_normal((40, 3))
        labels = np.repeat(np.arange(20), 2)
        a = score_pairs(emb, labels, cap=100, seed=9)
        b = score_pairs(emb, labels, cap=100, seed=9)
        assert a.impostor.size == 100
        np.testing.assert_array_equal(a.impostor, b.impostor)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.integers(1, 6),
           st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_pair_order_matches_double_loop(self, seed, n, n_ids, cap):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((n, 3))
        labels = rng.integers(0, n_ids, n)
        genuine, impostor = double_loop_pairs(emb, labels, cap, seed)
        if genuine.size == 0 or impostor.size == 0:
            with pytest.raises(DomainError):
                score_pairs(emb, labels, cap=cap, seed=seed)
            return
        s = score_pairs(emb, labels, cap=cap, seed=seed)
        assert np.array_equal(s.genuine, genuine)
        assert np.array_equal(s.impostor, impostor)

    def test_scores_are_cosines(self):
        emb = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0], [5.0, 0.0]])
        labels = [0, 1, 0, 1]
        s = score_pairs(emb, labels)
        # genuine: (0,2) and (1,3); cos((2,0),(1,1)) = 1/sqrt(2)
        assert np.any(np.isclose(s.genuine, 1.0 / np.sqrt(2.0)))


def score_outcome(score):
    """The bytes of both score arrays, or the DomainError message."""
    try:
        s = score()
    except DomainError as exc:
        return str(exc)
    return s.genuine.tobytes(), s.impostor.tobytes()


class TestScorePairsOracle:
    """`score_pairs` against the reference that finds every mask anew."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(1, 6),
           st.integers(1, 4), st.integers(-3, 3), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_oracle(self, seed, n, n_ids, dim, cap_offset, precomputed):
        rng = np.random.default_rng(seed)
        emb = rng.standard_normal((n, dim))
        labels = rng.integers(0, n_ids, n)
        counts = np.bincount(labels)
        impostors = n * (n - 1) // 2 - int((counts * (counts - 1) // 2).sum())
        cap = max(1, impostors + cap_offset)   # both sides of the cap
        expected = score_outcome(lambda: oracles.score_pairs(emb, labels, cap, seed))
        if precomputed:
            try:
                positions = pair_positions(labels, cap, seed)
            except DomainError as exc:
                assert str(exc) == expected
                return
            assert positions[0].dtype == positions[1].dtype == np.int32
            got = score_outcome(lambda: score_pairs(emb, labels, cap, seed,
                                                    positions=positions))
        else:
            got = score_outcome(lambda: score_pairs(emb, labels, cap, seed))
        assert got == expected

    def test_zero_norm_message_comes_first(self):
        emb = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        for labels in ([0, 0, 1], [0, 1, 2]):   # with and without genuine pairs
            for score in (score_pairs, oracles.score_pairs):
                with pytest.raises(DomainError) as info:
                    score(emb, labels)
                assert str(info.value) == "zero-norm embedding cannot be scored"


# Scores of a (257, 16) input, a shape where OpenBLAS sums `unit @ unit.T`
# in another order with two threads than with one.
THREADED_SCORES = """
import hashlib
import numpy as np
from fedsim.metrics import score_pairs
rng = np.random.default_rng(0)
s = score_pairs(rng.standard_normal((257, 16)), np.arange(257) % 8)
print(hashlib.sha256(s.genuine.tobytes() + s.impostor.tobytes()).hexdigest())
"""


def usable_cpus():
    """CPUs this process may run on; they bound the BLAS thread count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(usable_cpus() < 2,
                    reason="one core: the BLAS runs one thread either way")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 4: the similarity matrix goes through a threaded BLAS "
    "whose summation order depends on the thread count"))
def test_scores_do_not_depend_on_blas_threads():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    one_thread, default = (subprocess.run(
        [sys.executable, "-c", THREADED_SCORES], env=child_env, capture_output=True,
        text=True, timeout=120, check=True).stdout
        for child_env in (dict(env, OPENBLAS_NUM_THREADS="1"), env))
    assert one_thread == default


# tied, signed-zero and distinct values, so sweeps see runs and -0.0/+0.0 ties
SCORE = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                  st.floats(-1.0, 1.0, allow_nan=False))
SCORES = st.lists(SCORE, min_size=1, max_size=40)


class TestSweepOracle:
    """`operating_points` and the ROC writer against the binary-search and
    one-repr-per-row references."""

    @given(SCORES, SCORES)
    @settings(max_examples=200, deadline=None)
    def test_sweep_bytes_match_oracle(self, genuine, impostor):
        s = ScoreSet(genuine, impostor)
        got, expected = operating_points(s), oracles.operating_points(s)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    @given(SCORES, SCORES)
    @settings(max_examples=60, deadline=None)
    def test_trace_bytes_match_oracle(self, tmp_path_factory, genuine, impostor):
        s = ScoreSet(genuine, impostor)
        d = tmp_path_factory.mktemp("roc")
        write_roc_csv(d / "got.csv", operating_points(s))
        oracles.write_roc_csv(d / "expected.csv", s)
        assert (d / "got.csv").read_bytes() == (d / "expected.csv").read_bytes()

    def test_trace_bytes_match_oracle_across_chunks(self, tmp_path):
        # ~10,100 thresholds span three 4,096-row chunks; rounding to 3 decimals
        # makes runs of equal FAR and FRR that cross the chunk boundaries
        rng = np.random.default_rng(11)
        s = ScoreSet(np.round(rng.normal(0.4, 0.3, 3000), 3), rng.normal(0.0, 0.3, 9000))
        write_roc_csv(tmp_path / "got.csv", operating_points(s))
        oracles.write_roc_csv(tmp_path / "expected.csv", s)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestEer:
    def test_perfect_separation(self):
        s = ScoreSet([0.9, 0.8], [0.1, 0.2])
        assert eer(operating_points(s)) == 0.0

    def test_chance_level(self):
        vals = [0.1, 0.4, 0.6, 0.9]
        s = ScoreSet(vals, vals)
        assert eer(operating_points(s)) == pytest.approx(0.5, abs=1e-12)

    def test_fully_inverted(self):
        s = ScoreSet([0.1, 0.2], [0.8, 0.9])
        assert eer(operating_points(s)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_brute_force_sweep(self, seed):
        rng = np.random.default_rng(seed)
        s = ScoreSet(rng.normal(0.6, 0.3, 500), rng.normal(0.2, 0.3, 500))
        assert eer(operating_points(s)) == pytest.approx(brute_force_eer(s), abs=1e-9)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            s = ScoreSet(rng.uniform(-1, 1, 30), rng.uniform(-1, 1, 40))
            assert 0.0 <= eer(operating_points(s)) <= 1.0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        gen = rng.normal(0.5, 0.4, 50)
        imp = rng.normal(0.0, 0.4, 60)
        base = eer(operating_points(ScoreSet(gen, imp)))
        # strictly increasing map: exp preserves score order
        mapped = eer(operating_points(ScoreSet(np.exp(gen), np.exp(imp))))
        assert mapped == pytest.approx(base, abs=1e-12)

    def test_swap_and_negate_symmetry(self):
        rng = np.random.default_rng(5)
        gen = rng.normal(0.5, 0.3, 80)
        imp = rng.normal(0.1, 0.3, 90)
        a = eer(operating_points(ScoreSet(gen, imp)))
        b = eer(operating_points(ScoreSet(-imp, -gen)))
        assert b == pytest.approx(a, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            eer(operating_points(ScoreSet([], [0.1])))


class TestTarAtFar:
    def test_perfect_separation_gives_one(self):
        s = ScoreSet([0.9, 0.8, 0.7], [0.1, 0.2])
        assert tar_at_far(operating_points(s), 0.01) == 1.0

    def test_fully_inverted_gives_zero(self):
        s = ScoreSet([0.1, 0.2], [0.8, 0.9])
        assert tar_at_far(operating_points(s), 0.01) == 0.0

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_brute_force_sweep(self, seed):
        rng = np.random.default_rng(seed + 1000)
        s = ScoreSet(rng.normal(0.6, 0.3, 500), rng.normal(0.1, 0.3, 500))
        for target in (0.01, 0.05, 0.2):
            assert tar_at_far(operating_points(s), target) == pytest.approx(
                brute_force_tar(s, target), abs=1e-9)

    def test_nondecreasing_in_target(self):
        rng = np.random.default_rng(7)
        s = ScoreSet(rng.normal(0.5, 0.4, 100), rng.normal(0.0, 0.4, 100))
        targets = [0.005, 0.01, 0.05, 0.1, 0.3, 0.7]
        vals = [tar_at_far(operating_points(s), t) for t in targets]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        gen = rng.normal(0.5, 0.4, 60)
        imp = rng.normal(0.0, 0.4, 70)
        a = tar_at_far(operating_points(ScoreSet(gen, imp)), 0.01)
        b = tar_at_far(operating_points(ScoreSet(np.tanh(gen), np.tanh(imp))), 0.01)
        assert a == b

    def test_bad_target_raises(self):
        s = ScoreSet([0.5], [0.1])
        with pytest.raises(DomainError):
            tar_at_far(operating_points(s), 0.0)
        with pytest.raises(DomainError):
            tar_at_far(operating_points(s), 1.0)


class TestMetricsCsv:
    def test_header_and_roundtrip(self, tmp_path):
        recs = [MetricsRecord(0, 1, 0.125, 0.75, 10, 20),
                MetricsRecord(1, 1, 0.25, 0.5, 12, 24)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, recs)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "client_id,round,eer,tar_at_far01,n_genuine,n_impostor"
        assert lines[1] == "0,1,0.125,0.75,10,20"

    def test_byte_determinism(self, tmp_path):
        recs = [MetricsRecord(0, r, 0.1 + r / 7.0, 0.9 - r / 11.0, 5, 9)
                for r in range(5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(p1, recs)
        write_metrics_csv(p2, recs)
        assert p1.read_bytes() == p2.read_bytes()
