"""Tests for the synthetic non-IID open-set dataset generator."""

import math

import numpy as np
import pytest

from fedsim.errors import ConfigError, DomainError, ShapeError
from fedsim.synth import LabeledDataset, SynthSpec, generate, rotation_matrix


class TestSpecValidation:
    def test_defaults_valid(self):
        spec = SynthSpec()
        assert spec.n_clients == 4
        assert len(spec.rotation_deg) == 4

    def test_scalar_broadcast(self):
        spec = SynthSpec(n_clients=3, classes_per_client=10)
        assert spec.classes_per_client == (10, 10, 10)

    def test_per_client_sequence(self):
        spec = SynthSpec(n_clients=3, classes_per_client=(10, 5, 20))
        assert spec.classes_per_client == (10, 5, 20)

    def test_wrong_length_sequence_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_clients=3, classes_per_client=(10, 5))

    def test_split_bounds(self):
        with pytest.raises(ConfigError):
            SynthSpec(open_set_split=0.0)
        with pytest.raises(ConfigError):
            SynthSpec(open_set_split=1.0)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(classes_per_client=1)

    def test_split_leaving_no_test_class_rejected(self):
        # 3 classes at 0.9: floor(2.7) = 2 train, 1 test -> fine
        SynthSpec(classes_per_client=3, open_set_split=0.9)
        with pytest.raises(ConfigError):
            # 2 classes at 0.9: floor(1.8) = 1 train class, too few
            SynthSpec(classes_per_client=2, open_set_split=0.9)

    def test_negative_seed_and_non_finite_transforms_rejected(self):
        # caught here, before numpy's seeding or the dataset check would fail
        for bad in ({"seed": -1}, {"offset_scale": math.nan},
                    {"noise_scale": (0.8, 0.8, math.inf, 0.8)},
                    {"rotation_deg": math.nan}):
            with pytest.raises(ConfigError):
                SynthSpec(**bad)

    def test_small_client_mix_allowed(self):
        spec = SynthSpec(classes_per_client=(20, 20, 20, 5))
        clients, _ = generate(spec)
        assert clients[3][0].n_classes == 4  # floor(5 * 0.8)


class TestRotationMatrix:
    def test_zero_angle_identity(self):
        np.testing.assert_allclose(rotation_matrix(4, 0.0), np.eye(4))

    def test_orthogonal(self):
        m = rotation_matrix(6, 37.0)
        np.testing.assert_allclose(m @ m.T, np.eye(6), atol=1e-12)

    def test_ninety_degrees_planar(self):
        m = rotation_matrix(2, 90.0)
        np.testing.assert_allclose(m @ np.array([1.0, 0.0]), [0.0, 1.0],
                                   atol=1e-12)


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(seed=5)
        a, pa = generate(spec)
        b, pb = generate(spec)
        np.testing.assert_array_equal(pa, pb)
        for (ta, ea), (tb, eb) in zip(a, b):
            np.testing.assert_array_equal(ta.inputs, tb.inputs)
            np.testing.assert_array_equal(ea.inputs, eb.inputs)

    def test_split_counts_10_classes(self):
        spec = SynthSpec(classes_per_client=10, open_set_split=0.8)
        clients, _ = generate(spec)
        train, test = clients[0]
        assert train.n_classes == 8 and test.n_classes == 2

    def test_identity_disjointness_by_construction(self):
        spec = SynthSpec(classes_per_client=10, samples_per_class=4)
        clients, _ = generate(spec)
        for train, test in clients:
            # roles partition the per-class sample blocks; sizes must add up
            assert train.labels.size + test.labels.size == 10 * 4
            assert train.role == "train" and test.role == "test"
            assert train.labels.min() == 0 and test.labels.min() == 0

    def test_zero_noise_zero_transform_samples_equal_prototypes(self):
        spec = SynthSpec(n_clients=1, classes_per_client=4,
                         samples_per_class=2, noise_scale=0.0,
                         offset_scale=0.0, rotation_deg=0.0,
                         open_set_split=0.6)
        clients, _ = generate(spec)
        train, test = clients[0]
        # both samples of one class coincide (they are the prototype)
        for k in range(train.n_classes):
            rows = train.inputs[train.labels == k]
            np.testing.assert_allclose(rows[0], rows[1], atol=0)

    def test_rotation_relates_clients_exactly(self):
        base = dict(n_clients=2, classes_per_client=6, samples_per_class=3,
                    noise_scale=0.0, offset_scale=0.0, seed=3,
                    client_seeds=((3, 0), (3, 0)))  # same class draws
        spec = SynthSpec(rotation_deg=(0.0, 90.0), **base)
        clients, _ = generate(spec)
        rot = rotation_matrix(spec.input_dim, 90.0)
        a = clients[0][0].inputs
        b = clients[1][0].inputs
        np.testing.assert_allclose(b, a @ rot.T, atol=1e-12)

    def test_transforms_separate_client_means(self):
        flat = SynthSpec(rotation_deg=0.0, offset_scale=0.0, seed=1,
                         client_seeds=((1, 0),) * 4, noise_scale=0.0)
        clients, _ = generate(flat)
        m0 = clients[0][0].inputs.mean(axis=0)
        for train, _ in clients[1:]:
            np.testing.assert_allclose(train.inputs.mean(axis=0), m0, atol=1e-12)
        hetero = SynthSpec(seed=1)
        clients, _ = generate(hetero)
        m0 = clients[0][0].inputs.mean(axis=0)
        for train, _ in clients[1:]:
            assert np.linalg.norm(train.inputs.mean(axis=0) - m0) > 0.1

    def test_labels_dense_within_role(self):
        clients, _ = generate(SynthSpec(seed=2))
        for train, test in clients:
            assert set(train.labels.tolist()) == set(range(train.n_classes))
            assert set(test.labels.tolist()) == set(range(test.n_classes))

    def test_probe_source_shape_and_determinism(self):
        spec = SynthSpec(seed=11)
        _, probes = generate(spec)
        assert probes.shape == (128, spec.input_dim)
        _, again = generate(spec)
        np.testing.assert_array_equal(probes, again)

    def test_all_inputs_finite(self):
        clients, probes = generate(SynthSpec(seed=7))
        assert np.all(np.isfinite(probes))
        for train, test in clients:
            assert np.all(np.isfinite(train.inputs))
            assert np.all(np.isfinite(test.inputs))

    def test_latent_dim_bounds_checked(self):
        with pytest.raises(ConfigError):
            generate(SynthSpec(latent_dim=64, input_dim=32))


class TestDatasetValidation:
    def test_negative_label_rejected_at_construction(self):
        with pytest.raises(DomainError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, -1, 1]), "train")

    def test_non_finite_input_rejected_at_construction(self):
        inputs = np.zeros((3, 2))
        inputs[1, 0] = np.nan
        with pytest.raises(DomainError):
            LabeledDataset(inputs, np.array([0, 1, 1]), "train")

    def test_shape_and_dtype_rejected_at_construction(self):
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros(3), np.array([0, 1, 1]), "train")
        with pytest.raises(ShapeError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), "train")
        with pytest.raises(DomainError):
            LabeledDataset(np.zeros((3, 2), dtype=np.float32), np.array([0, 1, 1]), "train")
        with pytest.raises(DomainError):
            LabeledDataset(np.zeros((3, 2)), np.array([0.0, 1.0, 1.0]), "train")
