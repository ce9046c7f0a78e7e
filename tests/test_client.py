"""Tests for the client lifecycle: local rounds, wait-window training,
adoption, and loss gradients of the combined objective."""

import hashlib

import numpy as np
import pytest

from fedsim.client import (ClientState, Phase, TrainingParams, UploadMessage,
                           build_client, async_loss_and_grads, local_loss_and_grads)
from fedsim.errors import DivergenceError, ProtocolError, ShapeError
from fedsim.losses import CenterBank, LossWeights
from fedsim.nn import MLP, channel, fusion_head, linear_head
from fedsim.synth import LabeledDataset, SynthSpec, generate
from oracles import finite_difference_grad


def small_client(seed=0, lr=0.05, weights=None, n_classes=5):
    rng = np.random.default_rng(seed)
    protos = 2.0 * rng.standard_normal((n_classes, 8))
    inputs = np.repeat(protos, 4, axis=0) + 0.5 * rng.standard_normal((n_classes * 4, 8))
    labels = np.repeat(np.arange(n_classes), 4)
    train = LabeledDataset(inputs, labels, "train")
    w = weights or LossWeights(0.1, 1.0, 0.01)
    training = TrainingParams(lr=lr, epochs=1, batch=8, alpha1=w.alpha1,
                              alpha2=w.alpha2, alpha3=w.alpha3, center_lr=0.5,
                              local_hidden=12, fed_hidden=8, emb_dim=6, fuse_dim=6)
    return build_client(0, train, input_dim=8, training=training, seed=seed)


def checksum(arr):
    return hashlib.sha256(arr.tobytes()).hexdigest()


class TestGradients:
    def test_local_gradients_match_finite_differences(self):
        # the combined objective through all four trained parts
        rng = np.random.default_rng(0)
        lc = channel(5, 6, 4, seed=1)
        fc = channel(5, 4, 4, seed=2)
        fu = fusion_head(8, 3, seed=3)
        h2 = linear_head(3, 3, seed=4)
        bank = CenterBank({k: rng.standard_normal(3) for k in range(3)}, lr=0.5)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 3, size=6)
        w = LossWeights(0.3, 1.0, 0.2)
        _, grads, _ = local_loss_and_grads(lc, fc, fu, h2, bank, x, y, w)

        parts = {"local": lc, "fed": fc, "fusion": fu, "head2": h2}
        for name, model in parts.items():
            def loss_of(params, model=model):
                saved = model.params
                model.params = params.copy()
                try:
                    loss, _, _ = local_loss_and_grads(lc, fc, fu, h2, bank, x, y, w)
                finally:
                    model.params = saved
                return loss
            fd = finite_difference_grad(loss_of, model.params)
            np.testing.assert_allclose(grads[name], fd, rtol=1e-4, atol=1e-6)

    def test_async_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        lc = channel(5, 6, 4, seed=5)
        h1 = linear_head(4, 3, seed=6)
        x = rng.standard_normal((5, 5))
        y = rng.integers(0, 3, size=5)
        _, grads = async_loss_and_grads(lc, h1, x, y)
        for name, model in (("local", lc), ("head1", h1)):
            def loss_of(params, model=model):
                saved = model.params
                model.params = params.copy()
                try:
                    return async_loss_and_grads(lc, h1, x, y)[0]
                finally:
                    model.params = saved
            fd = finite_difference_grad(loss_of, model.params)
            np.testing.assert_allclose(grads[name], fd, rtol=1e-4, atol=1e-6)


class TestLocalTrainRound:
    def test_zero_lr_leaves_parameters_unchanged(self):
        c = small_client(lr=0.0)
        snaps = {name: getattr(c, name).params.copy()
                 for name in ("local_channel", "fed_channel", "fusion", "head2")}
        c.local_train_round()
        for name, snap in snaps.items():
            np.testing.assert_array_equal(getattr(c, name).params, snap)

    def test_upload_carries_fed_channel_snapshot(self):
        c = small_client(seed=3)
        msg = c.local_train_round()
        assert isinstance(msg, UploadMessage)
        assert msg.client_id == 0 and msg.fed_round == 0
        np.testing.assert_array_equal(msg.params, c.fed_channel.params)
        assert msg.params is not c.fed_channel.params  # snapshot, not alias

    def test_wrong_phase_rejected(self):
        c = small_client()
        c.local_train_round()
        with pytest.raises(ProtocolError):
            c.local_train_round()

    def test_training_loss_decreases_over_epoch(self):
        # measured property: within-round improvement on most seeds
        improved = 0
        for seed in range(20):
            c = small_client(seed=seed)
            c.local_epochs = 3
            c.local_train_round()
            first = np.mean(c.last_epoch_losses[0])
            last = np.mean(c.last_epoch_losses[-1])
            improved += last < first
        assert improved >= 18


class TestAsyncTrainStep:
    def test_frozen_parts_bit_unchanged(self):
        c = small_client(seed=4)
        c.local_train_round()
        frozen = {name: checksum(getattr(c, name).params)
                  for name in ("fed_channel", "fusion", "head2")}
        for _ in range(10):
            c.async_train_step()
        for name, digest in frozen.items():
            assert checksum(getattr(c, name).params) == digest

    def test_zero_lr_whole_state_unchanged(self):
        c = small_client(seed=5, lr=0.0)
        c.local_train_round()
        lc, h1 = c.local_channel.params.copy(), c.head1.params.copy()
        c.async_train_step()
        np.testing.assert_array_equal(c.local_channel.params, lc)
        np.testing.assert_array_equal(c.head1.params, h1)

    def test_wrong_phase_rejected(self):
        c = small_client()
        with pytest.raises(ProtocolError):
            c.async_train_step()

    def test_async_loss_decreases_after_steps(self):
        def full_set_loss(c):
            return async_loss_and_grads(c.local_channel, c.head1, c.dataset.inputs,
                                        c.dataset.labels)[0]

        improved = 0
        for seed in range(20):
            c = small_client(seed=seed)
            c.local_train_round()
            start = full_set_loss(c)
            for _ in range(50):
                c.async_train_step()
            improved += full_set_loss(c) < start
        assert improved >= 18


class TestAdoptGlobal:
    def test_round_trip_identity(self):
        c = small_client(seed=6)
        msg = c.local_train_round()
        c.adopt_global(msg.params)
        np.testing.assert_array_equal(c.fed_channel.params, msg.params)

    def test_round_increments_and_phase_resets(self):
        c = small_client(seed=7)
        msg = c.local_train_round()
        assert c.fed_round == 0
        c.adopt_global(msg.params)
        assert c.fed_round == 1
        assert c.phase is Phase.LOCAL_TRAINING

    def test_async_progress_retained_after_adoption(self):
        c = small_client(seed=8)
        msg = c.local_train_round()
        for _ in range(5):
            c.async_train_step()
        advanced = c.local_channel.params.copy()
        c.adopt_global(msg.params)
        np.testing.assert_array_equal(c.local_channel.params, advanced)

    def test_shape_mismatch_rejected(self):
        c = small_client()
        c.local_train_round()
        with pytest.raises(ShapeError):
            c.adopt_global(np.zeros(3))

    def test_wrong_phase_rejected(self):
        c = small_client()
        with pytest.raises(ProtocolError):
            c.adopt_global(c.fed_channel.params.copy())

    def test_alignment_loss_decreases_with_coupling(self):
        # after adoption, a local round with the alignment term active pulls
        # the two channel representations together on most seeds
        from oracles import fv_cos_loss

        def mean_alignment(c):
            from fedsim.nn import forward_batch
            f_p, _ = forward_batch(c.local_channel, c.dataset.inputs)
            f_g, _ = forward_batch(c.fed_channel, c.dataset.inputs)
            vals = [fv_cos_loss(f_p[i], f_g[i]) for i in range(f_p.shape[0])]
            return float(np.mean(vals))

        improved = 0
        for seed in range(20):
            c = small_client(seed=seed,
                             weights=LossWeights(1.0, 1.0, 0.0), lr=0.05)
            msg = c.local_train_round()
            c.adopt_global(msg.params)
            before = mean_alignment(c)
            c.local_train_round()
            improved += mean_alignment(c) < before
        assert improved >= 16


class TestEmbeddingsAndDeterminism:
    def test_extract_embedding_deterministic(self):
        c = small_client(seed=9)
        x = np.random.default_rng(0).standard_normal(8)
        np.testing.assert_array_equal(c.extract_embeddings(x[None])[0],
                                      c.extract_embeddings(x[None])[0])

    def test_zero_parameter_model_gives_zero_embedding(self):
        train = LabeledDataset(np.ones((4, 3)), np.array([0, 0, 1, 1]), "train")
        c = build_client(0, train, input_dim=3, seed=0,
                         training=TrainingParams(local_hidden=4, fed_hidden=4,
                                                 emb_dim=2, fuse_dim=2))
        for m in (c.local_channel, c.fed_channel, c.fusion):
            m.params = np.zeros_like(m.params)
        np.testing.assert_array_equal(c.extract_embeddings(np.ones(3)[None])[0],
                                      [0.0, 0.0])

    def test_identical_seeds_identical_trajectories(self):
        a, b = small_client(seed=10), small_client(seed=10)
        ma = a.local_train_round()
        mb = b.local_train_round()
        np.testing.assert_array_equal(ma.params, mb.params)
        for _ in range(3):
            a.async_train_step()
            b.async_train_step()
        np.testing.assert_array_equal(a.local_channel.params,
                                      b.local_channel.params)

    def test_embedding_is_fusion_of_both_channels(self):
        c = small_client(seed=11)
        x = np.random.default_rng(1).standard_normal(8)
        from fedsim.nn import forward_batch
        manual = forward_batch(c.fusion, np.concatenate([
            forward_batch(c.local_channel, x[None])[0][0],
            forward_batch(c.fed_channel, x[None])[0][0]])[None])[0][0]
        np.testing.assert_allclose(c.extract_embeddings(x[None])[0], manual, atol=1e-12)

    def test_shared_federated_initialization_across_clients(self):
        # parameter averaging requires the federated channel to start aligned
        spec = SynthSpec(seed=0)
        data, _ = generate(spec)
        clients = [build_client(c, data[c][0], input_dim=32, seed=0)
                   for c in range(2)]
        np.testing.assert_array_equal(clients[0].fed_channel.params,
                                      clients[1].fed_channel.params)
        assert not np.array_equal(clients[0].local_channel.params,
                                  clients[1].local_channel.params)


def one_batch_client(lr):
    """Default client 0, one training sample per class: a single batch per epoch."""
    (train, _), *_ = generate(SynthSpec())[0]
    _, first = np.unique(train.labels, return_index=True)
    one = LabeledDataset(train.inputs[first], train.labels[first], "train")
    c = build_client(0, one, input_dim=32, training=TrainingParams(epochs=1), seed=0)
    assert c.n_batches() == 1
    c.lr = lr
    return c


class TestDivergenceStoppedAtTheClient:
    def test_last_local_step_blow_up_never_uploads(self):
        # the only step is also the last: nothing after it would catch it
        c = one_batch_client(lr=np.inf)
        with pytest.raises(DivergenceError) as info:
            c.local_train_round()
        assert (info.value.phase, info.value.client_id,
                info.value.batch_index) == ("local", 0, 0)

    def test_first_async_blow_up_raises_on_that_step(self):
        c = one_batch_client(lr=0.05)
        c.local_train_round()
        c.lr = np.inf
        with pytest.raises(DivergenceError) as info:
            c.async_train_step()
        assert (info.value.phase, info.value.client_id) == ("async", 0)

    def test_non_finite_dispatch_rejected_at_adoption(self):
        c = small_client(seed=12)
        msg = c.local_train_round()
        bad = msg.params.copy()
        bad[5] = np.nan
        with pytest.raises(DivergenceError) as info:
            c.adopt_global(bad)
        assert (info.value.phase, info.value.client_id,
                info.value.round_index) == ("adopt", 0, 0)
        assert c.phase is Phase.WAITING and c.fed_round == 0

    def test_training_never_writes_into_the_adopted_array(self):
        c = small_client(seed=13)
        msg = c.local_train_round()
        dispatched = msg.params.copy()
        c.adopt_global(dispatched)
        c.local_train_round()
        np.testing.assert_array_equal(dispatched, msg.params)
        assert not np.array_equal(c.fed_channel.params, msg.params)
