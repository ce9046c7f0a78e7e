"""Tests for the client lifecycle: local rounds, wait-window training,
adoption, loss gradients of the combined objective, and groups of clients
trained as one stack."""

import collections
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim.client
from fedsim.client import (ClientGroup, ClientState, Phase, TrainingParams,
                           UploadMessage, build_client, async_loss_and_grads,
                           local_loss_and_grads)
from fedsim.errors import DivergenceError, DomainError, ProtocolError, ShapeError
from fedsim.experiment import ExperimentConfig, run_experiment
from fedsim.losses import CenterBank, LossWeights
from fedsim.nn import MLP, channel, fusion_head, linear_head
from fedsim.synth import LabeledDataset, SynthSpec, generate
import oracles
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
        bank = CenterBank([rng.standard_normal(3) for _ in range(3)], lr=0.5)
        x = rng.standard_normal((6, 5))
        y = rng.integers(0, 3, size=6)
        w = LossWeights(0.3, 1.0, 0.2)
        _, grads, _ = local_loss_and_grads(lc, fc, fu, h2, bank, x, y, w)

        parts = {"local_channel": lc, "fed_channel": fc, "fusion": fu, "head2": h2}
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
        for name, model in (("local_channel", lc), ("head1", h1)):
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


PARTS = ("local_channel", "fed_channel", "fusion", "head1", "head2")


def alike_clients(lrs, weights=LossWeights(0.1, 1.0, 0.01), batch=8, seed=0):
    """One client per learning rate, each with its own data and seeds, all of
    one shape: 5 classes of 4 samples, so batch 8 leaves a short last batch."""
    clients = []
    for c, lr in enumerate(lrs):
        rng = np.random.default_rng((seed, c))
        protos = 2.0 * rng.standard_normal((5, 8))
        inputs = np.repeat(protos, 4, axis=0) + 0.5 * rng.standard_normal((20, 8))
        train = LabeledDataset(inputs, np.repeat(np.arange(5), 4), "train")
        training = TrainingParams(lr=lr, epochs=2, batch=batch, alpha1=weights.alpha1,
                                  alpha2=weights.alpha2, alpha3=weights.alpha3,
                                  center_lr=0.5, local_hidden=12, fed_hidden=8,
                                  emb_dim=6, fuse_dim=6)
        clients.append(build_client(c, train, input_dim=8, training=training, seed=seed))
    return clients


REBINDS = {
    "params": lambda c: setattr(c.fusion, "params", c.fusion.params.copy()),
    "centers": lambda c: setattr(c.center_bank, "centers", c.center_bank.centers.copy()),
    "labels": lambda c: setattr(c.dataset, "labels", c.dataset.labels.copy())}


# settings a group reads once, from its first member
SETTINGS = {
    "local_epochs": lambda c: setattr(c, "local_epochs", 1),
    "batch_size": lambda c: setattr(c, "batch_size", 4),
    "loss_weights": lambda c: setattr(c, "loss_weights", LossWeights(0.2, 1.0, 0.01)),
    "center_lr": lambda c: setattr(c.center_bank, "lr", 0.25)}


class TestClientGroup:
    @settings(max_examples=40, deadline=None)
    @given(lrs=st.lists(st.floats(0.0, 0.3), min_size=1, max_size=6),
           weights=st.sampled_from([LossWeights(0.1, 1.0, 0.01),
                                    LossWeights(0.0, 1.0, 0.0)]),
           batch=st.sampled_from([3, 6, 7, 8]), seed=st.integers(0, 2 ** 16),
           data=st.data())
    def test_group_step_equals_members_stepped_alone(self, lrs, weights, batch, seed,
                                                     data):
        grouped = alike_clients(lrs, weights, batch, seed)
        alone = alike_clients(lrs, weights, batch, seed)
        group = ClientGroup(grouped)

        def assert_members_equal_alone():
            for a, b in zip(grouped, alone):
                for part in PARTS:
                    assert np.array_equal(getattr(a, part).params,
                                          getattr(b, part).params)
                assert np.array_equal(a.center_bank.centers, b.center_bank.centers)

        rows = list(range(len(lrs)))
        msgs = group.local_rounds(rows)
        for g, c in enumerate(alone):
            assert np.array_equal(msgs[g].params, c.local_train_round().params)
        assert [a.last_epoch_losses for a in grouped] == [b.last_epoch_losses for b in alone]
        assert_members_equal_alone()
        requests = data.draw(st.lists(st.dictionaries(st.sampled_from(rows),
                                                      st.integers(0, 3), min_size=1),
                                      max_size=4))
        for request in requests:   # any steps of any members, as the scheduler asks
            counts = dict(sorted(request.items()))
            losses = group.async_steps(counts)
            for g, count in counts.items():
                assert losses[g] == [alone[g].async_train_step() for _ in range(count)]
            assert_members_equal_alone()

    def test_members_read_the_stacks(self):
        clients = alike_clients([0.05, 0.1])
        group = ClientGroup(clients)
        group.local_rounds([0, 1])
        for g, c in enumerate(clients):
            for part in PARTS:
                assert np.shares_memory(getattr(c, part).params,
                                        group.models[part].params)
            assert np.shares_memory(c.center_bank.centers, group.bank.centers)
            assert np.shares_memory(c.dataset.inputs, group.inputs)
        # adoption writes the member's row, so the group trains what it adopted
        dispatched = np.zeros_like(clients[1].fed_channel.params)
        clients[1].adopt_global(dispatched)
        assert np.array_equal(group.models["fed_channel"].params[1], dispatched)

    def test_group_of_one_steps_the_clients_own_arrays(self):
        c, = alike_clients([0.05])
        before = (c.local_channel.params, c.fed_channel.params, c.head1.params,
                  c.center_bank.centers, c.dataset.inputs)
        group = ClientGroup([c])
        for part in PARTS:
            assert np.shares_memory(group.models[part].params, getattr(c, part).params)
        assert np.shares_memory(group.bank.centers, c.center_bank.centers)
        assert np.shares_memory(group.inputs, c.dataset.inputs)
        assert np.shares_memory(group.labels, c.dataset.labels)
        c.local_train_round()
        c.async_train_step()
        after = (c.local_channel.params, c.fed_channel.params, c.head1.params,
                 c.center_bank.centers, c.dataset.inputs)
        assert all(a is b for a, b in zip(before, after))

    @pytest.mark.parametrize("rebind, size", [
        pytest.param(rebind, size, id=name if size > 1 else f"{name}-group_of_one")
        for size in (3, 1) for name, rebind in REBINDS.items()])
    def test_rebound_member_refused_before_any_row_steps(self, rebind, size):
        # a kept group of one holds views of its member's arrays, as a stack does
        clients = alike_clients([0.05, 0.1, 0.02][:size])
        group = ClientGroup(clients)
        rebind(clients[-1])
        before = [c.local_channel.params.copy() for c in clients]
        with pytest.raises(ProtocolError, match=f"client {size - 1} rebound"):
            group.local_rounds(list(range(size)))
        for c, params in zip(clients, before):
            assert np.array_equal(c.local_channel.params, params)
            assert c.phase is Phase.LOCAL_TRAINING
        others = list(range(size - 1))
        assert group.local_rounds(others).keys() == set(others)   # the others still train

    @pytest.mark.parametrize("change", SETTINGS.values(), ids=SETTINGS)
    def test_changed_setting_refused_before_any_row_steps(self, change):
        # the group would go on training with the setting it read at construction
        clients = alike_clients([0.05, 0.1, 0.02])
        group = ClientGroup(clients)
        change(clients[0])
        before = [c.local_channel.params.copy() for c in clients]
        with pytest.raises(ProtocolError, match="client 0 changed a setting of its group"):
            group.local_rounds([0, 1, 2])
        for c, params in zip(clients, before):
            assert np.array_equal(c.local_channel.params, params)
            assert c.phase is Phase.LOCAL_TRAINING

    def test_unlike_clients_rejected(self):
        a, = alike_clients([0.05])
        b, = alike_clients([0.05], batch=7)
        with pytest.raises(ShapeError):
            ClientGroup([a, b])


def same_client(a: ClientState, b: ClientState) -> bool:
    """Byte for byte: the five parts, the centers and both RNG states."""
    return (all(getattr(a, p).params.tobytes() == getattr(b, p).params.tobytes()
                for p in PARTS)
            and a.center_bank.centers.tobytes() == b.center_bank.centers.tobytes()
            and a._batch_rng.bit_generator.state == b._batch_rng.bit_generator.state
            and a._async_rng.bit_generator.state == b._async_rng.bit_generator.state)


class TestBuildClient:
    """A client is built from one federated init per run and its class centers from
    one `bincount`; it must equal the build that did neither, `oracles.build_client`.
    That holds at fuse_dim >= 2 only: at fuse_dim == 1 numpy's mask `mean` sums
    pairwise, so a class of eight or more samples may round differently (the caveat
    `losses._class_means` states for `update_centers` too)."""

    @settings(max_examples=30, deadline=None)
    @given(sizes=st.lists(st.tuples(st.integers(3, 12), st.integers(2, 9)),
                          min_size=1, max_size=4),
           synth_seed=st.integers(0, 2 ** 16), seed=st.integers(0, 2 ** 16),
           fuse_dim=st.integers(2, 6), order_seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_per_client_build(self, sizes, synth_seed, seed, fuse_dim,
                                          order_seed):
        classes, samples = zip(*sizes)
        spec = SynthSpec(n_clients=len(sizes), classes_per_client=classes,
                         samples_per_class=samples, input_dim=10, latent_dim=4,
                         seed=synth_seed)
        training = TrainingParams(local_hidden=12, fed_hidden=8, emb_dim=6,
                                  fuse_dim=fuse_dim)
        order = np.random.default_rng(order_seed)
        for c, (train, _) in enumerate(generate(spec)[0]):
            # shuffled, and some samples dropped so that class sizes differ
            keep = order.random(train.labels.size) < 0.7
            keep[np.unique(train.labels, return_index=True)[1]] = True
            kept = order.permutation(np.flatnonzero(keep))
            train = LabeledDataset(train.inputs[kept], train.labels[kept], "train")
            built = build_client(c, train, input_dim=10, training=training, seed=seed)
            assert same_client(built, oracles.build_client(
                c, train, input_dim=10, training=training, seed=seed))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("labels, empty", [((0, 0, 2, 2), 1), ((1, 1, 2), 0),
                                               ((0, 3, 3, 0, 1), 2)])
    def test_a_class_without_a_sample_is_named(self, labels, empty):
        rng = np.random.default_rng(0)
        train = LabeledDataset(rng.standard_normal((len(labels), 3)), np.array(labels),
                               "train")
        with pytest.raises(DomainError,
                           match=f"client 7 has no training sample of class {empty}$"):
            build_client(7, train, input_dim=3, seed=0)

    def test_clients_share_no_federated_memory(self):
        fedsim.client._fed_init.cache_clear()
        trains = [train for train, _ in generate(SynthSpec())[0]]
        clients = [build_client(c, train, input_dim=32, seed=3) for c, train in enumerate(trains)]
        tr = TrainingParams()
        shared = fedsim.client._fed_init(32, tr.fed_hidden, tr.emb_dim, 3)
        assert not shared.flags.writeable
        for a, b in itertools.combinations(clients, 2):
            assert not np.shares_memory(a.fed_channel.params, b.fed_channel.params)
        for c in clients:
            assert not np.shares_memory(c.fed_channel.params, shared)
            assert np.array_equal(c.fed_channel.params, shared)
        # train one client and adopt a dispatch: neither reaches a later build
        msg = clients[0].local_train_round()
        clients[0].adopt_global(msg.params + 1.0)
        assert np.array_equal(clients[0].fed_channel.params, msg.params + 1.0)
        assert same_client(build_client(0, trains[0], input_dim=32, seed=3),
                           oracles.build_client(0, trains[0], input_dim=32, training=tr, seed=3))

    def test_one_federated_init_per_run(self, monkeypatch):
        # counted, not timed: a build that draws the common init per client fails here
        calls = collections.Counter()
        for name in ("channel", "linear_head", "fusion_head"):
            def spy(*args, _init=getattr(fedsim.client, name)):
                seed = args[-1]
                calls["federated" if len(seed) == 2 else ("part", seed[1])] += 1
                return _init(*args)
            monkeypatch.setattr(fedsim.client, name, spy)
        fedsim.client._fed_init.cache_clear()
        cfg = ExperimentConfig(mode="fedavg", rounds=1, seed=5,
                               synth=SynthSpec(n_clients=16, classes_per_client=10,
                                               samples_per_class=2),
                               training=TrainingParams(epochs=1))
        run_experiment(cfg)
        assert calls == {"federated": 1, **{("part", c): 4 for c in range(16)}}
