"""One diverging client stops the run at that client's own step, with an error
that names it, and leaves every other client's parameters finite.

Each run case poisons client k from outside the library: it sets the client's
learning rate, or tampers with a message on its way through the scheduler's
bindings of `handle_upload` and `run_aggregation`. The fixed cases poison each
client of a 4-client default run; the drawn cases poison a drawn client of a
drawn schedule, whose unequal step durations step members both alone and
together with their group. The group cases poison one member of a
`ClientGroup`, or two members in different ways in one stacked step, and
check that the stacked step fails each poisoned member alone.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fedsim.client
import fedsim.experiment
import fedsim.simulation
from fedsim.client import ClientGroup
from fedsim.errors import DivergenceError
from fedsim.experiment import ExperimentConfig, run_experiment
from fedsim.synth import SynthSpec
from test_client import PARTS, alike_clients

POISON_ROUND = 1


def run_poisoned(cfg, k, case, poison_round=POISON_ROUND):
    """Run experiment `cfg` with client k poisoned by `case` at `poison_round`.

    Returns (the DivergenceError raised, the run's clients).
    """
    seen = {}
    run_simulation = fedsim.experiment.run_simulation
    handle_upload = fedsim.simulation.handle_upload
    run_aggregation = fedsim.simulation.run_aggregation

    def spy_simulation(cfg, clients, server, on_round_complete):
        seen["clients"] = clients
        if case == "lr_before_run":
            clients[k].lr = np.inf

        def round_complete(client, round_index, t):
            if case == "lr_after_round" and round_index == poison_round:
                clients[k].lr = np.inf
            on_round_complete(client, round_index, t)
        return run_simulation(cfg, clients, server, round_complete)

    def spy_upload(server, msg):
        if msg.client_id == k and msg.fed_round == poison_round:
            if case == "lr_at_upload":
                seen["clients"][k].lr = np.inf
            elif case == "nan_upload":
                params = msg.params.copy()
                params[3] = np.nan
                msg = dataclasses.replace(msg, params=params)
        return handle_upload(server, msg)

    def spy_aggregation(server):
        dispatches = run_aggregation(server)
        if case == "nan_dispatch" and server.round - 1 == poison_round:
            params = dispatches[k].params.copy()
            params[7] = np.nan
            dispatches[k] = dataclasses.replace(dispatches[k], params=params)
        return dispatches

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fedsim.experiment, "run_simulation", spy_simulation)
        patch.setattr(fedsim.simulation, "handle_upload", spy_upload)
        patch.setattr(fedsim.simulation, "run_aggregation", spy_aggregation)
        with pytest.raises(DivergenceError) as info:
            run_experiment(cfg)
    return info.value, seen["clients"]


# case -> (message, phase, batch index)
EXPECTED = {
    "lr_before_run": ("non-finite local training parameters", "local", 0),
    "lr_after_round": ("non-finite local training parameters", "local", 0),
    "lr_at_upload": ("non-finite async training parameters", "async", None),
    "nan_upload": ("non-finite upload", "upload", None),
    "nan_dispatch": ("non-finite dispatched parameters", "adopt", None),
}


def assert_named_alone(err, clients, k, case, poison_round):
    """err names client k, the round `case` fails in and its phase, and every
    other client's parts and centers are finite."""
    round_index = {"lr_before_run": 0, "lr_after_round": poison_round + 1}.get(
        case, poison_round)
    message, phase, batch_index = EXPECTED[case]
    assert (str(err), err.client_id, err.round_index, err.phase, err.batch_index) \
        == (message, k, round_index, phase, batch_index)
    for client in clients:
        if client.client_id != k:
            for part in PARTS:
                assert np.isfinite(getattr(client, part).params).all(), part
            assert np.isfinite(client.center_bank.centers).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * gradient
@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_divergence_names_the_poisoned_client_alone(case, k):
    err, clients = run_poisoned(ExperimentConfig(), k, case)
    assert_named_alone(err, clients, k, case, POISON_ROUND)


@st.composite
def poisoned_schedules(draw):
    """(config, client, site, round) of a drawn schedule that reaches the site."""
    n = draw(st.integers(2, 4))
    ticks = lambda hi: draw(st.lists(st.integers(0, hi), min_size=n, max_size=n))
    cfg = ExperimentConfig(
        rounds=draw(st.integers(1, 2)),
        synth=SynthSpec(n_clients=n, classes_per_client=10, samples_per_class=3),
        local_step_duration=ticks(2), upload_latency=ticks(4), download_latency=ticks(4),
        server_compute_time=draw(st.integers(0, 4)),
        async_step_duration=draw(st.integers(1, 3)))
    k = draw(st.integers(0, n - 1))
    case = draw(st.sampled_from(["lr_before_run", "lr_at_upload", "nan_upload",
                                 "nan_dispatch"]))
    if case == "lr_at_upload":
        # some async step of k falls between its upload's arrival and the
        # earliest return of its model
        sched, d = cfg.schedule(), cfg.async_step_duration
        up = sched.upload_latency[k]
        assume(max(1, -(-up // d)) * d
               <= up + sched.server_compute_time + sched.download_latency[k])
    return cfg, k, case, draw(st.integers(0, cfg.rounds - 1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * gradient
@settings(max_examples=40, deadline=None)
@given(poisoned=poisoned_schedules())
def test_drawn_schedule_divergence_names_the_poisoned_client_alone(poisoned):
    cfg, k, case, poison_round = poisoned
    err, clients = run_poisoned(cfg, k, case, poison_round)
    assert_named_alone(err, clients, k, case, poison_round)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * gradient
@pytest.mark.parametrize("k", range(4))
def test_group_async_step_fails_the_poisoned_member_alone(k):
    clients = alike_clients([0.05, 0.1, 0.02, 0.07])
    reference = alike_clients([0.05, 0.1, 0.02, 0.07])
    group, unpoisoned = ClientGroup(clients), ClientGroup(reference)
    group.local_rounds([0, 1, 2, 3])
    unpoisoned.local_rounds([0, 1, 2, 3])
    clients[k].lr = np.inf
    out = group.async_steps([0, 1, 2, 3])
    expected = unpoisoned.async_steps([0, 1, 2, 3])
    err = out.pop(k)
    assert isinstance(err, DivergenceError)
    assert (str(err), err.client_id, err.round_index, err.phase, err.batch_index) \
        == ("non-finite async training parameters", k, 0, "async", None)
    assert out == {g: loss for g, loss in expected.items() if g != k}
    for g, (a, b) in enumerate(zip(clients, reference)):
        if g != k:
            for part in PARTS:
                assert np.array_equal(getattr(a, part).params, getattr(b, part).params)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the loss
@pytest.mark.parametrize("k", range(4))
def test_group_local_round_isolates_an_exploding_member(k):
    # lr 1e200 keeps the parameters finite but makes a later loss NaN, which
    # the loss kernels reject for the whole stack; the member alone must be named
    lrs = [0.05, 0.1, 0.02, 0.07]
    alone = alike_clients([1e200 if g == k else lr for g, lr in enumerate(lrs)])[k]
    with pytest.raises(DivergenceError) as info:
        alone.local_train_round()
    clients = alike_clients([1e200 if g == k else lr for g, lr in enumerate(lrs)])
    reference = alike_clients(lrs)
    out = ClientGroup(clients).local_rounds([0, 1, 2, 3])
    expected = ClientGroup(reference).local_rounds([0, 1, 2, 3])
    err = out.pop(k)
    assert (str(err), err.client_id, err.round_index, err.phase, err.batch_index) == (
        str(info.value), k, 0, "local", info.value.batch_index)
    assert info.value.batch_index > 0
    for g, msg in out.items():
        assert np.array_equal(msg.params, expected[g].params)
        assert clients[g].last_epoch_losses == reference[g].last_epoch_losses


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * learning rate
@pytest.mark.parametrize("part", ["fusion", "head2"])
def test_stacked_step_names_a_bad_loss_and_a_bad_part_each_alone(part):
    # in the second stacked step, member 1 gets a NaN loss, member 2 an infinite
    # gradient entry of one part only, so only that part turns non-finite, and
    # member 3 both, which names its loss
    lrs = [0.05, 0.1, 0.02, 0.07]
    clients, reference = alike_clients(lrs), alike_clients(lrs)
    loss_and_grads = fedsim.client.local_loss_and_grads
    calls = []

    def poisoned(*args):
        loss, grads, z = loss_and_grads(*args)
        calls.append(np.shape(loss))
        if len(calls) == 2:
            assert np.shape(loss) == (4,)
            loss[[1, 3]] = np.nan
            grads[part][[2, 3], 3] = np.inf
        return loss, grads, z

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fedsim.client, "local_loss_and_grads", poisoned)
        out = ClientGroup(clients).local_rounds([0, 1, 2, 3])
    expected = ClientGroup(reference).local_rounds([0, 1, 2, 3])
    named = {g: (str(err), err.client_id, err.round_index, err.phase, err.batch_index)
             for g, err in ((g, out.pop(g)) for g in (1, 2, 3))}
    assert named == {1: ("non-finite local training loss", 1, 0, "local", 1),
                     2: ("non-finite local training parameters", 2, 0, "local", 1),
                     3: ("non-finite local training loss", 3, 0, "local", 1)}
    assert [other for other in PARTS
            if not np.isfinite(getattr(clients[2], other).params).all()] == [part]
    # member 0 ran on, alone once the stack had dead members, to the same bits
    assert calls[2:] and all(shape == (1,) for shape in calls[2:])
    assert list(out) == [0]
    assert np.array_equal(out[0].params, expected[0].params)
    assert clients[0].last_epoch_losses == reference[0].last_epoch_losses
    for other in PARTS:
        assert np.array_equal(getattr(clients[0], other).params,
                              getattr(reference[0], other).params)
