"""The schedule is planned in plain ints before any client trains, and the run
trains each group's share of it in stacked calls.

`plan` must order events as the event loop in `oracles.event_timeline` does,
and a run's timeline must be its plan. On a schedule whose clients are out of
lockstep, no local round runs for a member alone and no async step is stepped
member by member.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fedsim.client import ClientGroup
from fedsim.experiment import ExperimentConfig, run_experiment
from fedsim.simulation import SimConfig, TimelineLog, plan, run_simulation
from test_simulation import make_clients, make_server


@st.composite
def planned_runs(draw, max_clients=4, max_latency=12):
    """(SimConfig, steps per round, solo, first rounds): zero durations, no
    async steps, no server and clients that enter after round 0 included."""
    n = draw(st.integers(1, max_clients))
    ticks = lambda hi: st.lists(st.integers(0, hi), min_size=n, max_size=n)
    cfg = SimConfig(n_clients=n, rounds=draw(st.integers(1, 3)),
                    local_step_duration=draw(ticks(3)),
                    upload_latency=draw(ticks(max_latency)),
                    download_latency=draw(ticks(max_latency)),
                    server_compute_time=draw(st.integers(0, 6)),
                    async_step_duration=draw(st.none() | st.integers(1, 4)))
    solo = draw(st.booleans())
    # a server takes every upload of its own round only
    first = draw(ticks(2)) if solo else [draw(st.integers(0, 2))] * n
    return cfg, draw(st.lists(st.sampled_from([2, 4]), min_size=n, max_size=n)), solo, first


@settings(max_examples=150, deadline=None)
@given(run=planned_runs())
def test_plan_is_the_event_loop_order_in_plain_ints(run):
    cfg, steps, solo, first = run
    events = plan(cfg, steps, solo=solo, first_rounds=first)
    expected = oracles.event_timeline(cfg, steps, solo, first)
    assert [(c, rec.as_json()) for c, rec in events] \
        == [(c, rec.as_json()) for c, rec in expected]
    for c, rec in events:
        assert type(c) is int
        assert all(type(v) in (int, str) for v in vars(rec).values()), rec


@settings(max_examples=25, deadline=None)
@given(run=planned_runs(max_clients=3, max_latency=6))
def test_run_timeline_is_its_plan(run, tmp_path_factory):
    cfg, steps, solo, first = run
    # two local batches per epoch: epochs 1 and 2 give 2 and 4 steps a round
    one, two = make_clients(cfg.n_clients, epochs=1), make_clients(cfg.n_clients, epochs=2)
    clients = [(one if k == 2 else two)[c] for c, k in enumerate(steps)]
    for client, r in zip(clients, first):
        client.fed_round = r
    server = None if solo else make_server(cfg.n_clients)
    if server is not None:
        server.round = first[0]
    log, _, _ = run_simulation(cfg, clients, server)
    path = tmp_path_factory.mktemp("plan")
    log.export(path / "run.log")
    TimelineLog([rec for _, rec in plan(cfg, steps, solo=solo, first_rounds=first)]
                ).export(path / "plan.log")
    assert (path / "run.log").read_bytes() == (path / "plan.log").read_bytes()


def group_calls(monkeypatch):
    """Record each `local_rounds` call's row count, and each `async_steps`
    call's longest step count against the stacked steps it made."""
    calls = {"local": [], "async": []}
    local_rounds, async_steps, step = (ClientGroup.local_rounds, ClientGroup.async_steps,
                                       ClientGroup._step)

    def counted_rounds(group, rows):
        calls["local"].append(len(rows))
        return local_rounds(group, rows)

    def counted_steps(group, counts):
        calls["async"].append([max(counts.values(), default=0), 0])
        return async_steps(group, counts)

    def counted_step(group, rows, phase, *args):
        if phase == "async":
            calls["async"][-1][1] += 1
        return step(group, rows, phase, *args)

    monkeypatch.setattr(ClientGroup, "local_rounds", counted_rounds)
    monkeypatch.setattr(ClientGroup, "async_steps", counted_steps)
    monkeypatch.setattr(ClientGroup, "_step", counted_step)
    return calls


def test_out_of_lockstep_run_steps_no_member_alone(monkeypatch):
    calls = group_calls(monkeypatch)
    run_experiment(ExperimentConfig(local_step_duration=(1, 2, 1, 3),
                                    upload_latency=(25, 20, 30, 25)))
    assert calls["local"] == [4] * 10
    # every async step of a call is one stacked step of all its due members
    assert calls["async"] and all(steps == made for steps, made in calls["async"])


def test_lockstep_run_makes_at_most_three_async_calls_a_round(monkeypatch):
    calls = group_calls(monkeypatch)
    cfg = ExperimentConfig()
    run_experiment(cfg)
    # the default clients share every shape: one group
    assert calls["local"] == [4] * cfg.rounds
    assert len(calls["async"]) <= 3 * cfg.rounds
