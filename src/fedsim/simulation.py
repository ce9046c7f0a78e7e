"""Deterministic simulation of the asynchronous protocol: a plan, then a run.

`plan` orders every event from the schedule alone, in plain int ticks: events
at equal timestamps go by a fixed kind rank (server work first, async steps
before model returns), then by subject id. `run_simulation` walks that order.
A client's training runs ahead of its events, stacked with its group's
(`client.ClientGroup`): its local round once its model is back, its async steps
up to the group's next gate (a member's upload or model return, or the
aggregation). The hook at a run of model returns may change those returns'
clients, not another one. Rebinding a member's arrays raises `ProtocolError`.
"""

import enum
import json
from bisect import bisect, bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush

from .client import Phase, group_clients
from .errors import ConfigError, DivergenceError, per_client, whole
from .server import ServerState, handle_upload, run_aggregation


class EventKind(enum.Enum):
    # enum order doubles as the tie-break rank at equal timestamps
    AGGREGATION_DONE = 0
    UPLOAD_ARRIVED = 1
    ASYNC_STEP_DUE = 2
    MODEL_RETURNED = 3
    LOCAL_ROUND_DONE = 4
    EXPERIMENT_END = 5


TRAINING = (EventKind.LOCAL_ROUND_DONE.name, EventKind.ASYNC_STEP_DUE.name)


@dataclass(frozen=True)
class SimConfig:
    """One run's schedule in ticks; `ExperimentConfig` holds its defaults."""

    n_clients: int
    rounds: int
    local_step_duration: object     # scalar or per-client, ticks per SGD step
    upload_latency: object          # scalar or per-client
    download_latency: object        # scalar or per-client
    server_compute_time: int
    async_step_duration: object     # None disables async training

    def __post_init__(self):
        object.__setattr__(self, "rounds", whole("rounds", self.rounds, 1))
        object.__setattr__(self, "n_clients", whole("n_clients", self.n_clients, 1))
        for name in ("local_step_duration", "upload_latency", "download_latency"):
            object.__setattr__(self, name, per_client(getattr(self, name), self.n_clients,
                                                      name, least=0))
        object.__setattr__(self, "server_compute_time",
                           whole("server_compute_time", self.server_compute_time))
        if self.async_step_duration is not None:
            object.__setattr__(self, "async_step_duration",
                               whole("async_step_duration", self.async_step_duration, 1))


@dataclass
class TimelineRecord:
    t: int
    kind: str
    subject: int          # client index, or -1 for the server
    round: int
    async_steps: int = 0
    idle: int = 0

    def as_json(self) -> str:
        return json.dumps(vars(self))


@dataclass
class TimelineLog:
    records: list   # TimelineRecords in plan order

    def export(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(rec.as_json() + "\n")


def plan(cfg: SimConfig, steps_per_round, *, solo=False, first_rounds=None) -> list:
    """Every event of a run in order, as (client index, TimelineRecord) pairs of
    plain ints. The index is -1 for the aggregation and the end; for an upload
    it names the client, where the record names the server.

    Client c trains steps_per_round[c] steps per local round from round
    first_rounds[c] (0 by default); a `solo` run has no server.
    """
    n, d = cfg.n_clients, cfg.async_step_duration
    agg, upload, step, ret, local, _ = (kind.value for kind in EventKind)
    names = [kind.name for kind in EventKind]
    at = list(first_rounds or [0] * n)   # each client's round
    end = [r + cfg.rounds for r in at]
    dur = [cfg.local_step_duration[c] * steps_per_round[c] for c in range(n)]
    done_at, steps, uploads = [0] * n, [0] * n, 0
    queue, events = sorted((dur[c], local, c, at[c]) for c in range(n)), []   # a heap
    while queue:
        t, kind, c, r = heappop(queue)
        subject, extra = c, ()
        if kind == step:
            if at[c] != r:
                continue   # its round's model has returned: the chain stops
            steps[c] += 1
            heappush(queue, (t + d, step, c, r))
        elif kind == local:
            done_at[c], steps[c] = t, 0
            if solo:   # ranks before LOCAL_ROUND_DONE: the next event at t
                heappush(queue, (t, ret, c, r))
            else:
                heappush(queue, (t + cfg.upload_latency[c], upload, c, r))
                if d is not None:
                    heappush(queue, (t + d, step, c, r))
        elif kind == upload:
            subject, uploads = -1, uploads + 1
            if uploads % n == 0:   # the last upload of the round
                heappush(queue, (t + cfg.server_compute_time, agg, -1, r))
        elif kind == agg:
            for c_ in range(n):
                heappush(queue, (t + cfg.download_latency[c_], ret, c_, r))
        else:
            extra = (steps[c], t - done_at[c] - steps[c] * (d or 0))
            at[c] += 1
            if at[c] < end[c]:
                heappush(queue, (t + dur[c], local, c, at[c]))
        events.append((c, TimelineRecord(t, names[kind], subject, r, *extra)))
    last = events[-1][1].t if events else 0
    events.append((-1, TimelineRecord(last, EventKind.EXPERIMENT_END.name, -1, cfg.rounds)))
    return events


def run_simulation(cfg: SimConfig, clients, server: ServerState = None,
                   on_round_complete=None):
    """Drive clients (and optionally a server) through cfg.rounds federated rounds.

    Without a server a client's own upload returns on the tick its local round
    ends: no waiting, no async steps. Every round ends in its MODEL_RETURNED
    event. After the last adoption of a run of such events (no client trains
    within it), on_round_complete(returns) gets their (client, round_index, t) in
    plan order; then the clients that ran their last round finish. A training
    op's DivergenceError is raised at the op's place in `plan`.

    Returns (TimelineLog, clients, server).
    """
    clients = list(clients)
    if len(clients) != cfg.n_clients:
        raise ConfigError("client count does not match SimConfig")
    if server is not None and server.client_ids != tuple(sorted(c.client_id for c in clients)):
        raise ConfigError(f"server client ids {server.client_ids} are not the clients' ids")

    events = plan(cfg, [c.local_epochs * c.n_batches() for c in clients], solo=server is None,
                  first_rounds=[client.fed_round for client in clients])
    end = len(events)
    # each client's training ops and gates as plan positions; its ops end in `end`
    ops, gates = [[end] for _ in clients], [[] for _ in clients]
    for i, (c, rec) in enumerate(events):
        if rec.kind in TRAINING:
            ops[c].insert(-1, i)
        else:   # the aggregation and the end are every client's gates
            for own in gates if c < 0 else [gates[c]]:
                own.append(i)
    place = group_clients(clients)   # client index -> (its group, its members by row)
    # failed: plan position -> error; run: the (c, record) of the returns walked in a row
    ran, uploads, failed, run = [0] * cfg.n_clients, {}, {}, []

    def train(i, group, members):
        """In stacked calls: the local round of each member whose model is back,
        and each member's async steps before the group's next gate after i."""
        local = [row for row, c in enumerate(members)
                 if clients[c].phase is Phase.LOCAL_TRAINING and ops[c][ran[c]] < end]
        for row, msg in (group.local_rounds(local) if local else {}).items():
            uploads[members[row]] = msg
            settle(members[row], [msg])
        until = min(gates[c][bisect(gates[c], i)] for c in members)
        steps = {row: k for row, c in enumerate(members)
                 if (k := bisect_left(ops[c], until, ran[c]) - ran[c])}
        for row, losses in (group.async_steps(steps) if steps else {}).items():
            settle(members[row], losses)

    def settle(c, out):
        """Count the ops of c that ran; an error keeps its op's place, and c runs no more."""
        if isinstance(out[-1], DivergenceError):
            failed[ops[c][ran[c] + len(out) - 1]], ran[c] = out[-1], len(ops[c]) - 1
        else:
            ran[c] += len(out)

    for i, (c, rec) in enumerate(events):
        if rec.kind in TRAINING:
            if ops[c][ran[c]] == i:
                train(i, *place[c])
            if i in failed:
                raise failed[i]
        elif rec.kind == EventKind.UPLOAD_ARRIVED.name:
            handle_upload(server, uploads.pop(c))
        elif rec.kind == EventKind.AGGREGATION_DONE.name:
            returned = {msg.client_id: msg.params for msg in run_aggregation(server)}
        elif rec.kind == EventKind.MODEL_RETURNED.name:
            clients[c].adopt_global(uploads.pop(c).params if server is None
                                    else returned[clients[c].client_id])
            run.append((c, rec))
            if events[i + 1][1].kind != rec.kind:   # the last return of its run
                if on_round_complete is not None:
                    on_round_complete([(clients[c_], r.round, r.t) for c_, r in run])
                for c_, _ in run:
                    if ops[c_][ran[c_]] == end:   # its last round
                        clients[c_].finish()
                run = []
    return TimelineLog([rec for _, rec in events]), clients, server
