"""Deterministic discrete-event simulation of the asynchronous protocol.

Sim-time is integer ticks. Events at equal timestamps are ordered by a fixed
kind rank (server work first, async steps before model returns) and then by
subject id, so the processed sequence is a pure function of the inputs.

Clients train in groups (`client.ClientGroup`). The first local round or
async step of a group to come up on a tick trains every member with that
event queued on that tick, all in one stacked call or each as its own group
of one; each member's result waits until its own event is handled, in the
order above. Rebinding a member's arrays raises `ProtocolError`.
"""

import enum
import heapq
import json
from dataclasses import dataclass, field

from .client import Phase, group_clients
from .errors import ConfigError, DivergenceError
from .server import ServerState, handle_upload, run_aggregation
from .synth import _per_client


class EventKind(enum.Enum):
    # enum order doubles as the tie-break rank at equal timestamps
    AGGREGATION_DONE = 0
    UPLOAD_ARRIVED = 1
    ASYNC_STEP_DUE = 2
    MODEL_RETURNED = 3
    LOCAL_ROUND_DONE = 4
    EXPERIMENT_END = 5


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
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.n_clients < 1:
            raise ConfigError("n_clients must be >= 1")
        for name in ("local_step_duration", "upload_latency", "download_latency"):
            object.__setattr__(self, name, tuple(_ticks(name, v) for v in _per_client(
                getattr(self, name), self.n_clients, name)))
        object.__setattr__(self, "server_compute_time",
                           _ticks("server_compute_time", self.server_compute_time))
        if self.async_step_duration is not None:
            object.__setattr__(self, "async_step_duration",
                               _ticks("async_step_duration", self.async_step_duration, 1))


def _ticks(name, value, least=0) -> int:
    """`value` as an int number of ticks >= least; a fraction, NaN or inf is refused."""
    try:
        if int(value) == value and value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{name} must be a whole number of ticks >= {least}, got {value!r}")


@dataclass
class TimelineRecord:
    t: int
    kind: str
    subject: int          # client index, or -1 for the server
    round: int
    async_steps: int = 0
    idle: int = 0

    def as_json(self) -> str:
        return json.dumps({"t": self.t, "kind": self.kind, "subject": self.subject,
                           "round": self.round, "async_steps": self.async_steps,
                           "idle": self.idle})


@dataclass
class TimelineLog:
    records: list = field(default_factory=list)

    def append(self, rec: TimelineRecord) -> None:
        if self.records and rec.t < self.records[-1].t:
            raise ConfigError("timeline timestamps must be nondecreasing")
        self.records.append(rec)

    def export(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(rec.as_json() + "\n")


def run_simulation(cfg: SimConfig, clients, server: ServerState = None,
                   on_round_complete=None):
    """Drive clients (and optionally a server) through cfg.rounds federated rounds.

    Without a server a client's own upload returns on the tick its local round
    ends: no waiting, no async steps. Every round ends in the MODEL_RETURNED
    handler, which calls on_round_complete(client, round_index, t). A client's
    DivergenceError is raised when its own event is handled.

    Returns (TimelineLog, clients, server).
    """
    clients = list(clients)
    if len(clients) != cfg.n_clients:
        raise ConfigError("client count does not match SimConfig")
    if server is not None and server.client_ids != tuple(sorted(c.client_id for c in clients)):
        raise ConfigError(f"server client ids {server.client_ids} are not the clients' ids")

    log = TimelineLog()
    queue = []
    seq = 0

    def push(t, kind, subject, payload=None):
        nonlocal seq
        # `_value_`/`_name_`: plain attributes, not the Python-level `.value`/`.name`
        heapq.heappush(queue, (t, kind._value_, subject, seq, kind, payload))
        seq += 1

    d = cfg.async_step_duration
    first_round = [client.fed_round for client in clients]
    wait_start = [0] * cfg.n_clients
    async_count = [0] * cfg.n_clients
    # dispatches carry client ids, which need not equal list positions
    index_of = {client.client_id: i for i, client in enumerate(clients)}

    place = group_clients(clients)   # client index -> (its group, its row)
    # client index -> its result for the (tick, kind) being handled, not yet popped
    stash = {}

    def async_due(c, round_index):
        # a chain from an earlier round stops even if its client waits again
        return clients[c].phase is Phase.WAITING and clients[c].fed_round == round_index

    def train(t, kind, subject):
        """The result of subject's training event at t, trained together with
        every event of its group queued for the same tick and kind."""
        local = kind is EventKind.LOCAL_ROUND_DONE
        if subject not in stash:
            group = place[subject][0]
            due = {subject} | {
                c for (t_, _, c, _, kind_, payload) in queue
                if t_ == t and kind_ is kind and place[c][0] is group
                and c not in stash and (local or async_due(c, payload))}
            subject_at = {place[c][1]: c for c in due}
            step = group.local_rounds if local else group.async_steps
            for row, result in step(sorted(subject_at)).items():
                stash[subject_at[row]] = result
        result = stash.pop(subject)
        if isinstance(result, DivergenceError):
            raise result
        return result

    def start_round(c, t):
        client = clients[c]
        dur = cfg.local_step_duration[c] * client.local_epochs * client.n_batches()
        push(t + dur, EventKind.LOCAL_ROUND_DONE, c)

    for c in range(cfg.n_clients):
        start_round(c, 0)

    while queue:
        t, _, subject, _, kind, payload = heapq.heappop(queue)

        if kind is EventKind.LOCAL_ROUND_DONE:
            client = clients[subject]
            msg = train(t, kind, subject)
            log.append(TimelineRecord(t, kind._name_, subject, client.fed_round))
            wait_start[subject] = t
            async_count[subject] = 0
            if server is None:
                # ranks before LOCAL_ROUND_DONE: handled before any other round ending now
                push(t, EventKind.MODEL_RETURNED, subject, msg.params)
            else:
                push(t + cfg.upload_latency[subject], EventKind.UPLOAD_ARRIVED,
                     subject, msg)
                if d is not None:
                    push(t + d, EventKind.ASYNC_STEP_DUE, subject, client.fed_round)

        elif kind is EventKind.UPLOAD_ARRIVED:
            handle_upload(server, payload)
            log.append(TimelineRecord(t, kind._name_, -1, server.round))
            if server.ready:
                push(t + cfg.server_compute_time, EventKind.AGGREGATION_DONE, -1)

        elif kind is EventKind.AGGREGATION_DONE:
            dispatches = run_aggregation(server)
            log.append(TimelineRecord(t, kind._name_, -1, server.round - 1))
            for msg in dispatches:
                c = index_of[msg.client_id]
                push(t + cfg.download_latency[c], EventKind.MODEL_RETURNED, c,
                     msg.params)

        elif kind is EventKind.ASYNC_STEP_DUE:
            if async_due(subject, payload):
                train(t, kind, subject)
                async_count[subject] += 1
                log.append(TimelineRecord(t, kind._name_, subject, payload))
                push(t + d, EventKind.ASYNC_STEP_DUE, subject, payload)

        elif kind is EventKind.MODEL_RETURNED:
            client = clients[subject]
            round_index = client.fed_round
            client.adopt_global(payload)
            steps = async_count[subject]
            idle = t - wait_start[subject] - steps * (d or 0)
            log.append(TimelineRecord(t, kind._name_, subject, round_index,
                                      async_steps=steps, idle=idle))
            if on_round_complete is not None:
                on_round_complete(client, round_index, t)
            if client.fed_round - first_round[subject] < cfg.rounds:
                start_round(subject, t)
            else:
                client.finish()

    end_time = log.records[-1].t if log.records else 0
    log.append(TimelineRecord(end_time, EventKind.EXPERIMENT_END.name, -1,
                              cfg.rounds))
    return log, clients, server
