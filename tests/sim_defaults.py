"""The schedule that the simulation tests were written against, and the
timeline filter they read it back with.

`SimConfig` has no defaults of its own (`ExperimentConfig` is the one source
of them), so tests that pin a hand-picked schedule fill what they leave
unsaid from here.
"""

from fedsim.simulation import SimConfig

SCHEDULE = {"local_step_duration": 1, "upload_latency": 10, "download_latency": 10,
            "server_compute_time": 5, "async_step_duration": 2}


def sim_config(n_clients, rounds, **schedule) -> SimConfig:
    return SimConfig(n_clients=n_clients, rounds=rounds, **{**SCHEDULE, **schedule})


def by_kind(log, kind: str) -> list:
    """The records of a `TimelineLog` of one event kind, in log order."""
    return [r for r in log.records if r.kind == kind]
