"""Workloads, the closed episode loop, output checks and metric reduction.

The harness drives the library the way ``fairdispatch.cli`` does:
``generate_scenario`` -> ``save_scenario``/``load_scenario`` ->
``build_runtime`` -> ``new_train_state`` -> ``train`` or ``rollout``. Every
name is looked up on its module at call time, so the tracer's wrappers apply.
"""
from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy

import fairdispatch
from fairdispatch import baselines, data_io, episode, sim, trainer
from fairdispatch.config import load_config

from tracing import Tracer, patched

# the standard acceptance city: 10x10 grid, 200 drivers, 5,000 orders/day, 1,440 slots
STD = {"w_base": 130.0, "lambda_lr": 2e-4}
LARGE = {**STD, "grid_rows": 20, "grid_cols": 20, "n_drivers": 2000, "orders_per_day": 50000}


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict
    policy: str            # "train", "actor" (greedy) or "md"
    cities: int            # cities per run, set up one after another; setup_s is the
                           # median set-up
    guard_episodes: int    # every run completes these, spread evenly over the cities;
                           # the quality guards and the digest cover them
    trace_episodes: int    # episodes in each pass of a traced run


# slot_ms.tail. Higher percentiles also have more than 10 slots beyond them
# on every workload, but they amplify host contention: p99 spread 0.34
# across ten seeds where the median spread 0.19.
TAIL_PCT = 95


# Cities differ in where demand and drivers sit, which moves the guards and
# the cost of an episode, so each run covers several rather than hinging on one.
WORKLOADS = {w.name: w for w in (
    Workload("train-std", STD, "train", cities=7, guard_episodes=7, trace_episodes=2),
    Workload("eval-md-std", STD, "md", cities=10, guard_episodes=20, trace_episodes=6),
    Workload("eval-actor-large", {**LARGE, "episode_slots": 120}, "actor", cities=12,
             guard_episodes=12, trace_episodes=4),
)}


# -- one episode ---------------------------------------------------------------

class Probe:
    """Captures the world each episode builds and stamps the end of every slot advance."""

    def __init__(self):
        self.world: sim.WorldState | None = None
        self.stamps: list[float] = []

    @contextlib.contextmanager
    def installed(self):
        def wrap_init(fn):
            def init_world(*args, **kwargs):
                self.world = fn(*args, **kwargs)
                self.stamps = [time.perf_counter()]
                return self.world
            return init_world

        def wrap_advance(fn):
            def advance_slot(*args, **kwargs):
                fn(*args, **kwargs)
                self.stamps.append(time.perf_counter())
            return advance_slot

        with patched(episode, "init_world", wrap_init), \
                patched(episode, "advance_slot", wrap_advance):
            yield self


@dataclass
class Episode:
    seconds: float
    slot_ms: np.ndarray
    world: sim.WorldState
    metrics: dict


def derived_seed(seed: int, stream: int, i: int) -> int:
    """Seed of city (stream 100) or episode (stream 400) ``i`` of the run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, stream, i]).generate_state(1)[0])


class Session:
    """A city set up once, with its policy, ready to run episodes in order."""

    def __init__(self, workload: Workload, seed: int, workdir: str, probe: Probe):
        self.workload = workload
        self.probe = probe
        self.cfg = load_config(overrides=workload.overrides, env={})
        scenario = data_io.generate_scenario(self.cfg, seed)
        with tempfile.TemporaryDirectory(dir=workdir) as d:
            data_io.save_scenario(scenario, d)
            scenario = data_io.load_scenario(d)
        self.runtime = episode.build_runtime(scenario, self.cfg)
        self.state = None
        if workload.policy == "md":
            self.policy = baselines.MdPolicy(int(self.cfg["assignment_exact_cap"]))
        else:
            self.state = trainer.new_train_state(
                self.cfg, self.runtime.features.feature_dim, seed)
            self.policy = trainer.ActorPolicy(self.state.actor, "greedy")

    def run_episode(self, ep_seed: int) -> Episode:
        t0 = time.perf_counter()
        if self.workload.policy == "train":
            _, logs = trainer.train(lambda: self.runtime, self.state, 1, base_seed=ep_seed)
            metrics = {k: logs[-1][k] for k in ("apwt", "pf_inter", "pf_intra", "pvr")}
        else:
            metrics = episode.rollout(self.runtime, self.policy, ep_seed).metrics.as_dict()
        seconds = time.perf_counter() - t0
        return Episode(seconds, np.diff(self.probe.stamps) * 1e3, self.probe.world, metrics)


# -- output checks ---------------------------------------------------------------

SERVED = (sim.ASSIGNED, sim.PICKED_UP, sim.COMPLETED)
STATUSES = (sim.OPEN, sim.EXPIRED, *SERVED)


def check_episode(world: sim.WorldState, metrics: dict) -> list[str]:
    """Invariants every finished episode must satisfy; returns the violations."""
    problems = []
    orders = world.orders
    status = Counter(o.status for o in orders.values())
    if set(status) - set(STATUSES):
        problems.append(f"unknown order status {sorted(set(status) - set(STATUSES))}")
    open_ids = world.open_orders
    if (len(set(open_ids)) != len(open_ids)
            or set(open_ids) != {oid for oid, o in orders.items() if o.status == sim.OPEN}):
        problems.append("open-order list disagrees with order statuses")
    served = sum(status[s] for s in SERVED)
    logged = {oid for oid, _, _ in world.dispatch_log}
    if len(logged) != len(world.dispatch_log) or len(logged) != served:
        problems.append("dispatch log disagrees with served orders")
    if len(orders) != served + status[sim.EXPIRED] + len(open_ids):
        problems.append(f"created {len(orders)} != served {served} + expired "
                        f"{status[sim.EXPIRED]} + open {len(open_ids)}")
    # max_wait_slots is the matching deadline: an order open that long expires
    # with its wait set to the cap. A matched order's wait also includes the
    # drive to the pickup, which is at most the pickup radius away.
    scen = world.scenario
    cap = scen.max_wait_slots * scen.slot_seconds
    drive = sim.travel_time((0.0, 0.0), (scen.pickup_radius_km, 0.0), scen.speed_kmh,
                            scen.slot_seconds) * scen.slot_seconds
    if any(o.wait_seconds != cap for o in orders.values() if o.status == sim.EXPIRED):
        problems.append(f"an expired order's wait is not the cap {cap} s")
    if any(world.clock.slot - orders[oid].creation_slot > scen.max_wait_slots
           for oid in open_ids):
        problems.append("an order is open past the matching deadline")
    worst = max((o.wait_seconds for o in orders.values() if o.status in SERVED), default=0)
    if worst > cap + drive:
        problems.append(f"wait {worst} s exceeds the cap {cap} s plus the longest "
                        f"pickup drive {drive} s")
    held = world.driver_order[world.driver_order >= 0]
    busy = [o.assigned_driver for o in orders.values()
            if o.status in (sim.ASSIGNED, sim.PICKED_UP)]
    if len(set(held.tolist())) != held.size or len(set(busy)) != len(busy):
        problems.append("a driver holds two orders, or an order has two drivers")
    if not all(np.isfinite(v) for v in metrics.values()):
        problems.append(f"non-finite metrics {metrics}")
    elif not 0.0 <= metrics["pvr"] <= 1.0:
        problems.append(f"pvr {metrics['pvr']} outside [0, 1]")
    return problems


class Tally:
    """Episode outcomes of one pass: timings, guard totals, failures and digest."""

    def __init__(self, guard_episodes: int):
        self.guard_episodes = guard_episodes
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0  # wall seconds of every attempted episode, failed ones too
        self.seconds: list[float] = []
        self.slot_ms: list[np.ndarray] = []
        self.dispatches = 0
        self.guard = {"apwt": [], "pf_inter": [], "pf_intra": [], "pvr": []}
        self.created = self.served = 0
        self.over_cap = 0  # matched orders whose wait, pickup drive included, exceeds the cap
        self.digest = hashlib.sha256()

    def run(self, session: Session, i: int, ep_seed: int) -> Episode | None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            ep = session.run_episode(ep_seed)
            problems = check_episode(ep.world, ep.metrics)
        except Exception:  # noqa: BLE001 - a failed episode is counted, the run goes on
            traceback.print_exc()
            problems = ["raised an error"]
        self.busy += time.perf_counter() - t0
        if problems:
            print(f"episode {i} failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        world = ep.world
        self.seconds.append(ep.seconds)
        self.slot_ms.append(ep.slot_ms)
        self.dispatches += len(world.dispatch_log)
        if i < self.guard_episodes:
            for k in self.guard:
                self.guard[k].append(ep.metrics[k])
            self.created += len(world.orders)
            self.served += len(world.dispatch_log)
            cap = world.scenario.max_wait_slots * world.scenario.slot_seconds
            self.over_cap += sum(o.status in SERVED and o.wait_seconds > cap
                                 for o in world.orders.values())
            self.digest.update(repr(world.dispatch_log).encode())
            self.digest.update(repr([(oid, o.wait_seconds)
                                     for oid, o in world.orders.items()]).encode())
            if session.workload.policy == "train":
                self.digest.update(session.state.actor.flat_parameters().tobytes())
        return ep


# -- runs -------------------------------------------------------------------------

@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict   # name -> (value, unit)
    notes: dict     # printed with the result, not part of it


def measure(workload: Workload, seed: int, seconds: float, workdir: str) -> Result:
    """Untraced run: the guard episodes, spread over the cities, then more episodes
    in the last city until the episodes have taken ``seconds`` in all."""
    per_city = workload.guard_episodes // workload.cities
    probe = Probe()
    setup_times = []
    tally = Tally(workload.guard_episodes)
    i = 0
    with probe.installed():
        for k in range(workload.cities):
            session = None  # one city in memory at a time
            t0 = time.perf_counter()
            session = Session(workload, derived_seed(seed, 100, k), workdir, probe)
            setup_times.append(time.perf_counter() - t0)
            for _ in range(per_city):
                tally.run(session, i, derived_seed(seed, 400, i))
                i += 1
        while tally.busy < seconds:
            tally.run(session, i, derived_seed(seed, 400, i))
            i += 1
    metrics = {"setup_s": (float(np.median(setup_times)), "s")}
    if tally.seconds:
        slots = np.concatenate(tally.slot_ms)
        metrics.update({
            "episode_s": (float(np.median(tally.seconds)), "s"),
            "slot_ms.p50": (float(np.median(slots)), "ms"),
            "slot_ms.tail": (float(np.percentile(slots, TAIL_PCT)), "ms"),
            "decisions_per_s": (tally.dispatches / sum(tally.seconds), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        })
    if len(tally.guard["apwt"]) == workload.guard_episodes:
        metrics.update({
            "apwt_s": (float(np.median(tally.guard["apwt"])), "s"),
            "pvr": (float(np.median(tally.guard["pvr"])), "ratio"),
            "served_ratio": (tally.served / tally.created, "ratio"),
        })
    notes = {
        "failed_ratio": f"{tally.failed / tally.attempted:.4f} ratio",
        "episodes": len(tally.seconds),
        "slots": int(sum(s.size for s in tally.slot_ms)),
        "tail": f"p{TAIL_PCT}",
        # fairness of the guard episodes: too noisy from episode to episode to
        # gate on, but deterministic for a seed
        **{k: f"{np.median(v):.6g} min2" for k, v in tally.guard.items()
           if k.startswith("pf_") and v},
        "waits_over_cap": tally.over_cap,
        "digest": tally.digest.hexdigest(),
    }
    return Result(tally.attempted, tally.failed, metrics, notes)


def trace(workload: Workload, seed: int, workdir: str) -> Result:
    """Traced run on the first city: its first episodes untraced, then the same
    set-up and episodes traced. Per-layer metrics are per episode."""
    n = workload.trace_episodes
    city = derived_seed(seed, 100, 0)
    probe = Probe()
    with probe.installed():
        session = Session(workload, city, workdir, probe)
        plain = Tally(n)
        for i in range(n):
            plain.run(session, i, derived_seed(seed, 400, i))
        tracer = Tracer()
        traced = Tally(n)
        worlds = []
        with tracer.installed():
            session = None
            with tracer.span("bench.setup"):
                session = Session(workload, city, workdir, probe)
            for i in range(n):
                with tracer.span("bench.episode"):
                    ep = traced.run(session, i, derived_seed(seed, 400, i))
                if ep is not None:
                    worlds.append(ep.world)
    failed = plain.failed + traced.failed
    if not failed and traced.digest.hexdigest() != plain.digest.hexdigest():
        print("tracing changed the episode outputs", file=sys.stderr)
        failed += 1
    metrics = layer_metrics(tracer, n, worlds)
    if plain.seconds and traced.seconds:
        metrics["trace.episode_s"] = (float(np.median(traced.seconds)), "s")
        metrics["trace.overhead_ratio"] = (
            float(np.median(traced.seconds) / np.median(plain.seconds)), "ratio")
    notes = {"digest": traced.digest.hexdigest(), "trace_episodes": n,
             "spans": len(tracer.spans)}
    return Result(plain.attempted + traced.attempted, failed, metrics, notes)


def layer_metrics(tracer: Tracer, n: int, worlds: list) -> dict:
    """Per-layer metrics of a traced run: per episode, except set-up layers (per set-up)."""
    times = tracer.self_times()
    ep, setup = times["bench.episode"], times["bench.setup"]
    c = tracer.counts

    def self_s(name, phase=ep, per=n):
        return (phase[name][0] / per, "s")

    def calls(name):
        return (ep[name][1] / n, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    cand_calls = ep["sim.candidate_set"][1]
    fwd_calls = ep["nn.forward"][1]
    md_calls = ep["baselines.md_dispatch"][1]
    reward_calls = ep["human_factors.order_reward"][1]
    return {
        "sim.advance_slot.calls": calls("sim.advance_slot"),
        "sim.advance_slot.self_s": self_s("sim.advance_slot"),
        "sim.apply_dispatch.calls": calls("sim.apply_dispatch"),
        "sim.apply_dispatch.self_s": self_s("sim.apply_dispatch"),
        "sim.init_world.self_s": self_s("sim.init_world"),
        "sim.orders.created": (sum(len(w.orders) for w in worlds) / n, "count"),
        "sim.orders.expired": (sum(o.status == sim.EXPIRED for w in worlds
                                   for o in w.orders.values()) / n, "count"),
        "sim.open_orders.mean": (ratio(c["open_orders.sum"], ep["sim.advance_slot"][1]), "count"),
        "sim.candidate_set.calls": calls("sim.candidate_set"),
        "sim.candidate_set.self_s": self_s("sim.candidate_set"),
        "sim.candidate_set.mean_size": (ratio(c["candidate_set.size"], cand_calls), "count"),
        "sim.candidate_set.empty_ratio": (ratio(c["candidate_set.empty"], cand_calls), "ratio"),
        "episode.matching_features.calls": calls("episode.matching_features"),
        "episode.matching_features.rows": (c["matching_features.rows"] / n, "count"),
        "episode.matching_features.self_s": self_s("episode.matching_features"),
        "episode.state_vec.self_s": self_s("episode.state_vec"),
        "episode.rollout.self_s": self_s("episode.rollout"),
        "nn.forward.calls": calls("nn.forward"),
        "nn.forward.rows_per_call": (ratio(c["forward.rows"], fwd_calls), "count"),
        "nn.forward.self_s": self_s("nn.forward"),
        "nn.forward.flops": (c["forward.flops"] / n, "flop_computed"),
        "nn.backward.calls": calls("nn.backward"),
        "nn.backward.self_s": self_s("nn.backward"),
        "nn.adam_step.calls": calls("nn.adam_step"),
        "nn.adam_step.self_s": self_s("nn.adam_step"),
        "trainer.policy_distribution.self_s": self_s("trainer.policy_distribution"),
        "trainer.select_agent.self_s": self_s("trainer.select_agent"),
        "trainer.compute_gae.self_s": self_s("trainer.compute_gae"),
        "trainer.attach_advantages.self_s": self_s("trainer.attach_advantages"),
        "trainer.critic_update.self_s": self_s("trainer.critic_update"),
        "trainer.actor_update.self_s": self_s("trainer.actor_update"),
        "trainer.actor_update.decisions": (c["actor_update.decisions"] / n, "count"),
        "baselines.md_dispatch.calls": calls("baselines.md_dispatch"),
        "baselines.md_dispatch.self_s": self_s("baselines.md_dispatch"),
        "baselines.md_dispatch.mean_orders": (ratio(c["md_dispatch.orders"], md_calls), "count"),
        "baselines.md_dispatch.greedy_calls": (c["md_dispatch.greedy_calls"] / n, "count"),
        "baselines.md_dispatch.match_ratio": (
            ratio(c["md_dispatch.pairs"], c["md_dispatch.orders"]), "ratio"),
        "baselines.linear_sum_assignment.self_s": self_s("baselines.linear_sum_assignment"),
        "human_factors.order_reward.calls": calls("human_factors.order_reward"),
        "human_factors.order_reward.self_s": self_s("human_factors.order_reward"),
        "human_factors.order_reward.mean_cell_waits": (
            ratio(c["order_reward.cell_waits"], reward_calls), "count"),
        "human_factors.compute_metrics.self_s": self_s("human_factors.compute_metrics"),
        "human_factors.build_preference_profile.calls": (
            setup["human_factors.build_preference_profile"][1], "count"),
        "human_factors.build_preference_profile.self_s": self_s(
            "human_factors.build_preference_profile", setup, 1),
        "data_io.generate_scenario.self_s": self_s("data_io.generate_scenario", setup, 1),
        "data_io.save_scenario.self_s": self_s("data_io.save_scenario", setup, 1),
        "data_io.load_scenario.self_s": self_s("data_io.load_scenario", setup, 1),
        "trainer.pretrain_actor.self_s": self_s("trainer.pretrain_actor", setup, 1),
        "trace.unattributed_s": self_s("bench.episode"),
    }


# -- environment stamp ------------------------------------------------------------

def environment(root: str) -> dict:
    """Core count, library versions, BLAS thread settings and commit of this result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "fairdispatch": fairdispatch.__version__,
        "commit": _commit(root),
        **{k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _commit(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return "unknown"
    return lines[1]
