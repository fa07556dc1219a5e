"""Self-test of the benchmark: workload shapes, counters, output checks, repeats.

The shape tests assert on traced counters, never on times, at a short
horizon, so a workload cannot drift off the layer it was chosen to stress.
pytest does not collect this file from the repository root; run it with

    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import copy
import dataclasses
import json
import os
import tempfile

import pytest

import run

run.import_program()

import harness  # noqa: E402
import tracing  # noqa: E402
from fairdispatch import baselines, data_io, episode, sim  # noqa: E402
from fairdispatch.config import load_config  # noqa: E402

_cache: dict = {}


def traced(name: str, **overrides) -> harness.Result:
    """Traced run of one episode of ``name`` with config ``overrides``, cached."""
    key = (name, tuple(sorted(overrides.items())))
    if key not in _cache:
        wl = harness.WORKLOADS[name]
        wl = dataclasses.replace(wl, overrides={**wl.overrides, **overrides},
                                 trace_episodes=1)
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as d:
            _cache[key] = harness.trace(wl, 0, d)
        assert _cache[key].failed == 0
    return _cache[key]


def values(result: harness.Result) -> dict:
    return {k: v for k, (v, _) in result.metrics.items()}


def test_md_std_never_falls_back_to_greedy():
    m = values(traced("eval-md-std", episode_slots=240))
    assert m["baselines.md_dispatch.calls"] == 240
    assert m["baselines.md_dispatch.greedy_calls"] == 0


@pytest.mark.parametrize("n_orders, greedy", [(10, 0), (70, 1)])
def test_greedy_fallback_is_counted(n_orders, greedy):
    # 70 open orders and 80 idle drivers pass the exact-assignment cap of 64
    cfg = load_config(overrides={"grid_rows": 2, "grid_cols": 2, "n_drivers": 80}, env={})
    world = sim.init_world(data_io.generate_scenario(cfg, 0), seed=0)
    for _ in range(n_orders):
        world.add_order(0, (0.5, 0.5), 1, (1.5, 0.5))
    tracer = tracing.Tracer()
    with tracer.installed():
        pairs = baselines.md_dispatch(list(world.open_orders), world)
    assert tracer.counts["md_dispatch.greedy_calls"] == greedy
    assert tracer.counts["md_dispatch.pairs"] == len(pairs) > 0


def test_large_city_candidate_sets_exceed_the_standard_city():
    large = values(traced("eval-actor-large", episode_slots=30))
    std = values(traced("train-std", episode_slots=360))
    assert large["sim.candidate_set.mean_size"] > std["sim.candidate_set.mean_size"] > 0


def test_training_update_sees_thousands_of_decisions():
    m = values(traced("train-std", episode_slots=360))
    assert 1000 <= m["trainer.actor_update.decisions"] < 10000
    assert m["nn.backward.calls"] > 0 and m["nn.adam_step.calls"] > 0


def test_counts_and_digest_repeat_for_a_seed():
    wl = dataclasses.replace(harness.WORKLOADS["eval-md-std"],
                             overrides={**harness.STD, "episode_slots": 120},
                             trace_episodes=2)
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as d:
            runs.append(harness.trace(wl, 7, d))
    counts = [{k: v for k, (v, unit) in r.metrics.items() if unit != "s"
               and k != "trace.overhead_ratio"} for r in runs]
    assert counts[0] == counts[1]
    assert runs[0].notes["digest"] == runs[1].notes["digest"]


def test_tracing_restores_every_name():
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing.TRACED]
    assert episode.candidate_set is sim.candidate_set
    wl = dataclasses.replace(harness.WORKLOADS["eval-md-std"],
                             overrides={**harness.STD, "episode_slots": 30},
                             trace_episodes=1)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as d:
        harness.trace(wl, 0, d)
    assert [vars(owner)[attr] for owner, attr, _, _ in tracing.TRACED] == before
    assert episode.init_world is sim.init_world
    assert episode.advance_slot is sim.advance_slot


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    wl = dataclasses.replace(harness.WORKLOADS["eval-md-std"],
                             overrides={**harness.STD, "episode_slots": 60})
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as d:
        result = harness.measure(wl, 0, 0.0, d)
    reported = {k: unit for k, (_, unit) in result.metrics.items()}
    assert reported == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {k: unit for k, (_, unit) in
              traced("eval-md-std", episode_slots=240).metrics.items()}
    assert layers == {m["name"]: m["unit"] for m in spec["per_layer"]}


@pytest.fixture(scope="module")
def finished_world():
    probe = harness.Probe()
    wl = dataclasses.replace(harness.WORKLOADS["eval-md-std"],
                             overrides={**harness.STD, "episode_slots": 240})
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as d, \
            probe.installed():
        ep = harness.Session(wl, 0, d, probe).run_episode(1)
    assert harness.check_episode(ep.world, ep.metrics) == []
    return ep


@pytest.mark.parametrize("breakage", ["open_twice", "expired_wait", "double_booking",
                                      "lost_order", "pvr"])
def test_output_checks_catch_broken_worlds(finished_world, breakage):
    world = copy.deepcopy(finished_world.world)
    metrics = dict(finished_world.metrics)
    served = [o for o in world.orders.values() if o.status == sim.COMPLETED]
    if breakage == "open_twice":
        served[0].status = sim.OPEN
        world.open_orders += [served[0].id, served[0].id]
    elif breakage == "expired_wait":
        served[0].status = sim.EXPIRED
        world.dispatch_log = [e for e in world.dispatch_log if e[0] != served[0].id]
    elif breakage == "double_booking":
        served[0].status = served[1].status = sim.ASSIGNED
        served[1].assigned_driver = served[0].assigned_driver
    elif breakage == "lost_order":
        world.dispatch_log = [e for e in world.dispatch_log if e[0] != served[0].id]
        served[0].status = sim.OPEN
    else:
        metrics["pvr"] = 1.5
    assert harness.check_episode(world, metrics)
