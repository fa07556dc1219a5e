"""Span tracing from outside the program: wrap the names callers look up.

Every wrapper records a span ``(name, start, end, parent)`` in memory and,
where the layer has one, a work counter. A layer's self time is its span time
minus the time of its direct child spans. Calls made inside one module (for
example ``apply_dispatch`` re-running ``WorldState._available_within``) cannot
be seen from here and stay in the enclosing span's self time.
"""
from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict

import numpy as np

from fairdispatch import baselines, data_io, episode, human_factors, nn, sim, trainer


@contextlib.contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(original)`` and restore it on exit."""
    original = vars(owner)[attr]
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Spans and counters for one traced run; installed with ``with tracer.installed():``."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, observe=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if observe is not None:
                    observe(self.counts, args, kwargs, result)
                return result
            return wrapper
        return make

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name; all are restored when the block exits."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, observe in TRACED:
                stack.enter_context(patched(owner, attr, self._wrap(name, observe)))
            yield self

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict:
        """``{root span name: {span name: [self seconds, calls]}}``."""
        child = [0.0] * len(self.spans)
        root = [0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for i, (name, start, end, _) in enumerate(self.spans):
            cell = out[self.spans[root[i]][0]][name]
            cell[0] += end - start - child[i]
            cell[1] += 1
        return out


def _observe_candidates(c, args, kwargs, result):
    c["candidate_set.size"] += len(result)
    c["candidate_set.empty"] += not result


def _observe_features(c, args, kwargs, result):
    c["matching_features.rows"] += result.shape[0]


def _observe_forward(c, args, kwargs, result):
    net, x = args[0], args[1]
    rows = 1 if np.ndim(x) == 1 else len(x)
    c["forward.rows"] += rows
    # multiply-adds of the dense layers only, counted from the array shapes
    c["forward.flops"] += 2 * rows * sum(a * b for a, b in zip(net.widths[:-1], net.widths[1:]))


def _observe_actor_update(c, args, kwargs, result):
    c["actor_update.decisions"] += len(args[0])


def _observe_reward(c, args, kwargs, result):
    c["order_reward.cell_waits"] += len(args[1])


def _observe_advance(c, args, kwargs, result):
    c["open_orders.sum"] += len(args[0].open_orders)


_EXACT_CAP = inspect.signature(baselines.md_dispatch).parameters["exact_cap"].default


def _observe_md(c, args, kwargs, result):
    order_ids, world = args[0], args[1]
    cap = args[2] if len(args) > 2 else kwargs.get("exact_cap", _EXACT_CAP)
    status = world.driver_status
    available = sum(int(np.count_nonzero(status == s)) for s in sim.AVAILABLE)
    c["md_dispatch.orders"] += len(order_ids)
    c["md_dispatch.pairs"] += len(result)
    c["md_dispatch.greedy_calls"] += min(len(order_ids), available) > cap


# (owner, attribute, span name, observer) for every wrapped name. Span names
# are ``<defining module>.<function>``, so a span's layer is the module that
# does the work, not the module that looks the name up.
TRACED = [
    (data_io, "generate_scenario", "data_io.generate_scenario", None),
    (data_io, "save_scenario", "data_io.save_scenario", None),
    (data_io, "load_scenario", "data_io.load_scenario", None),
    (human_factors, "build_preference_profile", "human_factors.build_preference_profile", None),
    (trainer, "pretrain_actor", "trainer.pretrain_actor", None),
    (episode, "rollout", "episode.rollout", None),
    (trainer, "rollout", "episode.rollout", None),
    (episode, "init_world", "sim.init_world", None),
    (episode, "candidate_set", "sim.candidate_set", _observe_candidates),
    (episode, "apply_dispatch", "sim.apply_dispatch", None),
    (episode, "advance_slot", "sim.advance_slot", _observe_advance),
    (episode, "order_reward", "human_factors.order_reward", _observe_reward),
    (episode, "compute_metrics", "human_factors.compute_metrics", None),
    (episode.FeatureBuilder, "matching_features", "episode.matching_features", _observe_features),
    (episode.FeatureBuilder, "state_vec", "episode.state_vec", None),
    (trainer, "policy_distribution", "trainer.policy_distribution", None),
    (trainer, "select_agent", "trainer.select_agent", None),
    (trainer, "compute_gae", "trainer.compute_gae", None),
    (trainer, "attach_advantages", "trainer.attach_advantages", None),
    (trainer, "critic_update", "trainer.critic_update", None),
    (trainer, "actor_update", "trainer.actor_update", _observe_actor_update),
    (nn.Mlp, "forward", "nn.forward", _observe_forward),
    (nn.Mlp, "backward", "nn.backward", None),
    (nn.Adam, "step", "nn.adam_step", None),
    (baselines, "md_dispatch", "baselines.md_dispatch", _observe_md),
    (baselines, "linear_sum_assignment", "baselines.linear_sum_assignment", None),
]
