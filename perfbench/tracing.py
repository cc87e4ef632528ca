"""Outside-in tracing for the traced benchmark run.

Every span is recorded by a wrapper that this file installs around a public
function of the package; nothing inside `src/` is changed. `STAGES` maps each
layer name to the function it times. Backward time is split by stage through
`autodiff.record`: each node recorded while a stage span is open gets its
adjoint wrapped by a timer carrying that stage's label.

Spans are tuples (name, start, end, parent index, episode kind, episode id),
kept in memory and written out once the run ends.
"""

from __future__ import annotations

import gc
import importlib
import statistics
from collections import defaultdict
from time import perf_counter

from gyroshot import autodiff, metrics, netmods

# `gyroshot.train` as a package attribute is the train() function, not the
# module, so the module is looked up by name.
train_mod = importlib.import_module("gyroshot.train")

#: layer name -> (owner, attribute) of the public function its span times
STAGES = {
    "netmods.encoder": (netmods.Encoder, "__call__"),
    "geometry.midpoint": (train_mod, "einstein_midpoint"),
    "geometry.geodesic": (train_mod, "geodesic_distance"),
    "netmods.tangent": (netmods, "project_support"),
    "netmods.signature": (netmods.SignatureGenerator, "refine"),
    "netmods.relation": (netmods, "relation_scores"),
    "metrics.pairwise": (metrics, "pairwise_matrix"),
    "metrics.s2s": (metrics, "s2s_learned"),
    "metrics.combine": (metrics, "adaptive_combine"),
    # the residual self time of episode_forward: loss, reshapes, and the
    # glue between the stages above
    "train.loss": (train_mod, "episode_forward"),
}

#: spans that are not stages of the forward pass
OTHER_SPANS = {
    "episodes.sample": (train_mod, "sample_episode"),
    "autodiff.backward": (autodiff, "backward"),
    "train.optimizer": (train_mod.Adam, "step"),
}

_MB = 1e6


def typical(values) -> float:
    """Mean of the middle 80% of `values` (of all, when fewer than 10); 0
    when there are none.

    On a shared machine the CPU speed switches between modes for seconds at
    a time. The median of such a mixture jumps from one mode to the other
    as the share of time in each crosses one half. A trimmed mean moves in
    proportion to that share, and still drops GC pauses and other outliers.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    k = len(ordered) // 10
    return statistics.fmean(ordered[k:len(ordered) - k])


class Tracer:
    """Spans, per-stage backward time, and exact tape counts.

    `clock` supplies the kind and id of the episode window that is open when
    a span ends. Patches go in with `install` and come out with `uninstall`,
    so traced and untraced rounds can alternate in one process. Tape
    counting and GC timing stay on for the whole traced process.
    """

    def __init__(self, clock, param_names):
        self.clock = clock
        self.param_names = param_names
        self.spans = []
        self._stack = []          # indices of open spans
        self._names = []          # names of open spans
        self._saved = []
        self.bwd = defaultdict(float)        # (episode id, stage) -> seconds
        # exact counts are taken only while these are set, so that they
        # cover a fixed amount of work
        self.exact = False
        self.count_alive = False
        self.nodes = defaultdict(int)        # (episode id, stage) -> nodes
        self.nbytes = defaultdict(int)       # (episode id, stage) -> value bytes
        self.step_counts = []                # one dict per exact training step
        self.dead_sets = []
        self.alive = 0
        self.alive_max = 0
        self.gc_seconds = 0.0
        self._gc_t0 = None

    # -- install / uninstall -------------------------------------------------

    def start_process_counters(self) -> None:
        """Count live tapes and time GC pauses from here to the end."""
        gc.collect()
        self.alive = sum(isinstance(o, autodiff.Tape) for o in gc.get_objects())
        tape_init = autodiff.Tape.__init__
        tracer = self

        def counted_init(tape):
            tape_init(tape)
            tracer.alive += 1
            if tracer.count_alive:
                tracer.alive_max = max(tracer.alive_max, tracer.alive)

        def counted_del(tape):
            tracer.alive -= 1

        autodiff.Tape.__init__ = counted_init
        autodiff.Tape.__del__ = counted_del
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif self._gc_t0 is not None:
            if self.clock.traced:
                self.gc_seconds += perf_counter() - self._gc_t0
            self._gc_t0 = None

    def install(self) -> None:
        for name, (owner, attr) in {**STAGES, **OTHER_SPANS}.items():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._span(name, fn))
        self._saved.append((autodiff, "record", autodiff.record))
        autodiff.record = self._labelled_record(autodiff.record)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, names, clock = self.spans, self._stack, self._names, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            names.append(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                names.pop()
                # the episode is read at the end: a sample span opens the
                # window it belongs to
                spans[idx] = (name, t0, t1, parent, clock.kind, clock.step)

        return traced

    def _labelled_record(self, record):
        tracer, names, clock, bwd = self, self._names, self.clock, self.bwd

        def labelled(value, pulls, tape, op="op"):
            out = record(value, pulls, tape, op)
            key = (clock.step, names[-1] if names else "train.loss")
            if tracer.exact:
                tracer.nodes[key] += 1
                tracer.nbytes[key] += out.value.nbytes
            adjoint = out._backward

            def timed(g):
                t0 = perf_counter()
                adjoint(g)
                bwd[key] += perf_counter() - t0

            out._backward = timed
            return out

        return labelled

    # -- per-step analysis, run by the clock outside the timed window --------

    def after_step(self, root) -> None:
        """Tape totals, live-node share and dead parameters of one step."""
        if not self.exact:
            return
        nodes = root.tape.nodes
        index = {id(n): i for i, n in enumerate(nodes)}
        leaves = [i for i, n in enumerate(nodes) if n.op == "leaf"]
        from_param = [False] * len(nodes)
        for i in leaves:
            from_param[i] = True
        for i, n in enumerate(nodes):
            if not from_param[i] and any(from_param[index[id(p)]] for p in n.parents):
                from_param[i] = True
        to_root = [False] * len(nodes)
        to_root[index[id(root)]] = True
        for i in range(len(nodes) - 1, -1, -1):
            if to_root[i]:
                for p in nodes[i].parents:
                    to_root[index[id(p)]] = True
        live = sum(a and b for a, b in zip(from_param, to_root))
        names = self.param_names if len(self.param_names) == len(leaves) else [
            f"leaf{j}" for j in range(len(leaves))
        ]
        self.dead_sets.append({
            name for name, i in zip(names, leaves)
            if float(abs(nodes[i].grad).max(initial=0.0)) <= 1e-12
        })
        self.step_counts.append({
            "nodes": len(nodes),
            "live": live,
            "value_bytes": sum(n.value.nbytes for n in nodes),
            "grad_bytes": sum(n.grad.nbytes for n in nodes),
        })

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(kind, episode id) -> {span name: self seconds}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, t0, t1, _, kind, step) in enumerate(self.spans):
            out[(kind, step)][name] += (t1 - t0) - child[i]
        return out

    def per_layer(self, steps, primary: str) -> dict:
        """Per-layer metrics over the traced episodes `steps` of kind `primary`.

        Times are typical values per episode of self time; counts are
        maxima over the exact round's training steps.
        """
        selfs = self.self_times()

        def ms_per_step(fn):
            return typical([1e3 * fn(step) for step in steps])

        exact_steps = sorted({step for step, _ in self.nodes})
        out = {}
        for stage in STAGES:
            out[f"{stage}.fwd_ms"] = ms_per_step(lambda s: selfs[(primary, s)][stage])
            out[f"{stage}.bwd_ms"] = ms_per_step(lambda s: self.bwd.get((s, stage), 0.0))
            out[f"{stage}.tape_nodes"] = max(
                (self.nodes.get((s, stage), 0) for s in exact_steps), default=0)
            out[f"{stage}.tape_mb"] = max(
                (self.nbytes.get((s, stage), 0) for s in exact_steps), default=0) / _MB
        out["autodiff.backward_ms"] = ms_per_step(
            lambda s: selfs[(primary, s)]["autodiff.backward"])
        counts = self.step_counts
        out["autodiff.tape_nodes"] = max((c["nodes"] for c in counts), default=0)
        out["autodiff.tape_mb"] = max((c["value_bytes"] for c in counts), default=0) / _MB
        out["autodiff.grad_mb"] = max((c["grad_bytes"] for c in counts), default=0) / _MB
        out["autodiff.tapes_alive_max"] = self.alive_max
        out["autodiff.gc_ms"] = 1e3 * self.gc_seconds / len(steps) if steps else 0.0
        total_nodes = sum(c["nodes"] for c in counts)
        out["autodiff.live_node_frac"] = (
            sum(c["live"] for c in counts) / total_nodes if total_nodes else 0.0)
        out["autodiff.dead_params"] = len(self.dead_params())
        out["train.optimizer_ms"] = ms_per_step(
            lambda s: selfs[(primary, s)]["train.optimizer"])
        out["episodes.sample_ms"] = ms_per_step(
            lambda s: selfs[(primary, s)]["episodes.sample"])
        return out

    def dead_params(self) -> list:
        """Parameters with no gradient on every counted step."""
        return sorted(set.intersection(*self.dead_sets)) if self.dead_sets else []

    def exact_detail(self) -> dict:
        """What the exact counts were taken over, for the run record."""
        counts = self.step_counts
        return {
            "exact_steps": len(counts),
            "live_node_base": sum(c["nodes"] for c in counts),
            "dead_param_names": self.dead_params(),
        }
