"""Span tracer that wraps chaincover's public functions from outside.

Each traced layer is one public function or method.  ``Tracer.install``
replaces it under every name that refers to it in a loaded ``chaincover``
module (``chaincover.chain.nested_chain`` and the copies that
``conformal``, ``experiments`` and the package namespace imported), so no
call escapes its span.  A span records name, start, end, parent span and the
operation it belongs to; self time is the span's duration minus the time its
direct children cover.  Spans stay in memory until ``summary`` reads them.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
from collections import Counter
from time import perf_counter

# (layer, module, attribute path); the layer name is the metric prefix
TARGETS = (
    ("flows.init", "chaincover.flows", "LagrangianCutSolver.__init__"),
    ("flows.solve", "chaincover.flows", "LagrangianCutSolver.solve"),
    ("hypergraph.build", "chaincover.hypergraph", "WeightedHypergraph.build"),
    ("hypergraph.induced_weight", "chaincover.hypergraph", "WeightedHypergraph.induced_weight"),
    ("chain.nested_chain", "chaincover.chain", "nested_chain"),
    ("compress.select", "chaincover.compress", "select"),
    ("compress.tau_threshold", "chaincover.compress", "tau_threshold"),
    ("conformal.fixed_context_fit", "chaincover.conformal", "fixed_context_fit"),
    ("conformal.calibrate", "chaincover.conformal", "calibrate"),
    ("baselines.forward_greedy", "chaincover.baselines", "forward_greedy"),
    ("baselines.reverse_greedy", "chaincover.baselines", "reverse_greedy"),
    ("experiments.chain_cover", "chaincover.experiments", "chain_cover"),
    ("experiments.gen_trip_samples", "chaincover.experiments", "gen_trip_samples"),
    ("experiments.gen_grid_routes", "chaincover.experiments", "gen_grid_routes"),
    ("rng.stream", "chaincover.rng", "stream"),
    ("rng.choice_weighted", "chaincover.rng", "choice_weighted"),
    ("samplers.build_walk_table", "chaincover.samplers", "build_walk_table"),
    ("samplers.build_group_table", "chaincover.samplers", "build_group_table"),
    ("samplers.build_tree_table", "chaincover.samplers", "build_tree_table"),
    ("samplers.sample_walk", "chaincover.samplers", "sample_walk"),
    ("samplers.sample_itinerary", "chaincover.samplers", "sample_itinerary"),
    ("samplers.sample_subtree", "chaincover.samplers", "sample_subtree"),
    ("io.save_chain", "chaincover.io", "save_chain"),
    ("io.load_chain", "chaincover.io", "load_chain"),
)

# The workloads each layer must be reached on; a traced run of one of them
# fails when the layer records no call.  README.md gives the end-to-end
# metric each layer should move there.
LAYER_MAP = {
    "flows.solve": ("chain-unit", "chain-rational"),
    "flows.init": ("calibrate",),
    "hypergraph.induced_weight": ("chain-unit", "chain-rational"),
    "hypergraph.build": ("chain-unit", "chain-rational", "calibrate"),
    "chain.nested_chain": ("chain-unit", "chain-rational"),
    "compress.select": ("chain-unit", "chain-rational"),
    "compress.tau_threshold": ("calibrate",),
    "conformal.fixed_context_fit": ("calibrate",),
    "conformal.calibrate": ("calibrate",),
    "baselines.forward_greedy": ("calibrate",),
    "baselines.reverse_greedy": ("calibrate",),
    "experiments.chain_cover": ("calibrate",),
    "experiments.gen_trip_samples": ("calibrate",),
    "experiments.gen_grid_routes": ("calibrate",),
    "rng.stream": ("calibrate", "sample"),
    "rng.choice_weighted": ("sample",),
    "samplers.sample_walk": ("sample",),
    "samplers.sample_itinerary": ("sample",),
    "samplers.sample_subtree": ("sample",),
    "samplers.build_walk_table": ("sample",),
    "samplers.build_group_table": ("sample",),
    "samplers.build_tree_table": ("sample",),
    "io.save_chain": ("chain-unit", "chain-rational"),
    "io.load_chain": ("chain-unit", "chain-rational"),
}

# Layers whose call counts are reported; every layer reports its self time.
COUNTED = ("flows.solve", "hypergraph.induced_weight", "compress.tau_threshold", "rng.stream")

_OP = "op"  # root span the benchmark opens around each operation


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _extra(layer: str, args, result):
    """Per-call facts read after the span closes, from public attributes."""
    if layer == "flows.solve":
        return args[0], result.route
    if layer == "chain.nested_chain":
        return len(result.sets), len(result.breakpoints)
    if layer == "io.save_chain":
        return os.path.getsize(args[0])
    return None


class Tracer:
    """Patches the targets while installed; records spans while active."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [layer, start, end, parent index, op, extra]
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []
        self._raw: dict[str, object] = {}

    def _wrap(self, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer._op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = _extra(layer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Patch every target; return the targets left unwrapped, by name."""
        missing = []
        for layer, module, path in TARGETS:
            try:
                owner, attr = _resolve(module, path)
            except (ImportError, AttributeError):
                missing.append(f"{module}.{path} (not found)")
                continue
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._raw[layer] = raw.__func__
                    self._set(owner, attr, classmethod(self._wrap(layer, raw.__func__)))
                else:
                    self._raw[layer] = raw
                    self._set(owner, attr, self._wrap(layer, raw))
                continue
            raw = getattr(owner, attr)
            self._raw[layer] = raw
            wrapped = self._wrap(layer, raw)
            for mod in self._program_modules():
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._set(mod, name, wrapped)
        return missing + self.escapes()

    def escapes(self) -> list[str]:
        raw_ids = {id(fn): layer for layer, fn in self._raw.items()}
        found = []
        for mod in self._program_modules():
            for name, value in vars(mod).items():
                if id(value) in raw_ids:
                    found.append(f"{mod.__name__}.{name} ({raw_ids[id(value)]})")
                elif isinstance(value, type) and value.__module__.startswith("chaincover"):
                    for attr, member in vars(value).items():
                        member = getattr(member, "__func__", member)
                        if id(member) in raw_ids:
                            found.append(f"{mod.__name__}.{name}.{attr}")
        return found

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        self._raw.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _program_modules():
        """chaincover modules plus the benchmark's own workload module."""
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "chaincover" or name.startswith("chaincover.")
                                    or name == "workloads")
        ]

    def start_op(self, index: int) -> None:
        self._op = index
        self._stack = [len(self.spans)]
        self.spans.append([_OP, perf_counter(), 0.0, -1, index, None])
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.spans[self._stack[0]][2] = perf_counter()
        self._stack = []


def summary(spans: list[list], ops: int) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """(counts, self times, calls per layer) of one traced pass over ``ops`` operations.

    Counts depend only on the inputs, so they must repeat exactly between
    passes and between runs at one seed; self times are in seconds.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    self_time: Counter = Counter()
    calls: Counter = Counter()
    for span, child in zip(spans, covered):
        self_time[span[0]] += span[2] - span[1] - child
        calls[span[0]] += 1

    solves = [s[5] for s in spans if s[0] == "flows.solve"]
    arcs_by_solver: dict[int, int] = {}
    for solver, _ in solves:
        if id(solver) not in arcs_by_solver:
            members = solver.edge_members
            arcs_by_solver[id(solver)] = (
                len(members) + sum(len(m) for m in members) + len(solver.support)
            )
    chains = [s[5] for s in spans if s[0] == "chain.nested_chain"]
    saves = [s[5] for s in spans if s[0] == "io.save_chain"]
    routes = Counter(route for _, route in solves)
    breakpoints = sum(b for _, b in chains)
    counts = {f"{layer}.calls": calls[layer] for layer in COUNTED}
    counts.update({
        "flows.solve.scipy_calls": routes["scipy"],
        "flows.solve.dinic_calls": routes["dinic"],
        "flows.arcs_per_probe": (
            sum(arcs_by_solver[id(solver)] for solver, _ in solves) / len(solves) if solves else 0
        ),
        "chain.probes_per_chain": len(solves) / len(chains) if chains else 0,
        "chain.levels_per_chain": sum(n for n, _ in chains) / len(chains) if chains else 0,
        "chain.useful_probe_ratio": breakpoints / len(solves) if solves else 0,
        "rng.choice_weighted.calls_per_op": calls["rng.choice_weighted"] / ops,
        "io.chain_bytes": statistics.mean(saves) if saves else 0,
    })
    times = {f"{layer}.self_s": self_time[layer] for layer, _, _ in TARGETS}
    return counts, times, {layer: calls[layer] for layer, _, _ in TARGETS}
