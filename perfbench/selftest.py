"""Self-test: the output checks are not vacuous and the outputs are repeatable.

1. For each workload, real outputs are corrupted the way a defect would
   corrupt them (a chain level dropped, two picks from one group, ...) and
   fed through the same accounting as a benchmark run; each corruption must
   count as a failed op, and the uncorrupted output must pass.
2. Each workload runs twice traced, in fresh processes, at one seed; the
   count metrics and the output digest must repeat exactly.

    python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
from workloads import STAGES, WORKLOADS


def _accounted(wl, i: int, out) -> bool:
    """True when ``out`` for op ``i`` counts as a failed op."""
    outcome = run.Outcome()
    original = wl.op
    wl.op = lambda _: out
    try:
        run.run_op(wl, i, outcome, hashlib.sha256())
    finally:
        wl.op = original
    return outcome.failed == 1


def _drop_level(chain, j: int):
    return dataclasses.replace(
        chain,
        sets=chain.sets[:j] + chain.sets[j + 1:],
        breakpoints=chain.breakpoints[: j - 1] + chain.breakpoints[j:],
        induced=chain.induced[:j] + chain.induced[j + 1:],
    )


def chain_cases(out):
    h, chain, picks, loaded = out
    dropped = _drop_level(chain, len(chain.sets) // 2)
    yield "chain with one level dropped", (h, dropped, picks, dropped)
    off = list(picks)
    off[5] = dataclasses.replace(picks[5], index=picks[5].index + 1,
                                 vertex_set=chain.sets[picks[5].index + 1])
    yield "selection one level too high", (h, chain, off, loaded)
    yield "load_chain returned another chain", (h, chain, picks, dropped)


def calibrate_cases(wl, outs):
    trip, fit = outs[0], outs[1]
    twice = frozenset({0, 1, 12, 23, 34})  # two activities from group 0, none from group 4
    yield 0, "itinerary with two activities from one group", dataclasses.replace(
        trip, train=(twice,) + trip.train[1:])
    longer = dataclasses.replace(fit, prefix_len=fit.prefix_len + 1,
                                 vertex_set=frozenset(fit.order[: fit.prefix_len + 1]))
    wl.ctx["fits"] = [longer]
    yield 1, "fit one vertex longer than the shortest prefix", longer
    shifted = dataclasses.replace(fit, second_half_coverage=fit.second_half_coverage + Fraction(1, 100))
    wl.ctx["fits"] = [shifted]
    yield 1, "fit coverage off by one sample", shifted
    wl.ctx["fits"] = [fit]
    rows = list(outs[4])
    rows[7] = dataclasses.replace(rows[7], size=rows[7].size - 1)
    yield 4, "comparison row one vertex short", rows
    state = outs[6]
    yield 6, "tau* one step too low", dataclasses.replace(state, tau_star=state.tau_star - Fraction(1, 100))


def sample_cases(wl, out):
    walk, itinerary, subtree = out
    _, other, groups, _, parent, _, _ = wl.inputs[0]
    picks = list(itinerary)
    picks[1] = groups[0][0] if picks[0] != groups[0][0] else groups[0][1]
    yield "itinerary with two picks from one group", (walk, tuple(picks), subtree)
    keys = list(walk.edge_keys)
    keys[0] = ("free", (keys[0][1] + 1) % len(other)) if keys[0][0] == "free" else ("path", 1)
    yield "walk step over a missing edge", (
        dataclasses.replace(walk, edge_keys=tuple(keys)), itinerary, subtree)
    orphan = next(v for v in range(len(parent)) if v not in subtree and parent[v] not in subtree)
    yield "subtree not closed under parents", (walk, itinerary, subtree | {orphan})
    yield "subtree over budget", (walk, itinerary, frozenset(range(len(parent))))


def corruption_checks(workdir: Path) -> list[str]:
    problems = []

    def expect(name: str, label: str, ok: bool) -> None:
        print(f"  {name}: {label}: {'ok' if ok else 'FAILED'}")
        if not ok:
            problems.append(f"{name}: {label}")

    for name in ("chain-unit", "chain-rational"):
        wl = WORKLOADS[name](1, workdir, 1)
        wl.prepare(1)
        out = wl.op(0)
        expect(name, "uncorrupted output passes its checks", not _accounted(wl, 0, out) and not wl.final_check())
        for label, bad in chain_cases(out):
            expect(name, f"{label} counts as failed", _accounted(wl, 0, bad))
        wl.kept = {0: (out[0], _drop_level(out[1], 1))}
        expect(name, "chain that differs from the Dinic route fails the reference check",
               bool(wl.final_check()))

    wl = WORKLOADS["calibrate"](1, workdir, 1)
    outs = []
    for i in range(STAGES):
        outs.append(wl.op(i))
    expect("calibrate", "uncorrupted outputs pass their checks",
           not any(_accounted(wl, i, out) for i, out in enumerate(outs)))
    for stage, label, bad in calibrate_cases(wl, outs):
        expect("calibrate", f"{label} counts as failed", _accounted(wl, stage, bad))

    wl = WORKLOADS["sample"](1, workdir, 1)
    wl.prepare(1)
    out = wl.op(0)
    expect("sample", "uncorrupted output passes its checks", not _accounted(wl, 0, out) and not wl.setup_errors())
    for label, bad in sample_cases(wl, out):
        expect("sample", f"{label} counts as failed", _accounted(wl, 0, bad))
    return problems


def repeat_checks() -> list[str]:
    problems = []
    for name in WORKLOADS:
        seen = []
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", name, "--seed", "7",
                 "--seconds", "1", "--trace", "1"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{name}: traced run failed:\n{done.stderr}")
                break
            result = json.loads(lines[-1])
            counts = {k: v["value"] for k, v in result["metrics"].items() if not k.endswith("_s")
                      and not k.startswith("trace.")}
            digest = next(line for line in lines if line.startswith("digest "))
            seen.append((result["correct"], counts, digest))
        if len(seen) == 2:
            same = seen[0] == seen[1] and seen[0][0]
            print(f"  {name}: two traced runs at seed 7: "
                  f"{'identical counts and digest' if same else 'DIFFER'}")
            if not same:
                problems.append(f"{name}: traced runs at one seed differ or fail")
    return problems


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        print("corrupted outputs:")
        problems = corruption_checks(Path(tmp))
    print("repeatability:")
    problems += repeat_checks()
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0
