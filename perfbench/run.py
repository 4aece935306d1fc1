"""chaincover benchmark: one workload per process, one thread, closed loop with one client.

    python3 perfbench/run.py --workload chain-unit --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes over a fixed set of operations and
reports the per-layer metrics and the tracing overhead.  Human-readable
lines go first; the last line of stdout is the JSON result.  See
``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from refclock import Clock

# one thread: no BLAS or OpenMP pool in this process or the import-timing children
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_OPS = 100  # op_p90_s needs ten samples beyond it


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_seconds(modules: tuple[str, ...]) -> float:
    """Normalized time to import ``modules`` in a fresh interpreter, measured inside it."""
    code = "\n".join([
        "import sys, time",
        f"sys.path.insert(0, {str(HERE)!r})",
        "from refclock import Clock",
        "clock = Clock()",
        "for _ in range(5): scale = clock.scale()",
        "t = time.perf_counter()",
        f"import {', '.join(modules)}",
        "print(repr((time.perf_counter() - t) * scale))",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    if done.returncode != 0:
        _fail(f"importing {modules} failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Outcome:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[tuple[int, int]] = set()  # (pass, op index)
        self.messages: list[str] = []

    def record(self, key: tuple[int, int], errors: list[str]) -> None:
        if errors:
            self.failed_ops.add(key)
            if len(self.messages) < 10:
                self.messages.append(f"op {key[1]}: {'; '.join(errors)}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def run_op(wl, i: int, outcome: Outcome, digest, run: int = 0, tracer=None) -> float:
    """One timed op, then its checks outside the timed region.  Returns seconds."""
    outcome.attempted += 1
    errors: list[str] = []
    if tracer is not None:
        tracer.start_op(i)
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
    except Exception as exc:  # a raising op is a failed op, the run goes on
        elapsed = time.perf_counter() - t0
        errors.append(f"raised {type(exc).__name__}: {exc}")
        out = None
    else:
        elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    if out is not None:
        try:
            errors += wl.check(i, out)
            if i < wl.fixed_ops:
                digest.update(wl.digest(i, out))
        except Exception as exc:  # a check that cannot read the output fails the op
            errors.append(f"check raised {type(exc).__name__}: {exc}")
    outcome.record((run, i), errors)
    return elapsed


def end_to_end(wl_cls, seed: int, seconds: float, workdir: Path) -> tuple[dict, Outcome, str]:
    """Set-up, warm-up, then ops 0, 1, ... for ``seconds``, each timed on a ``refclock.Clock``.

    Op i runs on prepared input i % pool; the inputs are prepared afresh,
    untimed, whenever the pool wraps, so no op reuses a program object.
    """
    wl = wl_cls(seed, workdir, wl_cls.pool)
    clock = Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds(wl.modules)
        scale = clock.scale()
        t0 = time.perf_counter()
        wl.prepare(wl.pool)
        setups.append(t_import + (time.perf_counter() - t0) * scale)
    outcome = Outcome()
    setup_errors = wl.setup_errors()
    for i in range(wl.warmup):  # first calls pay for lazy imports; checked, not timed
        run_op(wl, i, outcome, hashlib.sha256(), run=-1)
    digest = hashlib.sha256()
    latencies, raw = [], []
    start = time.perf_counter()
    i = 0
    while i < max(MIN_OPS, wl.fixed_ops) or time.perf_counter() - start < seconds:
        if i % wl.pool == 0:
            wl.prepare(wl.pool)
        scale = clock.scale()
        elapsed = run_op(wl, i, outcome, digest)
        latencies.append(elapsed * scale)
        raw.append(elapsed)
        i += 1
    for index, errors in wl.final_check().items():
        outcome.record((0, index), errors)
    if setup_errors:
        outcome.messages[:0] = setup_errors
        outcome.failed_ops.update((0, k) for k in range(i))
    ops = f"{i} ops; raw {i / sum(raw):.4g} op/s, x{sum(latencies) / sum(raw):.3f} normalized"
    metrics = {
        "ops_per_s": (i / sum(latencies), ops),
        "op_p50_s": (statistics.median(latencies), ops),
        "op_p90_s": (statistics.quantiles(latencies, n=10)[-1], ops),
        "setup_s": (statistics.median(setups), f"median of {SETUP_REPEATS} set-ups"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "this process"),
    }
    return metrics, outcome, f"{digest.hexdigest()} over ops 0..{wl.fixed_ops - 1}"


def traced(wl_cls, seed: int, seconds: float, workdir: Path) -> tuple[dict, Outcome, str]:
    import spans

    wl = wl_cls(seed, workdir, wl_cls.fixed_ops)
    k = wl.fixed_ops
    tracer = spans.Tracer()
    escaped = tracer.install()
    outcome = Outcome()
    if escaped:
        outcome.messages.append("untraced program functions: " + ", ".join(escaped))
    digests, op_time = {False: [], True: []}, {False: [], True: []}
    counts_seen, times_seen, calls_seen = [], [], []
    run = 0
    start = time.perf_counter()
    try:
        while len(counts_seen) < 2 or time.perf_counter() - start < seconds:
            for traced_pass in (False, True):
                run += 1
                tracer.spans = []
                digest = hashlib.sha256()
                if traced_pass:
                    tracer.start_op(-1)
                wl.prepare(k)
                if traced_pass:
                    tracer.end_op()
                for error in wl.setup_errors():
                    outcome.record((run, -1), [error])
                total = sum(
                    run_op(wl, i, outcome, digest, run, tracer if traced_pass else None)
                    for i in range(k)
                )
                digests[traced_pass].append(digest.hexdigest())
                op_time[traced_pass].append(total)
                if traced_pass:
                    counts, times, calls = spans.summary(tracer.spans, k)
                    counts_seen.append(counts)
                    times_seen.append(times)
                    calls_seen.append(calls)
    finally:
        tracer.uninstall()
    for index, errors in wl.final_check().items():
        outcome.record((0, index), errors)
    if any(c != counts_seen[0] for c in counts_seen):
        outcome.record((0, -2), ["count metrics differ between traced passes at one seed"])
    if len(set(digests[False] + digests[True])) != 1:
        outcome.record((0, -3), ["outputs differ between passes or under tracing"])
    missing = [
        layer for layer, workloads in spans.LAYER_MAP.items()
        if wl.name in workloads and calls_seen[0][layer] == 0
    ]
    if missing:
        outcome.record((0, -4), [f"assigned layers recorded no call: {', '.join(missing)}"])
    untraced = k / statistics.median(op_time[False])
    traced_rate = k / statistics.median(op_time[True])
    passes = f"{len(counts_seen)} traced passes of {k} ops"
    metrics = {name: (value, f"per pass of {k} ops") for name, value in counts_seen[0].items()}
    metrics.update({
        name: (statistics.median(t[name] for t in times_seen), f"median self time, {passes}")
        for name in times_seen[0]
    })
    metrics.update({
        "trace.ops_per_s": (traced_rate, passes),
        "trace.untraced_ops_per_s": (untraced, f"{len(op_time[False])} untraced passes"),
        "trace.overhead_pct": (100 * (untraced / traced_rate - 1), "untraced/traced rate - 1"),
    })
    return metrics, outcome, f"{digests[True][0]} over ops 0..{k - 1}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that corrupted outputs fail their checks, then exit")
    args = parser.parse_args(argv)

    if not (SRC / "chaincover" / "__init__.py").is_file():
        _fail(f"no chaincover sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload not in WORKLOADS:
        _fail(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still remove the temp dir
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        measure = traced if args.trace else end_to_end
        metrics, outcome, digest = measure(WORKLOADS[args.workload], args.seed, args.seconds, Path(tmp))
    if metrics.keys() != units.keys():
        _fail(f"measured metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, note) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]:12s} {note}")
    print(f"  {'error_rate':36s} {outcome.failed / outcome.attempted:14.6g} {'failed/op':12s} "
          f"{outcome.failed} of {outcome.attempted} ops")
    print(f"digest {args.workload} seed {args.seed}: sha256 {digest}")
    for message in outcome.messages:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0 and not outcome.messages,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
