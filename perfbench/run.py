"""Benchmark for the enriques library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The benchmark is a closed loop with one caller: it
makes whole passes over a seeded pool of generated cluster documents (see
workloads.py), running one op (see pipeline.py) after the other.  The
number of passes is fixed by ``--seconds`` and the workload, so every run
of one seed does the same work.  Times are taken at a reference speed
(see clock.py).

The first visit of each input also runs the correctness gates outside the
timed region: ``recover_grouped`` must agree with ``recover`` on the op's
own arena, the golden fixtures must recover to their committed singular
clusters, and with tracing on the decomposed pipeline must reproduce
``recover`` exactly.  Every later visit must reproduce the first visit's
outcome and counts exactly.  A failed gate makes every op on that input a
failure; a failed gate or a drifting count makes the run incorrect and
the exit code 1.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` every input runs untraced and then traced, twice, and
the last line holds the per-layer metrics: mean self time per op from the
spans, counts summed over the pool, and the tracing overhead.  The spans
and per-op records go to ``.bench_out/``.  The line before the last holds
the seed, the sample count of each percentile and the outcome counts.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import statistics
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
#: Order statistics on each side of a percentile's rank that it averages.
SMOOTHING = 5
#: Ops per second of each workload on one 2.0 GHz Xeon vCPU, as measured
#: on the library this benchmark was written against.  A run makes the
#: whole number of passes over its pool nearest to ``--seconds`` times
#: this, so on that library and machine it takes about ``--seconds``.
NOMINAL_OPS_PER_S = {
    "golden_perturbed": 220.0,
    "polar_walk": 3.4,
    "wide_fan": 3.8,
}

#: Spans whose self time is reported as ``<name>_ms`` per traced op; the
#: root span ``op`` keeps the benchmark's own glue as ``trace.glue_ms``.
LAYERS = (
    "documents.parse", "documents.serialize",
    "morphism.compute", "morphism.quotient_check",
    "cluster.dicritical_points", "cluster.conversion", "cluster.consistency",
    "arena.queries",
    "recovery.invariant", "recovery.base_free_point", "recovery.walk",
    "recovery.values", "recovery.grouped",
    "oracle.rupture_points", "oracle.invariant_quotient",
    "similarity.canonical",
)


def _purge_modules() -> None:
    for name in list(sys.modules):
        if name in ("pipeline", "workloads") or name.split(".")[0] == "enriques":
            del sys.modules[name]


def setup(workload: str, seed: int):
    """Import the library and generate the pool, ``SETUP_REPEATS`` times.

    Returns the pipeline module, the pool, the median set-up time and
    whether every repeat generated the same pool.
    """
    clock, laps, fingerprints = Clock(), [], set()
    for _ in range(SETUP_REPEATS):
        _purge_modules()
        start = perf_counter()
        pipeline = importlib.import_module("pipeline")
        workloads = importlib.import_module("workloads")
        pool = workloads.WORKLOADS[workload](seed)
        laps.append(clock.lap(start))
        clock.close()
        # Only the last pool is kept, so peak RSS is not the harness's.
        fingerprints.add(hashlib.sha256(json.dumps(
            [(inp.name, inp.text, inp.expected) for inp in pool]
        ).encode()).hexdigest())
    times = [lap.seconds for lap in laps]
    return pipeline, pool, statistics.median(times), len(fingerprints) == 1


@dataclass
class State:
    """What the visits so far have established about each input."""

    pool: list
    first: dict = field(default_factory=dict)
    first_traced: dict = field(default_factory=dict)
    checked: dict = field(default_factory=dict)
    bad: set = field(default_factory=set)
    problems: list = field(default_factory=list)


def visit(pipeline, state: State, i: int, tracer, clock: Clock):
    """Run input ``i`` once (untraced, then traced when tracing is on)."""
    inp = state.pool[i]
    op = pipeline.run_op(inp.text, clock)
    top = pipeline.traced_op(inp.text, tracer) if tracer else None
    if i not in state.checked:
        problems = []
        if top is not None:
            untraced = top.facts()._replace(walk_steps=0, dicriticals=0)
            same = untraced == op.facts()
            if same and op.result is not None:
                same = (pipeline.result_key(op.result)
                        == pipeline.result_key(top.result))
            if not same:
                problems.append("decomposed pipeline differs from recover")
        checked = pipeline.check_input(op, inp.expected)
        problems += checked.problems
        state.checked[i] = checked
        state.first[i] = op.facts()
        if top is not None:
            state.first_traced[i] = top.facts()
        if problems:
            state.bad.add(i)
            state.problems += [f"{inp.name}: {p}" for p in problems]
    else:
        drift = op.facts() != state.first[i] or (
            top is not None and top.facts() != state.first_traced[i])
        if drift:
            state.bad.add(i)
            state.problems.append(f"{inp.name}: outcome or count drifted")
    for o in (op, top):
        if o is not None:
            o.bp = o.result = o.error = None
    return op, top


def measure(pipeline, pool, passes: int, traced: bool):
    """Visit every input of the pool ``passes`` times, in pool order.

    Returns the state, one ``(input, op, traced op)`` per op and the spans
    of the traced ops.
    """
    state = State(pool)
    tracer = pipeline.Tracer() if traced else None
    clock, pairs = Clock(), []
    for k in range(passes * len(pool)):
        if tracer:
            tracer.op = k
        op, top = visit(pipeline, state, k % len(pool), tracer, clock)
        pairs.append((k % len(pool), op, top))
    clock.close()
    return state, pairs, tracer.spans if tracer else []


# -- statistics ---------------------------------------------------------------


def percentile(samples: list[float], q: float) -> float:
    """The mean of the ``2 * SMOOTHING + 1`` order statistics nearest the
    q-quantile; infinite when any of them is.

    With about a hundred samples a bare order statistic jumps with the
    noise of the one or two ops it lands on; the mean over a few
    neighbours is a steadier estimate of the same quantile.
    """
    xs = sorted(samples)
    centre = round(q * (len(xs) - 1))
    window = xs[max(0, centre - SMOOTHING):centre + SMOOTHING + 1]
    return math.inf if math.isinf(window[-1]) else statistics.fmean(window)


def _finite(x: float) -> float:
    """JSON has no infinity; an infinitely slow percentile reads as max."""
    return sys.float_info.max if math.isinf(x) else x


def _slope(xs: list[float], ys: list[float]) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def end_to_end(state: State, pairs, setup_s: float):
    """End-to-end metrics; times are at the reference speed."""
    ops = [(op, i in state.bad) for i, op, _ in pairs]
    failed = sum(op.failed or bad for op, bad in ops)
    finished = len(ops) - failed
    mismatch = sum(op.outcome == "mismatch" and not bad for op, bad in ops)
    busy = sum(lap.seconds for op, _ in ops for lap in op.laps.values())

    def timings(call: str) -> list[float]:
        return [math.inf if op.failed or bad else op.laps[call].seconds
                for op, bad in ops
                if op.failed or bad or call in op.laps]

    metrics = {"setup_s": (setup_s, "s"), "ops_per_s": (finished / busy, "1/s")}
    samples = {}
    for call in ("recover", "grouped", "verify"):
        name, values = f"{call}_ms", timings(call)
        samples[name] = len(values)
        for q in (50, 90):
            metrics[f"{name}.p{q}"] = (
                _finite(1000 * percentile(values, q / 100)), "ms")
    metrics["error_free_rate"] = (finished / len(ops), "ratio")
    metrics["mismatch_free_rate"] = (1 - mismatch / len(ops), "ratio")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    detail = {
        "ops": len(ops), "samples": samples,
        "error_rate": failed / len(ops), "mismatch_rate": mismatch / len(ops),
        "outcomes": dict(Counter(
            "failed.gate" if bad else op.outcome for op, bad in ops)),
    }
    return metrics, len(ops), failed, detail


def per_layer(state: State, pairs, spans):
    """Per-layer metrics; times are as measured, not scaled."""
    traced_s = sum(top.op_s for _, _, top in pairs)
    untraced_s = sum(op.op_s for _, op, _ in pairs)
    per_op = 1000 / len(pairs)
    self_s = Counter()
    for _, name, start, end in spans:
        self_s[name] += end - start
    glue = self_s["op"] - sum(self_s[name] for name in LAYERS)
    metrics = {f"{name}_ms": (self_s[name] * per_op, "ms") for name in LAYERS}
    metrics["trace.glue_ms"] = (glue * per_op, "ms")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.accounted_share"] = (
        (self_s["op"] - glue) / self_s["op"], "ratio")

    firsts = [state.first_traced[i] for i in range(len(state.pool))]
    checks = [state.checked[i] for i in range(len(state.pool))]
    outcomes = Counter(
        "failed.gate" if i in state.bad else facts.outcome
        for i, facts in enumerate(firsts))
    warm = [c.warm_s for c in checks if c.warm_s]
    counts = {
        "documents.points": sum(f.points for f in firsts),
        "arena.created_points": sum(f.created for f in firsts),
        "recovery.walk_steps": sum(f.walk_steps for f in firsts),
        "recovery.dicriticals": sum(f.dicriticals for f in firsts),
        "recovery.grouped_walks": sum(c.grouped_walks for c in checks),
        "recovery.grouped_walks_avoided": sum(
            c.grouped_walks_avoided for c in checks),
        "recovery.grouped_fallbacks": sum(c.fallbacks for c in checks),
        "similarity.recursion_errors": outcomes["failed.RecursionError"],
        "outcome.ok": outcomes["ok"],
        "outcome.mismatch": outcomes["mismatch"],
        "outcome.rejected": sum(
            n for o, n in outcomes.items() if o.startswith("rejected.")),
        "outcome.failed": sum(
            n for o, n in outcomes.items() if o.startswith("failed.")),
    }
    metrics.update((name, (n, "count")) for name, n in counts.items())
    metrics["recovery.grouped_warm_ms"] = (
        1000 * statistics.fmean(warm) if warm else 0.0, "ms")
    sized = [(math.log(op.points + op.created), math.log(op.laps["recover"].raw))
             for _, op, _ in pairs if not op.failed and "recover" in op.laps]
    metrics["recovery.size_slope"] = (
        _slope(*zip(*sized)) if len(sized) > 1 else 0.0, "ratio")
    detail = {
        "traced_ops": len(pairs), "pool_outcomes": dict(outcomes),
        "per_op": [
            {"input": state.pool[i].name, "n_points": op.points,
             "created": op.created, "walk_steps": top.walk_steps,
             "recover_ms": 1000 * op.laps["recover"].raw
             if "recover" in op.laps else None}
            for i, op, top in pairs],
    }
    return metrics, detail


def write_trace(workload: str, seed: int, spans, detail) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace.json"
    path.write_text(json.dumps({
        "spans": [{"op": op, "name": name, "start": s, "end": e}
                  for op, name, s, e in spans],
        **detail}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_OPS_PER_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    # Shortcut fallbacks are counted by the first-visit gate; printing them
    # inside timed calls would only add noise.
    warnings.simplefilter("ignore", RuntimeWarning)
    try:
        pipeline, pool, setup_s, stable_inputs = setup(args.workload, args.seed)
    except ImportError as err:
        print(f"cannot import the library from {ROOT / 'src'}: {err}",
              file=sys.stderr)
        return 2

    passes = max(1, round(
        args.seconds * NOMINAL_OPS_PER_S[args.workload] / len(pool)))
    if args.trace:
        # Two visits of every input: enough for the determinism check, and
        # per-layer means need no more.
        passes = 2
    state, pairs, spans = measure(pipeline, pool, passes, bool(args.trace))
    if not stable_inputs:
        state.problems.append("the same seed generated different inputs")
    metrics, attempted, failed, detail = end_to_end(state, pairs, setup_s)
    if args.trace:
        metrics, trace_detail = per_layer(state, pairs, spans)
        detail["trace_file"] = str(write_trace(
            args.workload, args.seed, spans, trace_detail).relative_to(ROOT))
    correct = not state.problems
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "pool": len(pool), "passes": passes, **detail,
                      "problems": state.problems[:20]}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
