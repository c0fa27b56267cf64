"""Layered benchmark for clcc: one workload, one process, one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload manifolds --seed 0 --seconds 20 --trace 0

With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics (self time and calls of every layer function called,
exact counters, and the tracing overhead).  Either way every output is
checked, the last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`, the line before it
is the full report, and the exit code is 0 only if every check passed.
The full report (and, traced, the spans) also go to `perfbench/out/`.

The program is imported from `src/` of the checkout that holds this
file; a checkout without it is an error (exit 2).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # worker start: set-up time counts from here

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from pace import Pacer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3  # untraced passes per run, however long they take
MIN_TRACED_PASSES = 2  # of each kind in a traced run
SETUP_SAMPLES = 5  # this process plus four fresh probe processes
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("item_ms.p50", "ms"),
    ("item_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)

# Every function the workloads call through a span, by layer.
LAYER_SPANS = (
    "clcc_core.build_clcc",
    "clcc_core.dimension",
    "clcc_core.classify_vertex_links",
    "clcc_core.is_connected_bfs",
    "clcc_core.is_connected_criterion",
    "clcc_core.prune_to_smart_pair",
    "clcc_core.smartly_paired",
    "clcc_core.is_npc",
    "clcc_core.from_cells",
    "homology_z2.betti",
    "gf2.rank",
    "simplicial.is_flag",
    "simplicial.is_5_large",
    "simplicial.is_obes",
    "simplicial.pairwise_5_large",
    "hyperbolicity.certify",
    "pocset_hyperplanes.hyperplanes",
    "pocset_hyperplanes.directions",
    "pocset_hyperplanes.crossing_graph",
    "pocset_hyperplanes.from_relations",
    "pocset_hyperplanes.halfspace_pocset",
    "pocset_hyperplanes.ultrafilters",
    "pocset_hyperplanes.sageev",
    "pocset_hyperplanes.roller_duality_check",
    "generators.gen",
    "cli.generate",
    "cli.build",
    "cli.homology",
    "cli.invariants-dim",
    "cli.invariants-links",
    "cli.hyperplanes",
    "cli.export",
    "cli.certify",
    "cli.connect",
)

CERT_RULES = ("5-large-side-a", "5-large-side-b", "pairwise-5-large-obes",
              "racg-empty-square", "links-5-large", "unknown", "not-flag")

COUNTERS = (
    *(f"clcc_core.cells.d{d}" for d in range(5)),
    "clcc_core.links.evaluated",
    "gf2.rows",
    "gf2.cols",
    "gf2.rank",
    "gf2.bytes_computed",
    "simplicial.empty_squares.found",
    *(f"hyperbolicity.certify.rule.{r}" for r in CERT_RULES),
    "pocset_hyperplanes.hyperplanes.count",
    "pocset_hyperplanes.ultrafilters.count",
    "pocset_hyperplanes.sageev.cells",
    "cli.bytes_in",
    "cli.bytes_out",
    "cli.exit_nonzero",
)

# ratio name -> (numerator counter, denominator counters summed)
RATIOS = {
    "clcc_core.prune.kept_ratio": ("clcc_core.prune.kept", ("clcc_core.prune.generated",)),
    "clcc_core.is_npc.flag_shortcut_ratio": ("clcc_core.is_npc.flag_shortcut",
                                             ("clcc_core.prune.kept",)),
    "hyperbolicity.certify.decided_ratio": (
        "hyperbolicity.certify.decided",
        tuple(f"hyperbolicity.certify.rule.{r}" for r in CERT_RULES)),
}

TRACE_METRICS = (
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.layer_share", "ratio"),
)

PER_LAYER = (
    *((f"{name}.{kind}", unit) for name in LAYER_SPANS
      for kind, unit in (("s", "s"), ("calls", "count"))),
    *((name, "bytes" if ".bytes_" in name else "count")
      for name in COUNTERS),
    *((name, "ratio") for name in RATIOS),
    *TRACE_METRICS,
)


def load_clcc():
    """Import clcc from this checkout's sources, never from elsewhere."""
    if not (SRC / "clcc" / "__init__.py").is_file():
        raise ImportError(f"no clcc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import clcc

    if SRC.resolve() not in Path(clcc.__file__).resolve().parents:
        raise ImportError(f"clcc was imported from {clcc.__file__}, not from {SRC}")
    return clcc


def metadata(args) -> dict:
    from clcc import gf2

    head = ROOT / ".git" / "HEAD"
    rev = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            rev = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "clcc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "git_revision": rev,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "gf2_implementation": gf2.IMPLEMENTATION,
    }


# -- passes --------------------------------------------------------------------------


@dataclass
class Pass:
    seconds: float  # sum of the inputs' times
    item_seconds: list
    counters: Counter
    outputs: list
    failures: dict  # item id -> failed checks
    keep_for_rank: list | None
    scaled_item_seconds: list | None = None  # at the pacer's reference speed


def run_pass(wl, items, tracer=None, pacer=None, first: Pass | None = None) -> Pass:
    """One pass over the inputs.  Outputs are kept for the first pass
    only; later passes are checked against it."""
    from spans import direct_call
    from workloads import Ctx

    gc.collect()  # every pass starts with the previous passes' garbage gone
    counters: Counter = Counter()
    keep = [] if tracer else None
    call = tracer.call if tracer else pacer.call if pacer else direct_call
    item_seconds, windows, outputs, failures = [], [], [], {}
    if pacer:
        pacer.tick(force=True)
    for item_id, payload in items:
        ctx = Ctx(call, counters, keep)
        span = tracer.open("item", item_id) if tracer else None
        spent = pacer.spent if pacer else 0.0
        ti = time.perf_counter()
        try:
            out = wl.process(payload, ctx)
        except Exception as exc:  # an unexpected error fails this input only
            ctx.failures.append(f"unexpected {type(exc).__name__}: {exc}")
            out = None
        te = time.perf_counter()
        if tracer:
            tracer.close(span)
        item_seconds.append(te - ti - ((pacer.spent - spent) if pacer else 0.0))
        windows.append((ti, te))
        if first is not None and out != first.outputs[len(outputs)]:
            ctx.failures.append("output differs from the first pass")
        outputs.append(out if first is None else None)
        if ctx.failures:
            failures[item_id] = ctx.failures
    p = Pass(sum(item_seconds), item_seconds, counters, outputs, failures, keep)
    if pacer:
        pacer.tick(force=True)
        p.scaled_item_seconds = [s * pacer.scale(a, b) for s, (a, b) in zip(item_seconds, windows)]
    return p


def retime_rank(tracer, keep: list, failures: list) -> None:
    """Time gf2.rank on every boundary matrix that betti() ranked in the
    pass, with rows built from boundary_of as a caller would."""
    from clcc import gf2

    for X, ranks in keep:
        for k in range(1, X.top_dim + 1):
            index = {c: i for i, c in enumerate(X.cells(k - 1))}
            rows = []
            for c in X.cells(k):
                row = 0
                for f in X.boundary_of(c):
                    row ^= 1 << index[f]
                rows.append(row)
            r = tracer.call("gf2.rank", gf2.rank, rows, len(index))
            if r != ranks[k]:
                failures.append(f"gf2.rank of d_{k} is {r}, betti implies {ranks[k]}")


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(1.0 - x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def harrell_davis(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of
    all order statistics.  On a census of unlike inputs it moves far less
    with the seed than a single order statistic does (p50 of `duality`:
    4% against 34% across twelve seeds)."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    cdf = [_beta_inc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail(values: list) -> tuple[str, float]:
    """The highest ladder percentile with at least ten values beyond it;
    the maximum when there are too few values for any."""
    for q in TAIL_LADDER:
        if (1 - q / 100) * len(values) >= 10:
            return f"p{q:g}", harrell_davis(values, q / 100)
    return "max", max(values)


def setup_probe_seconds(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--small"] if args.small else [])
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def count_failures(item_ids: list, passes: list, verify_failures: dict) -> tuple[int, int, list]:
    """Attempted and failed inputs over all passes, plus example failures.
    An input fails a pass if a check failed, an error was raised, its
    output differs from the first pass, or the verification after the
    passes (which holds for every pass) failed."""
    attempted = failed = 0
    examples = []
    for p in passes:
        for item_id in item_ids:
            attempted += 1
            why = p.failures.get(item_id, []) + verify_failures.get(item_id, [])
            if why:
                failed += 1
                if len(examples) < 10:
                    examples.append({"item": item_id, "checks": why})
    return attempted, failed, examples


def finish_counters(counters: Counter) -> dict:
    out = {name: counters.get(name, 0) for name in COUNTERS}
    for name, (num, dens) in RATIOS.items():
        den = sum(counters.get(d, 0) for d in dens)
        out[name] = counters.get(num, 0) / den if den else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced inputs, for smoke tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import clcc and make the inputs; print the set-up time")
    args = ap.parse_args(argv)

    try:
        load_clcc()
    except ImportError as exc:
        print(f"perfbench: cannot import clcc from this checkout: {exc}", file=sys.stderr)
        return 2
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    tracer = spans.Tracer() if args.trace else None
    items = wl.setup(tracer.call if tracer else spans.direct_call, args.seed, args.small)
    t_setup = time.perf_counter()
    pacer = Pacer()
    pacer.tick(force=True)
    setup_s = [(t_setup - T_START) * pacer.scale(T_START, t_setup)]
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s[0]}))
        return 0
    item_ids = [item_id for item_id, _ in items]

    untraced: list[Pass] = []
    traced: list[tuple[Pass, dict, float]] = []  # pass, self times, layer share
    run_failures: list[str] = []
    if not args.trace:
        setup_s += [setup_probe_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        t0 = time.perf_counter()
        while len(untraced) < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
            untraced.append(run_pass(wl, items, pacer=pacer,
                                     first=untraced[0] if untraced else None))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        gen_times = tracer.self_times()
        t0 = time.perf_counter()
        while (min(len(traced), len(untraced)) < MIN_TRACED_PASSES
               or time.perf_counter() - t0 < args.seconds):
            first = untraced[0] if untraced else None
            if len(untraced) <= len(traced):
                untraced.append(run_pass(wl, items, first=first))
                continue
            mark = tracer.mark()
            p = run_pass(wl, items, tracer, first=first)
            layer_s = sum(s for name, (s, _) in tracer.self_times(mark).items() if name != "item")
            retime_rank(tracer, p.keep_for_rank, run_failures)
            p.keep_for_rank = None
            traced.append((p, tracer.self_times(mark), layer_s / p.seconds))
    passes = untraced + [p for p, _, _ in traced]

    verify_failures, extra = (wl.verify(items, dict(zip(item_ids, passes[0].outputs)))
                              if wl.verify else ({}, Counter()))
    attempted, failed, examples = count_failures(item_ids, passes, verify_failures)
    if len({tuple(sorted(p.counters.items())) for p in passes}) != 1:
        run_failures.append("counters differ between passes")
    failed += len(run_failures)
    examples += [{"item": "*", "checks": [why]} for why in run_failures[:10]]
    raw_counters = passes[0].counters + extra
    counters = finish_counters(raw_counters)

    report = {"meta": metadata(args), "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "failures": examples,
              "items_per_pass": len(items), "counters": counters,
              "raw_counters": dict(sorted(raw_counters.items()))}
    if not args.trace:
        input_ms = [statistics.median(col) * 1000
                    for col in zip(*(p.scaled_item_seconds for p in untraced))]
        label, tail_ms = tail(input_ms)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "pass_s": statistics.median(sum(p.scaled_item_seconds) for p in untraced),
            "item_ms.p50": harrell_davis(input_ms, 0.5),
            "item_ms.tail": tail_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        report["samples"] = {"setup_s": setup_s, "passes": len(untraced),
                             "pass_s": [sum(p.scaled_item_seconds) for p in untraced],
                             "pass_s_unscaled": [p.seconds for p in untraced],
                             "reference_units": len(pacer.unit_s), "item_ms": len(input_ms)}
        report["reference_unit_s"] = {"median": statistics.median(pacer.unit_s),
                                      "min": min(pacer.unit_s), "max": max(pacer.unit_s)}
        report["item_ms.tail"] = {"percentile": label, "n": len(input_ms)}
    else:
        metrics = dict(counters)
        per_pass = [st for _, st, _ in traced]
        for name in LAYER_SPANS:
            if name == "generators.gen":
                s, calls = gen_times.get(name, (0.0, 0))
            else:
                s = statistics.median(st.get(name, (0.0, 0))[0] for st in per_pass)
                calls = per_pass[0].get(name, (0.0, 0))[1]
            metrics[f"{name}.s"] = s
            metrics[f"{name}.calls"] = calls
        traced_s = statistics.median(p.seconds for p, _, _ in traced)
        untraced_s = statistics.median(p.seconds for p in untraced)
        metrics["trace.pass_s"] = traced_s
        metrics["trace.untraced_pass_s"] = untraced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.layer_share"] = statistics.median(share for _, _, share in traced)
        units = dict(PER_LAYER)
        report["samples"] = {"traced_pass_s": [p.seconds for p, _, _ in traced],
                             "untraced_pass_s": [p.seconds for p in untraced]}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    report["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
