#!/usr/bin/env python3
"""serd-repro benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (its own cargo
workspace, path-depending on the repository's crates) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload in a fresh
process with `SERD_THREADS` pinned to the CPU count, and checks its outputs.

Workloads:
  synth_dblp    online synthesis from a fitted DBLP-ACM 0.02 artifact
  fit_dblp_1e5  ingest -> fit -> save of a 10^5-entity DBLP-ACM directory
  serve_mix     open-loop HTTP traffic (hits, misses, /models, hot swaps)

With `--trace 0` the end-to-end metrics are measured with all tracing off;
with `--trace 1` the per-layer metrics are measured (spans, the program's
`SERD_OBS=json` run report, per-call probes). Every metric is printed with
its unit and sample count, then the last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. The full raw report,
spans included, is written to `$CARGO_TARGET_DIR/perfbench-reports/`.
Exits nonzero when the build fails, the workload errors, or an output
check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("synth_dblp", "fit_dblp_1e5", "serve_mix")
RUN_TIMEOUT_S = 170

# End-to-end metrics, per workload: (statistic, source in the raw report).
# Every workload reports every end-to-end metric: `op_p50_ms` is the median
# latency of the workload's unit of work and `work_per_s` its useful work
# per second. The workload-specific names they stand for (NAMED) are
# printed beside them.
E2E = {
    "synth_dblp": {
        "op_p50_ms": ("median", "synth.request_ms"),
        "work_per_s": ("value", "synth.entities_per_s"),
    },
    "fit_dblp_1e5": {
        "op_p50_ms": ("median", "fit.op_ms"),
        "work_per_s": ("value", "fit.records_per_s"),
    },
    "serve_mix": {
        "op_p50_ms": ("median", "serve.ref.hit_ms"),
        "work_per_s": ("value", "serve.high.goodput_rps"),
    },
}

# Workload-specific end-to-end figures, printed in the report of their
# workload: name -> (unit, statistic, source). A percentile the sample
# cannot support prints as n/a.
NAMED = {
    "synth_dblp": {
        "synth.entities_per_s": ("entities/s", "value", "synth.entities_per_s"),
    },
    "fit_dblp_1e5": {
        "fit.records_per_s": ("records/s", "value", "fit.records_per_s"),
    },
    "serve_mix": {
        "serve.hit_p50_ms": ("ms", "median", "serve.ref.hit_ms"),
        "serve.hit_p99_ms": ("ms", 0.99, "serve.ref.hit_ms"),
        "serve.miss_p50_ms": ("ms", "median", "serve.ref.miss_ms"),
        "serve.miss_p90_ms": ("ms", 0.90, "serve.ref.miss_ms"),
        "serve.goodput_rps": ("requests/s", "value", "serve.high.goodput_rps"),
    },
}

# Per-layer metrics taken as quantiles of a sample list; all others are
# values of the same name.
LAYER_QUANTILES = {
    "serve.idle_hit_p50_ms": ("median", "serve.idle_hit_ms"),
    "serve.client_lag_p99_ms": (0.99, "serve.client_lag_ms"),
    "serve.swap_visible_ms": ("median", "serve.swap_visible_ms"),
}

# Which end-to-end metric each layer metric should move, and on which
# workload (printed with the traced run).
MOVES = {
    "serd.synthesize_s": "work_per_s/synth_dblp",
    "serd.render_ms": "op_p50_ms/synth_dblp",
    "serd.fit_s": "work_per_s/fit_dblp_1e5",
    "serd.attempts_per_accept": "work_per_s/synth_dblp",
    "serd.forced_accept_share": "none: quality, a speed-up must leave it unchanged",
    "serd.s3_matches_per_entity": "none: quality, a speed-up must leave it unchanged",
    "transformer.decode_tokens": "work_per_s/synth_dblp",
    "transformer.prepare_us": "work_per_s/synth_dblp",
    "transformer.candidate_us": "work_per_s/synth_dblp, work_per_s/serve_mix",
    "transformer.train_s": "setup_s/synth_dblp; little effect on fit_dblp_1e5",
    "gan.plausibility_us": "work_per_s/synth_dblp, work_per_s/serve_mix",
    "gan.train_s": "work_per_s/fit_dblp_1e5",
    "marginals.generate_us": "work_per_s/serve_mix",
    "gmm.learn_s": "work_per_s/fit_dblp_1e5",
    "gmm.osyn_commit_us": "work_per_s/synth_dblp",
    "gmm.would_reject_us": "work_per_s/synth_dblp",
    "er-core.ingest_records_per_s": "work_per_s/fit_dblp_1e5",
    "er-core.profile_build_s": "work_per_s/fit_dblp_1e5",
    "er-core.block_s": "work_per_s/fit_dblp_1e5",
    "er-core.block_candidates": "work_per_s/fit_dblp_1e5",
    "er-core.block_pair_completeness": "none: quality, a speed-up must not lower it",
    "er-core.simvec_s": "work_per_s/fit_dblp_1e5",
    "er-core.profile_entity_us": "work_per_s/synth_dblp",
    "er-core.pair_similarity_us": "work_per_s/synth_dblp",
    "er-core.s3_block_s": "work_per_s/synth_dblp; little effect (ms per request)",
    "persist.save_s": "setup_s/all, work_per_s/fit_dblp_1e5",
    "persist.load_s": "setup_s/all, work_per_s/serve_mix (swaps rebuild replicas)",
    "persist.artifact_bytes": "setup_s/all, peak_rss_mb/serve_mix",
    "serve.respcache_hit_ratio": "op_p50_ms/serve_mix, work_per_s/serve_mix",
    "serve.respcache_evictions": "op_p50_ms/serve_mix",
    "serve.swap_visible_ms": "work_per_s/serve_mix",
    "serve.idle_hit_p50_ms": "op_p50_ms/serve_mix",
    "serve.shed": "work_per_s/serve_mix",
    "serve.requests_per_conn": "op_p50_ms/serve_mix",
    "serve.client_lag_p99_ms": "work_per_s/serve_mix",
    "parallel.pool_busy_share": "work_per_s/synth_dblp (the pool is ~idle there)",
    "obs.trace_overhead": "none: the tracing cost of this run",
    "obs.span_coverage": "none: share of the wall time the layers account for",
}


def quantile(values, q):
    """The q-quantile (linear interpolation), or None when the sample
    cannot support it: a tail percentile needs at least 10 samples beyond
    it. The median needs one sample."""
    n = len(values)
    if n == 0 or (q > 0.5 and n * (1.0 - q) < 10):
        return None
    s = sorted(values)
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values):
    """(p, value) of the highest percentile with >= 10 samples beyond it."""
    for p in (0.999, 0.99, 0.95, 0.9, 0.75):
        v = quantile(values, p)
        if v is not None:
            return p, v
    return None


def statistic(raw, stat, source):
    """Evaluates one metric spec against the raw report: (value, n) or None."""
    if stat == "value":
        v = raw["values"].get(source)
        return None if v is None else (v["value"], v["n"])
    values = raw["samples"].get(source, {}).get("values", [])
    q = 0.5 if stat == "median" else stat
    v = quantile(values, q)
    return None if v is None else (v, len(values))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def run_workload(binary, args, work):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SERD_")}
    env["SERD_THREADS"] = str(len(os.sched_getaffinity(0)))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "timed out"
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        return None, f"no report (exit {proc.returncode})"
    try:
        return json.loads(lines[-1]), None
    except json.JSONDecodeError as e:
        return None, f"unreadable report: {e}"


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs (the benchmark's self-test)")
    args = ap.parse_args()

    spec = load_spec()
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target_dir, "release", "perfbench")
    work = os.path.join(target_dir, "perfbench-work", f"{args.workload}-{os.getpid()}")
    try:
        raw, error = run_workload(binary, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if raw is None:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 2

    reports = os.path.join(target_dir, "perfbench-reports")
    os.makedirs(reports, exist_ok=True)
    raw_path = os.path.join(
        reports, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(raw_path, "w") as f:
        json.dump(raw, f)

    correct = bool(raw["correct"])
    metrics = {}
    rows = []  # (name, value, unit, n, note)
    missing = []
    if args.trace == 0:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name == "setup_s":
                got = statistic(raw, "median", "setup_s")
            elif name == "peak_rss_mb":
                got = statistic(raw, "value", "peak_rss_mb")
            else:
                got = statistic(raw, *E2E[args.workload][name])
            if got is None:
                missing.append(name)
                continue
            metrics[name] = {"value": got[0], "unit": m["unit"]}
            rows.append((name, got[0], m["unit"], got[1], "end-to-end"))
        for name, (unit, stat, source) in NAMED[args.workload].items():
            got = statistic(raw, stat, source)
            if got is None:
                rows.append((name, "n/a", unit, len(raw["samples"].get(source, {}).get("values", [])),
                             "too few samples for this percentile"))
            else:
                rows.append((name, got[0], unit, got[1], "workload metric"))
        for source, s in sorted(raw["samples"].items()):
            t = tail(s["values"])
            med = quantile(s["values"], 0.5)
            note = f"median; p{t[0] * 100:g}={fmt(t[1])}" if t else "median"
            rows.append((source, med, s["unit"], len(s["values"]), note))
    else:
        for m in spec["per_layer"]:
            name = m["name"]
            stat, source = LAYER_QUANTILES.get(name, ("value", name))
            got = statistic(raw, stat, source)
            if got is None:
                missing.append(name)
                continue
            metrics[name] = {"value": got[0], "unit": m["unit"]}
            src = raw["values"].get(name, {}).get("source", "quantile")
            rows.append((name, got[0], m["unit"], got[1], f"{src}; moves {MOVES.get(name, '?')}"))
        for name, v in sorted(raw["values"].items()):
            if name.startswith("est.") or name in ("obs.synth_coverage", "obs.fit_coverage"):
                rows.append((name, v["value"], v["unit"], v["n"], v["source"]))
        lag = raw["samples"].get("serve.client_lag_ms", {}).get("values", [])
        rows.append(("serve.client_lag_p50_ms", quantile(lag, 0.5), "ms", len(lag),
                     "generator lateness"))
        rows.append(("trace.spans", len(raw["spans"]), "count", len(raw["spans"]),
                     f"written to {raw_path}"))
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        correct = False

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"threads {raw['threads']}  attempted {raw['attempted']}  failed {raw['failed']}")
    for name, value, unit, n, note in rows:
        print(f"  {name:<36} {fmt(value):>14} {unit:<11} n={n:<7} {note}")
    for c in raw["checks"]:
        if not c["ok"]:
            print(f"  CHECK FAILED {c['name']}: {c['detail']}")
    print(f"  checks: {sum(c['ok'] for c in raw['checks'])}/{len(raw['checks'])} passed")
    print("  digests: " + json.dumps(raw["digests"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
