#!/usr/bin/env bash
# Before/after throughput for the KV-cached decoding layer (DESIGN.md §11).
#
# Runs the decode bench suite (full re-decode vs KV-cached vs batched lanes,
# per prefix length) plus the end-to-end pipeline/serd_synthesize bench, and
# merges the machine-readable samples emitted by the vendored criterion
# harness (CRITERION_JSON) into BENCH_decode.json at the repo root. Decode
# bench ids carry their step count as a trailing "/len<L>" segment and the
# lane count in the mode segment ("batch8"); this script converts medians
# into tokens-per-second and tabulates the speedup of each cached mode over
# the full re-decode at the same length. The serd_synthesize median is also
# compared against the serial baseline recorded in BENCH_parallel.json
# before this layer existed (5,848,900,513 ns).
#
# Usage: scripts/bench_decode.sh [extra cargo-bench filter]
set -uo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-}"
CORES="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
BASELINE_NS=5848900513
OUT="BENCH_decode.json"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

echo "== decode bench (full vs kv vs batched) =="
CRITERION_JSON="$TMP" env SERD_THREADS=1 \
    cargo bench --offline -q -p bench --bench decode -- $FILTER \
    || echo "warning: decode bench failed" >&2

echo "== pipeline bench (serd_synthesize end-to-end) =="
CRITERION_JSON="$TMP" env SERD_THREADS=1 \
    cargo bench --offline -q -p bench --bench pipeline -- serd_synthesize \
    || echo "warning: pipeline bench failed" >&2

awk -v cores="$CORES" -v base_ns="$BASELINE_NS" '
BEGIN { n = 0 }
{
    # Criterion JSON lines quote keys and string values only, so splitting on
    # double quotes puts the id at f[4] and the median at f[7] (":<num>,").
    split($0, f, "\"")
    id[n] = f[4]
    med = f[7]; gsub(/[:,]/, "", med)
    median[n] = med + 0
    line[n] = $0
    n++
}
END {
    print "{"
    printf "  \"runner_cores\": %d,\n", cores
    print "  \"samples\": ["
    for (i = 0; i < n; i++)
        printf "    %s%s\n", line[i], (i < n - 1 ? "," : "")
    print "  ],"
    print "  \"tokens_per_sec\": ["
    first = 1
    for (i = 0; i < n; i++) {
        m = split(id[i], seg, "/")
        if (seg[1] != "decode" || m < 3 || substr(seg[m], 1, 3) != "len") continue
        # encode_source is a per-call cost, not a per-token decode mode.
        if (seg[2] == "encode_source") continue
        steps = substr(seg[m], 4) + 0
        lanes = (substr(seg[2], 1, 5) == "batch") ? substr(seg[2], 6) + 0 : 1
        if (steps <= 0 || lanes <= 0 || median[i] <= 0) continue
        toks = steps * lanes
        tps = toks * 1e9 / median[i]
        med_by[seg[2] "@" seg[m]] = median[i]
        lanes_by[seg[2] "@" seg[m]] = lanes
        lens[seg[m]] = 1
        if (!first) printf ",\n"
        printf "    {\"id\":\"%s\",\"tokens\":%d,\"tokens_per_sec\":%.1f}", id[i], toks, tps
        first = 0
    }
    print ""
    print "  ],"
    print "  \"speedup_vs_full\": ["
    first = 1
    for (l in lens) {
        full = med_by["full@" l]
        if (full <= 0) continue
        for (key in med_by) {
            split(key, p, "@")
            if (p[2] != l || p[1] == "full") continue
            # Per-token cost: a batch step advances every lane one token.
            per_tok = med_by[key] / lanes_by[key]
            if (per_tok <= 0) continue
            if (!first) printf ",\n"
            printf "    {\"len\":\"%s\",\"mode\":\"%s\",\"speedup\":%.2f}", l, p[1], full / per_tok
            first = 0
        }
    }
    print ""
    print "  ],"
    print "  \"pipeline\": ["
    first = 1
    for (i = 0; i < n; i++) {
        if (index(id[i], "serd_synthesize") == 0 || median[i] <= 0) continue
        if (!first) printf ",\n"
        printf "    {\"id\":\"%s\",\"median_ns\":%.0f,\"baseline_serial_ns\":%.0f,\"speedup_vs_baseline\":%.2f}", \
            id[i], median[i], base_ns, base_ns / median[i]
        first = 0
    }
    print ""
    print "  ]"
    print "}"
}
' "$TMP" > "$OUT"

echo "wrote $OUT (runner has ${CORES} core(s))"
