#!/usr/bin/env bash
# Parallel-scaling benchmark harness.
#
#   scripts/bench.sh [N_THREADS]
#
# Runs the `parallel_scaling` bench binary twice — sequential
# (SLEUTH_THREADS=1) and parallel (SLEUTH_THREADS=N, default: all
# hardware threads) — and writes BENCH_parallel.json with per-bench
# median wall-clock and speedup. The JSON records the machine's
# hardware thread count: on a single-core host the parallel run
# exercises the pool machinery but cannot show real speedup.
set -euo pipefail
cd "$(dirname "$0")/.."

HW_THREADS=$(nproc)
N_THREADS="${1:-$HW_THREADS}"
OUT=BENCH_parallel.json

echo "==> building parallel_scaling bench"
cargo build --offline --release --benches -p bench >/dev/null

run_bench() {
    echo "==> SLEUTH_THREADS=$1 cargo bench parallel_scaling" >&2
    SLEUTH_THREADS="$1" cargo bench --offline -p bench --bench parallel_scaling 2>/dev/null \
        | grep '^PARALLEL_BENCH '
}

SEQ_LINES=$(run_bench 1)
PAR_LINES=$(run_bench "$N_THREADS")

SEQ="$SEQ_LINES" PAR="$PAR_LINES" HW="$HW_THREADS" N="$N_THREADS" OUT="$OUT" python3 - <<'EOF'
import json, os

def parse(block):
    out = {}
    for line in block.strip().splitlines():
        kv = dict(f.split("=", 1) for f in line.split()[1:])
        out[kv["bench"]] = {
            "threads": int(kv["threads"]),
            "median_us": int(kv["median_us"]),
            "samples": int(kv["samples"]),
        }
    return out

seq, par = parse(os.environ["SEQ"]), parse(os.environ["PAR"])
benches = {}
for name in seq:
    s, p = seq[name]["median_us"], par[name]["median_us"]
    benches[name] = {
        "sequential_median_us": s,
        "parallel_median_us": p,
        "parallel_threads": par[name]["threads"],
        "speedup": round(s / p, 3) if p else None,
        "samples": seq[name]["samples"],
    }
result = {
    "hardware_threads": int(os.environ["HW"]),
    "requested_threads": int(os.environ["N"]),
    "note": "speedup is bounded by hardware_threads; on a 1-core host "
            "the parallel run only verifies pool overhead stays small",
    "benches": benches,
}
path = os.environ["OUT"]
with open(path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {path}")
for name, b in benches.items():
    print(f"  {name:20s} seq={b['sequential_median_us']}us "
          f"par={b['parallel_median_us']}us speedup={b['speedup']}x")
EOF

# ---- Wire-protocol loopback benchmark -> BENCH_wire.json ------------
WIRE_OUT=BENCH_wire.json
echo "==> cargo bench wire_loopback (frame codec + loopback serving)" >&2
WIRE_LINES=$(cargo bench --offline -p bench --bench wire_loopback 2>/dev/null \
    | grep '^WIRE_BENCH ')

WIRE="$WIRE_LINES" OUT="$WIRE_OUT" python3 - <<'EOF'
import json, os

benches = {}
payload_bytes = None
for line in os.environ["WIRE"].strip().splitlines():
    kv = dict(f.split("=", 1) for f in line.split()[1:])
    name = kv["bench"]
    if name == "frame_bytes":
        payload_bytes = int(kv["payload_bytes"])
        continue
    frames, spans, us = int(kv["frames"]), int(kv["spans"]), int(kv["median_us"])
    benches[name] = {
        "frames": frames,
        "spans": spans,
        "median_us": us,
        "frames_per_sec": round(frames / (us / 1e6)) if us else None,
        "spans_per_sec": round(spans / (us / 1e6)) if us else None,
        "ns_per_span": round(us * 1000 / spans, 1) if spans else None,
        "samples": int(kv["samples"]),
    }
result = {
    "note": "loopback benches run real shard servers over Unix-domain "
            "sockets and include RCA latency; frame_encode/frame_decode "
            "isolate the codec",
    "encoded_payload_bytes": payload_bytes,
    "benches": benches,
}
path = os.environ["OUT"]
with open(path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {path}")
for name, b in benches.items():
    print(f"  {name:20s} median={b['median_us']}us "
          f"frames/s={b['frames_per_sec']} ns/span={b['ns_per_span']}")
EOF

# ---- Hot-path kernel benchmark -> BENCH_hotpath.json ----------------
HOT_OUT=BENCH_hotpath.json
echo "==> cargo bench hotpath (interned ingest + sorted-merge distance)" >&2
HOT_LINES=$(cargo bench --offline -p bench --bench hotpath 2>/dev/null \
    | grep '^HOTPATH_BENCH ')

HOT="$HOT_LINES" OUT="$HOT_OUT" python3 - <<'EOF'
import json, os

raw = {}
for line in os.environ["HOT"].strip().splitlines():
    kv = dict(f.split("=", 1) for f in line.split()[1:])
    raw[kv["bench"]] = kv

ingest = raw["ingest_otlp_parse"]
merge = raw["distance_sorted_merge"]
hashed = raw["distance_hashed"]
spans = int(ingest["spans"])
pairs = int(merge["pairs"])
ns_span = round(int(ingest["median_us"]) * 1000 / spans, 1)
ns_merge = round(int(merge["median_us"]) * 1000 / pairs, 2)
ns_hashed = round(int(hashed["median_us"]) * 1000 / pairs, 2)
result = {
    "note": "ingest drives the zero-copy OTLP scanner + reusable-arena "
            "assembly; distance compares the sorted-merge Jaccard kernel "
            "against the legacy hashed BTreeMap merge on the same corpus",
    "ns_per_span_ingest": ns_span,
    "ns_per_pair_distance": ns_merge,
    "ingest": {
        "spans": spans,
        "median_us": int(ingest["median_us"]),
        "samples": int(ingest["samples"]),
    },
    "distance": {
        "pairs": pairs,
        "sorted_merge_median_us": int(merge["median_us"]),
        "hashed_median_us": int(hashed["median_us"]),
        "ns_per_pair_sorted_merge": ns_merge,
        "ns_per_pair_hashed": ns_hashed,
        "speedup_vs_hashed": round(ns_hashed / ns_merge, 2) if ns_merge else None,
        "samples": int(merge["samples"]),
    },
}
path = os.environ["OUT"]
with open(path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {path}")
print(f"  ingest   {ns_span} ns/span over {spans} spans")
print(f"  distance {ns_merge} ns/pair sorted-merge vs {ns_hashed} ns/pair hashed "
      f"({result['distance']['speedup_vs_hashed']}x)")
EOF

# ---- Counterfactual RCA benchmark -> BENCH_rca.json -----------------
RCA_OUT=BENCH_rca.json
echo "==> cargo bench rca (subtree-pruned vs legacy localisation)" >&2
RCA_LINES=$(cargo bench --offline -p bench --bench rca 2>/dev/null \
    | grep '^RCA_BENCH ')

RCA="$RCA_LINES" OUT="$RCA_OUT" python3 - <<'EOF'
import json, os

modes = {}
summary = {}
for line in os.environ["RCA"].strip().splitlines():
    fields = line.split()[1:]
    if fields[0] == "summary":
        summary = dict(f.split("=", 1) for f in fields[1:])
        continue
    kv = dict(f.split("=", 1) for f in fields)
    modes[kv["mode"]] = {
        "traces": int(kv["traces"]),
        "predict_calls": int(kv["calls"]),
        "predict_calls_per_localisation": float(kv["calls_per_trace"]),
        "p50_us": int(kv["p50_us"]),
        "p99_us": int(kv["p99_us"]),
        "pruned_span_fraction": float(kv["pruned_span_fraction"]),
    }
result = {
    "note": "thousand-service soak scenario; both modes run the identical "
            "candidate ranking and accept logic, the pruned mode reuses one "
            "cached trace encoding per localisation and answers repeated "
            "counterfactual queries as deltas over the live candidate mask",
    "scenario": "thousand_services",
    "pruned": modes["pruned"],
    "unpruned": modes["unpruned"],
    "call_ratio": float(summary["call_ratio"]),
    "p50_speedup": float(summary["speedup"]),
    "identical_root_cause_sets": int(summary["identical_sets"]),
    "observed_family_fraction": float(summary["observed_family_fraction"]),
}
path = os.environ["OUT"]
with open(path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {path}")
for mode in ("pruned", "unpruned"):
    b = modes[mode]
    print(f"  {mode:9s} calls/loc={b['predict_calls_per_localisation']} "
          f"p50={b['p50_us']}us p99={b['p99_us']}us")
print(f"  call_ratio={result['call_ratio']} speedup={result['p50_speedup']}x "
      f"identical_sets={result['identical_root_cause_sets']}")
EOF

# ---- Failover benchmark -> BENCH_failover.json ----------------------
FAILOVER_OUT=BENCH_failover.json
echo "==> cargo bench failover (heartbeat detection + failover drain)" >&2
FAILOVER_LINES=$(cargo bench --offline -p bench --bench failover 2>/dev/null \
    | grep '^FAILOVER_BENCH ')

FAILOVER="$FAILOVER_LINES" OUT="$FAILOVER_OUT" python3 - <<'EOF'
import json, os

raw = {}
for line in os.environ["FAILOVER"].strip().splitlines():
    kv = dict(f.split("=", 1) for f in line.split()[1:])
    raw[kv["bench"]] = kv

det = raw["detection"]
total = raw["failover_total"]
thru = raw["verdict_throughput"]
result = {
    "note": "a protocol-complete peer goes mute (socket stays open) so "
            "only heartbeat misses can detect it; detection is mute -> "
            "dead_peers, failover_total is mute -> every verdict drained "
            "after re-routing to the survivor",
    "detection": {
        "p50_us": int(det["p50_us"]),
        "p99_us": int(det["p99_us"]),
        "samples": int(det["samples"]),
    },
    "failover_total": {
        "p50_us": int(total["p50_us"]),
        "p99_us": int(total["p99_us"]),
        "samples": int(total["samples"]),
    },
    "verdict_throughput": {
        "traces": int(thru["traces"]),
        "verdicts": int(thru["verdicts"]),
        "p50_per_sec": int(thru["p50_per_sec"]),
        "min_per_sec": int(thru["min_per_sec"]),
        "samples": int(thru["samples"]),
    },
}
path = os.environ["OUT"]
with open(path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {path}")
print(f"  detection p50={result['detection']['p50_us']}us "
      f"p99={result['detection']['p99_us']}us")
print(f"  failover  p50={result['failover_total']['p50_us']}us "
      f"p99={result['failover_total']['p99_us']}us "
      f"verdicts/s p50={result['verdict_throughput']['p50_per_sec']}")
EOF

# ---- Validate every artifact ----------------------------------------
# A bench run that silently wrote a truncated or non-numeric artifact
# poisons every later comparison against it; refuse to exit 0 unless
# all three JSON files parse and carry numeric metrics everywhere a
# number is expected.
echo "==> validating BENCH_parallel.json BENCH_wire.json BENCH_hotpath.json BENCH_rca.json BENCH_failover.json" >&2
python3 - <<'EOF'
import json, sys

failures = []

def num(data, path, positive=True):
    v = data
    for p in path.split("."):
        if not isinstance(v, dict) or p not in v:
            failures.append(f"missing key {path!r}")
            return
        v = v[p]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        failures.append(f"key {path!r} is not numeric: {v!r}")
    elif positive and v <= 0:
        failures.append(f"key {path!r} is not positive: {v!r}")

def load(name):
    try:
        with open(name) as f:
            return json.load(f)
    except FileNotFoundError:
        failures.append(f"{name} missing")
    except json.JSONDecodeError as e:
        failures.append(f"{name} is not valid JSON: {e}")
    return None

par = load("BENCH_parallel.json")
if par is not None:
    num(par, "hardware_threads")
    num(par, "requested_threads")
    if not isinstance(par.get("benches"), dict) or not par["benches"]:
        failures.append("BENCH_parallel.json: no benches recorded")
    else:
        for name, b in par["benches"].items():
            for key in ("sequential_median_us", "parallel_median_us",
                        "parallel_threads", "speedup", "samples"):
                num(b, key)

wire = load("BENCH_wire.json")
if wire is not None:
    num(wire, "encoded_payload_bytes")
    if not isinstance(wire.get("benches"), dict) or not wire["benches"]:
        failures.append("BENCH_wire.json: no benches recorded")
    else:
        for name, b in wire["benches"].items():
            for key in ("frames", "spans", "median_us", "frames_per_sec",
                        "spans_per_sec", "ns_per_span", "samples"):
                num(b, key)

hot = load("BENCH_hotpath.json")
if hot is not None:
    for key in ("ns_per_span_ingest", "ns_per_pair_distance",
                "ingest.spans", "ingest.median_us", "ingest.samples",
                "distance.pairs", "distance.sorted_merge_median_us",
                "distance.hashed_median_us", "distance.ns_per_pair_sorted_merge",
                "distance.ns_per_pair_hashed", "distance.speedup_vs_hashed",
                "distance.samples"):
        num(hot, key)

rca = load("BENCH_rca.json")
if rca is not None:
    for mode in ("pruned", "unpruned"):
        for key in ("traces", "predict_calls", "predict_calls_per_localisation",
                    "p50_us", "p99_us"):
            num(rca, f"{mode}.{key}")
        num(rca, f"{mode}.pruned_span_fraction", positive=False)
    num(rca, "call_ratio")
    num(rca, "p50_speedup")
    # The acceptance gates: pruning must at least halve the model
    # evaluations on the thousand-service scenario, without changing a
    # single verdict.
    ratio = rca.get("call_ratio")
    if isinstance(ratio, (int, float)) and ratio > 0.5:
        failures.append(f"BENCH_rca.json: call_ratio {ratio} exceeds 0.5 gate")
    if rca.get("identical_root_cause_sets") != 1:
        failures.append("BENCH_rca.json: pruned and unpruned verdicts diverged")
    # Lazy, closure-only abduction: the sessions may evaluate at most a
    # tenth of the trace families.
    frac = rca.get("observed_family_fraction")
    if not isinstance(frac, (int, float)) or frac > 0.1:
        failures.append(f"BENCH_rca.json: observed_family_fraction {frac!r} missing or above 0.1")

failover = load("BENCH_failover.json")
if failover is not None:
    for key in ("detection.p50_us", "detection.p99_us", "detection.samples",
                "failover_total.p50_us", "failover_total.p99_us",
                "verdict_throughput.traces", "verdict_throughput.verdicts",
                "verdict_throughput.p50_per_sec", "verdict_throughput.min_per_sec"):
        num(failover, key)
    # Detection is bounded by the heartbeat config (10ms interval,
    # miss threshold 2): anything past 2s means the supervisor is not
    # actually driving detection off the miss counter.
    p99 = failover.get("detection", {}).get("p99_us")
    if isinstance(p99, (int, float)) and p99 > 2_000_000:
        failures.append(f"BENCH_failover.json: detection p99 {p99}us exceeds 2s gate")

if failures:
    for f in failures:
        print(f"bench validation: {f}", file=sys.stderr)
    sys.exit(1)
print("bench artifacts: all metrics present and numeric")
EOF
