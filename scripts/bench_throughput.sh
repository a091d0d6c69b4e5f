#!/usr/bin/env bash
# Runs the MIPS throughput harness over the figure-2 grid, refreshes
# BENCH_throughput.json at the repository root, and appends a
# timestamped, git-revision-keyed summary line to
# BENCH_throughput_history.jsonl so throughput can be tracked across
# commits.
#
# Usage:
#   scripts/bench_throughput.sh              # default: 1M instructions/workload
#   ZBP_TRACE_LEN=200000 scripts/bench_throughput.sh   # quicker probe
#   ZBP_BENCH_OUT=/tmp/t.json scripts/bench_throughput.sh  # alternate output
#   ZBP_BENCH_HISTORY=/tmp/h.jsonl scripts/bench_throughput.sh
#
# To record a full before/after against the pre-PR binary, time the same
# grid from a worktree at the earlier commit and pass the wall-clock in:
#   git worktree add /tmp/prepr <rev> && (cd /tmp/prepr && time cargo run ...)
#   ZBP_BENCH_PREPR_S=3.49 ZBP_BENCH_PREPR_REV=<rev> scripts/bench_throughput.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p zbp-bench --bench throughput "$@"

out="${ZBP_BENCH_OUT:-BENCH_throughput.json}"
history="${ZBP_BENCH_HISTORY:-BENCH_throughput_history.jsonl}"

python3 - "$out" "$history" <<'PY'
import json
import subprocess
import sys
import time

out, history = sys.argv[1], sys.argv[2]
with open(out) as f:
    report = json.load(f)

rev = subprocess.run(
    ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
).stdout.strip() or "unknown"
dirty = bool(subprocess.run(
    ["git", "status", "--porcelain"], capture_output=True, text=True
).stdout.strip())

entry = {
    "timestamp_unix": int(time.time()),
    "git_revision": rev,
    "dirty": dirty,
    "len_per_workload": report.get("len_per_workload"),
    "seed": report.get("seed"),
    "generate_mips": report.get("generate_mips"),
    "encode_mips": report.get("encode_mips"),
    # Production block-emission capture (null in lines written before
    # it was timed).
    "capture_mips": report.get("capture_mips"),
    "replay_mips": report.get("replay_mips"),
    "replay_record_mips": report.get("replay_record_mips"),
    "shared_mips": report.get("shared_mips"),
    "record_bytes_per_instr": report.get("record_bytes_per_instr"),
    "compact_bytes_per_instr": report.get("compact_bytes_per_instr"),
    # Trace-store and sampling fields (null in lines written before the
    # store existed; readers must treat them as optional).
    "store_cold_s": report.get("store_cold_s"),
    "store_warm_s": report.get("store_warm_s"),
    "store_warm_mips": report.get("store_warm_mips"),
    "store_bytes_per_instr": report.get("store_bytes_per_instr"),
    "warm_speedup_vs_shared": report.get("warm_speedup_vs_shared"),
    "sampling_mips": report.get("sampling_mips"),
    "sampling_max_cpi_err_pct": report.get("sampling_max_cpi_err_pct"),
    "sampling_mean_cpi_err_pct": report.get("sampling_mean_cpi_err_pct"),
    # Workload-source fields (null in lines written before external
    # ingestion and SimPoint replay existed).
    "ingest_mips": report.get("ingest_mips"),
    "simpoint_cpi_err": report.get("simpoint_cpi_err"),
    # Lane-batched replay fields (null in lines written before the
    # decode-once lane kernel existed).
    "lanes_replay_s": report.get("lanes_replay_s"),
    "lanes_mips": report.get("lanes_mips"),
    "lane_speedup_vs_shared": report.get("lane_speedup_vs_shared"),
    # Estimator error bounds recorded next to the measurements (null in
    # lines written before the bounds were asserted by the harness).
    "sampling_cpi_err_bound_pct": report.get("sampling_cpi_err_bound_pct"),
    "simpoint_cpi_err_bound_pct": report.get("simpoint_cpi_err_bound_pct"),
    # zbp-serve per-cell request latency, cold pool-computed vs warm
    # cache-served (null in lines written before the daemon existed).
    "serve_cold_cell_p50_ms": report.get("serve_cold_cell_p50_ms"),
    "serve_cold_cell_p95_ms": report.get("serve_cold_cell_p95_ms"),
    "serve_warm_cell_p50_ms": report.get("serve_warm_cell_p50_ms"),
    "serve_warm_cell_p95_ms": report.get("serve_warm_cell_p95_ms"),
}
with open(history, "a") as f:
    f.write(json.dumps(entry) + "\n")
print(f"appended revision {rev} to {history}")
PY
