#!/usr/bin/env bash
# Local CI: formatting, lints, docs, release build, full test suite, and a
# cluster-engine smoke run.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo deny (licenses, advisories)"
# Supply-chain gate, configured in deny.toml. The tool is not part of the
# minimal toolchain image, so skip (loudly) where it is absent.
if command -v cargo-deny >/dev/null 2>&1; then
  cargo deny check licenses advisories
else
  echo "cargo-deny not installed; skipping (install with: cargo install cargo-deny)"
fi

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test --workspace -q

echo "== perfbench build + smoke"
# The repository benchmark (perfbench/, its own cargo workspace) builds
# against the public API of accel-sim, scenario and repro-bench: a break
# there must fail CI here rather than the benchmark. The smoke run makes
# one short run of each workload, untraced and traced; every run must
# report zero failed operations.
perfbench_out=$(python3 perfbench/run.py --smoke)
echo "$perfbench_out" | grep '^{' | jq -s -e '
  length > 0 and all(.[]; .failed == 0 and .correct)
' >/dev/null || {
  echo "perfbench smoke failed:" >&2
  echo "$perfbench_out" >&2
  exit 1
}

echo "== scenario golden round-trip (--dump-scenario)"
# Every golden scenario file must load, re-serialize byte-identically,
# and be accepted by its binary: the scenario spec's fixed-point check.
scenario_bin() {
  case "$1" in
    fig5_4node) echo fig5_full_benchmark ;;
    whatif_record*) echo whatif ;;
    *) echo "$1" ;;
  esac
}
for f in scenarios/*.json; do
  name=$(basename "$f" .json)
  bin=$(scenario_bin "$name")
  cargo run --release -p repro-bench --bin "$bin" -- \
    --scenario "$f" --dump-scenario | diff - "$f" >/dev/null || {
    echo "scenario round-trip failed for $f" >&2
    exit 1
  }
done

echo "== simlint scenario gate (scenarios/*.json)"
# Every golden scenario must pass the static analyzer with zero
# error-severity findings (warnings are allowed but printed). Exit 1
# from the lint binary means an admission-blocking diagnostic.
for f in scenarios/*.json; do
  cargo run --release -p repro-bench --bin lint -- --scenario "$f" || {
    echo "simlint gate failed for $f" >&2
    exit 1
  }
done

echo "== fig5 cluster smoke (scenarios/fig5_4node.json)"
cargo run --release -p repro-bench --bin fig5_full_benchmark -- \
  --scenario scenarios/fig5_4node.json >/dev/null
# Two identical traced runs must write byte-identical JSONL traces: the
# multi-node path (per-node shards, collective barriers, the label table)
# may not leak hash or scheduling order into the span stream.
tdir="target/ci_fig5_trace_det"
rm -rf "$tdir"
mkdir -p "$tdir"
for run in a b; do
  cargo run --release -p repro-bench --bin fig5_full_benchmark -- \
    --scenario scenarios/fig5_4node.json --scale 2e-4 \
    --trace-out "$tdir/$run.jsonl" >/dev/null
done
for impl in cpu jax jaxcpu omp; do
  cmp "$tdir/a-$impl.jsonl" "$tdir/b-$impl.jsonl" || {
    echo "fig5 4-node $impl trace differs between identical runs" >&2
    exit 1
  }
done
rm -rf "$tdir"

echo "== trace determinism smoke (fig6 jax and omp traces, rendered twice)"
# Two identical fig6 runs must write byte-identical traces in both
# formats: neither the arrayjit executor nor the offload pool's free lists
# may leak hash or allocation order into the span stream. fig6 sweeps the
# implementation axis itself, so each run writes both the jax and the omp
# trace.
tdir="target/ci_trace_det"
rm -rf "$tdir"
mkdir -p "$tdir"
for run in a b; do
  for ext in jsonl json; do
    cargo run --release -p repro-bench --bin fig6_per_kernel -- \
      --scale 2e-4 --trace-out "$tdir/$run.$ext" >/dev/null
  done
done
for impl in jax omp; do
  for ext in jsonl json; do
    cmp "$tdir/a-$impl.$ext" "$tdir/b-$impl.$ext" || {
      echo "fig6 $impl .$ext trace differs between identical runs" >&2
      exit 1
    }
  done
done
rm -rf "$tdir"

echo "== engine-throughput bench (smoke mode)"
# Validates the bench harness end to end and the shape of the JSON it
# emits; the numbers themselves are not gated here (machine-dependent).
# Absolute path: the bench binary's cwd is the package dir, not the root.
bench_json="$PWD/target/ci_bench_engine.json"
BENCH_ENGINE_SMOKE=1 BENCH_ENGINE_OUT="$bench_json" \
  cargo bench -q -p repro-bench --bench engine >/dev/null
jq -e '
  .mode == "smoke"
  and (.results | length == 6)
  and (.results | all(.events_per_sec > 0 and .iters > 0))
  and ([.results[].nodes] | unique == [1, 8, 64])
' "$bench_json" >/dev/null || {
  echo "BENCH_engine.json malformed:" >&2
  cat "$bench_json" >&2
  exit 1
}
rm -f "$bench_json"

echo "== sweep-throughput bench (smoke mode)"
# Validates the batched (compile-once) vs naive sweep harness and its
# JSON shape: both paths must report throughput, the batched path must be
# faster, and its identity point must match the oracle bit for bit.
sweep_json="$PWD/target/ci_bench_sweep.json"
BENCH_SWEEP_SMOKE=1 BENCH_SWEEP_OUT="$sweep_json" \
  cargo bench -q -p repro-bench --bench sweep >/dev/null
jq -e '
  .mode == "smoke"
  and .grid_points == 120
  and .identity_bit_identical == true
  and (.results | length == 2)
  and (.results | all(.points_per_sec > 0 and .iters > 0))
  and .speedup_batched_vs_naive > 1
' "$sweep_json" >/dev/null || {
  echo "BENCH_sweep.json malformed:" >&2
  cat "$sweep_json" >&2
  exit 1
}
rm -f "$sweep_json"

echo "== whatif record->replay differential smoke"
# The identity replay must reproduce the recorded makespan bit for bit
# (the repricer's differential oracle); an H100-like preset must complete
# from the recorded charges alone.
workload="target/ci_whatif_workload.jsonl"
cargo run --release -p repro-bench --bin whatif -- \
  --scenario scenarios/whatif_record.json --record "$workload" >/dev/null
cargo run --release -p repro-bench --bin whatif -- --replay "$workload" \
  | grep "identity check: .* delta 0.000000000" >/dev/null
cargo run --release -p repro-bench --bin whatif -- --replay "$workload" --calib h100 \
  | grep "^makespan: " >/dev/null

echo "== record->lint smoke"
# A fresh recording straight off the runner must pass the workload-level
# analyzer cleanly (exit 0): the record path may not produce traces the
# admission gate would reject.
cargo run --release -p repro-bench --bin lint -- --recording "$workload"

echo "== whatif sweep smoke"
# The batched Pareto search over the same recording: a small grid with a
# loose deadline must evaluate points, extract a front and name a winner.
sweep_out=$(cargo run --release -p repro-bench --bin whatif -- sweep \
  --record "$workload" --gpus 2..4 --calib identity,h100 --deadline 1.0)
echo "$sweep_out" | grep -E "^sweep: 6 point\(s\), " >/dev/null
echo "$sweep_out" | grep -E "^pareto front: [1-9][0-9]* point\(s\)" >/dev/null
echo "$sweep_out" | grep "^best under deadline " >/dev/null

echo "== simd serve smoke (example job stream, admission accept/reject)"
# The worked example under scenarios/ must run end to end: every job
# admitted and completed. A mangled scenario (procs that do not divide
# the cores) must be rejected at admission with the typed reason, and a
# rejection must not take the service down.
simd=target/release/simd
serve_out=$("$simd" < scenarios/serve_jobs.ndjson)
[ "$(echo "$serve_out" | grep -c '"state":"done"')" = 2 ] || {
  echo "serve_jobs.ndjson did not complete both jobs:" >&2
  echo "$serve_out" >&2
  exit 1
}
reject_out=$( {
  jq -c '{type:"submit", id:"ci-reject", scenario:(.procs_per_node=7 | .output={})}' \
    scenarios/whatif_record.json
  echo '{"type":"stats"}'
} | "$simd")
echo "$reject_out" | grep '"id":"ci-reject","state":"rejected","reason":"invalid"' >/dev/null
echo "$reject_out" | grep '"rejected_invalid":1' >/dev/null

echo "== simd checkpoint kill/resume differential"
# A sweep SIGKILLed at a checkpoint boundary and resumed must produce
# output byte-identical to the uninterrupted run.
ckdir="target/ci_simd_ckpt"
rm -rf "$ckdir" target/ci_simd_a.jsonl target/ci_simd_b.jsonl
mkdir -p "$ckdir"
sweep_req() {
  printf '{"type":"sweep","id":"ci-sweep","recording":"%s","grid":"gpus=1..6;calib=identity,a100,h100","out":"%s"}\n' \
    "$workload" "$1"
}
sweep_req target/ci_simd_a.jsonl | "$simd" >/dev/null
mkfifo "$ckdir/in"
SIMD_SERVE_CHUNK_SLEEP_MS=2000 "$simd" --checkpoint-dir "$ckdir" --checkpoint-every 4 \
  < "$ckdir/in" > "$ckdir/log" &
simd_pid=$!
exec 9>"$ckdir/in"
sweep_req target/ci_simd_b.jsonl >&9
echo '{"type":"drain"}' >&9
for _ in $(seq 1 100); do
  grep -q '"state":"checkpoint"' "$ckdir/log" 2>/dev/null && break
  sleep 0.1
done
kill -9 "$simd_pid" 2>/dev/null || true
wait "$simd_pid" 2>/dev/null || true
exec 9>&-
[ -f "$ckdir/ci-sweep.ckpt.jsonl" ] || {
  echo "killed simd left no checkpoint cursor" >&2
  exit 1
}
sweep_req target/ci_simd_b.jsonl \
  | "$simd" --checkpoint-dir "$ckdir" --checkpoint-every 4 --resume \
  | grep -E '"state":"running".*"resumed":[1-9]' >/dev/null || {
  echo "resumed simd did not adopt the cursor" >&2
  exit 1
}
diff target/ci_simd_a.jsonl target/ci_simd_b.jsonl || {
  echo "resumed sweep output diverged from the uninterrupted run" >&2
  exit 1
}

echo "== whatif sweep CLI vs simd sweep bit-identity"
# The CLI's one-chunk CompiledSweep::run and serve's chunked
# run_resumable must write the same bytes for the same grid.
cargo run --release -p repro-bench --bin whatif -- sweep \
  --record "$workload" --gpus 1..6 --calib identity,a100,h100 \
  --out target/ci_sweep_cli.jsonl >/dev/null
cmp target/ci_sweep_cli.jsonl target/ci_simd_a.jsonl || {
  echo "whatif sweep output diverged from the simd sweep" >&2
  exit 1
}
rm -rf "$ckdir" target/ci_simd_a.jsonl target/ci_simd_b.jsonl target/ci_sweep_cli.jsonl
rm -f "$workload"

echo "CI OK"
