#!/usr/bin/env bash
# Tier-1 verification gate. Must pass on a machine with NO network
# access and an EMPTY cargo registry: the workspace is hermetic and
# depends on nothing outside this repository (see DESIGN.md,
# "Hermetic-build policy").
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline

echo "== hmdbench build (its own manifest, as the benchmark builds it) =="
# The declared benchmark (BENCHMARK.json) is also a package outside the
# workspace, with its own lock file and release profile. The workspace
# build compiles the same sources as an `hmd-bench` bin; this step
# builds them the way the benchmark is built and run.
cargo build --release --offline --manifest-path crates/bench/src/bin/hmdbench/Cargo.toml

echo "== test (offline) =="
cargo test -q --workspace --offline

echo "== clippy (offline, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== bench smoke (fast mode) =="
BENCH_SMOKE_DIR="$(mktemp -d)"
TRACE_DIR="$(mktemp -d)"
SERVE_PID=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null; rm -rf "$BENCH_SMOKE_DIR" "$TRACE_DIR"' EXIT
HMD_BENCH_FAST=1 BENCH_OUT_DIR="$BENCH_SMOKE_DIR" \
    cargo bench -p hmd-bench --bench substrates --offline
cargo run --release --offline -p hmd-bench --bin bench_check -- \
    "$BENCH_SMOKE_DIR/BENCH_substrates.json"
# Regression gate: the fresh (fast-mode) run against the committed
# baseline. The tolerance is deliberately generous — it exists to catch
# order-of-magnitude cliffs, not machine-to-machine scatter.
cargo run --release --offline -p hmd-bench --bin bench_check -- \
    --baseline BENCH_substrates.json "$BENCH_SMOKE_DIR/BENCH_substrates.json"

echo "== telemetry gate =="
# A traced end-to-end run must emit schema-valid artifacts covering the
# paper's phases, and tracing must not perturb the pipeline: the traced
# and untraced stdout are identical once measured latencies (the one
# wall-clock field) are scrubbed.
HMD_TRACE=1 HMD_TRACE_OUT="$TRACE_DIR" \
    cargo run --release --offline --example quickstart > "$TRACE_DIR/traced.out"
cargo run --release --offline --example quickstart > "$TRACE_DIR/untraced.out"
cargo run --release --offline -p hmd-bench --bin telemetry_check -- \
    "$TRACE_DIR/TELEMETRY_pipeline.json" \
    --require-span framework.run \
    --require-span framework.prepare_data \
    --require-span sim.build_corpus \
    --require-span framework.fit_models \
    --require-span attack.lowprofool.generate \
    --require-span rl.predictor.train \
    --require-span framework.train_controllers
test -s "$TRACE_DIR/TELEMETRY_pipeline.folded" \
    || { echo "ERROR: collapsed-stack export is empty" >&2; exit 1; }
sed -E 's/[0-9]+\.[0-9]+ ms/<latency> ms/g' "$TRACE_DIR/traced.out" > "$TRACE_DIR/traced.scrubbed"
sed -E 's/[0-9]+\.[0-9]+ ms/<latency> ms/g' "$TRACE_DIR/untraced.out" > "$TRACE_DIR/untraced.scrubbed"
diff -u "$TRACE_DIR/untraced.scrubbed" "$TRACE_DIR/traced.scrubbed" \
    || { echo "ERROR: tracing perturbed the pipeline output" >&2; exit 1; }

echo "== serving observability gate =="
# A full two-shard batched serving fleet on an ephemeral port: train,
# stream the seeded lull/burst/recovery traffic on each shard, then
# scrape and validate every endpoint. The burst must have produced
# alert fire+resolve transitions, the exposition must be well-formed
# with all serving series present, and the per-shard labeled series
# must sum to the fleet aggregate. --retrain-every 200 schedules two
# retraining rounds (boundaries at 200 and 400 of 600), so the run must
# also complete at least one quarantine-driven model hot-swap and land
# on generation 2. The seeded burst trips SLO alerts, so the flight
# recorder must have captured at least one incident bundle; every
# retained bundle is saved for the forensic replay gate below.
./target/release/serve --samples 600 --seed 7 --shards 2 --batch 16 \
    --retrain-every 200 --linger-secs 300 \
    > "$TRACE_DIR/serve.out" 2> "$TRACE_DIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 1 300); do
    grep -q '^SERVE_ADDR ' "$TRACE_DIR/serve.out" 2>/dev/null && break
    kill -0 "$SERVE_PID" 2>/dev/null \
        || { echo "ERROR: serve exited early:" >&2; cat "$TRACE_DIR/serve.err" >&2; exit 1; }
    sleep 1
done
SERVE_ADDR="$(sed -n 's/^SERVE_ADDR //p' "$TRACE_DIR/serve.out")"
[ -n "$SERVE_ADDR" ] || { echo "ERROR: serve never printed SERVE_ADDR" >&2; exit 1; }
# --expect-history / --expect-traces extend the gate to the continuous
# observability surface: a populated multi-resolution /history.json
# whose merged counters equal the shard sums, at least one promoted
# stage trace on /traces.json, and a served /dashboard page.
cargo run --release --offline -p hmd-bench --bin obs_check -- \
    "$SERVE_ADDR" --wait-samples 1200 --expect-transitions 4 --expect-shards 2 \
    --expect-generation 2 --expect-incident --expect-history --expect-traces \
    --save-incident "$TRACE_DIR/incidents" --quit
wait "$SERVE_PID"
SERVE_PID=""

echo "== forensic replay gate =="
# Deterministic replay of the incident bundles captured above: rebuild
# the artifacts at the pinned generation(s) from the recorded seed,
# re-classify every captured window, and gate on a byte-identical
# verdict digest (replay exits non-zero on any divergence). Two bundles
# are replayed, in shard and capture order: the first one, and the
# first one captured under a retrained generation (>= 1), whose replay
# must re-run the recorded fleet to rebuild the retrained models. Each
# bundle embeds the promoted flagged stage traces; replay round-trips
# them and reports the count — the burst guarantees at least one in the
# first bundle. Replay also re-scores every window's critic value and
# exits non-zero unless each recorded value is bit-equal; it reports
# how many it checked.
mapfile -t INCIDENTS < <(ls "$TRACE_DIR/incidents" | sort -V)
INCIDENT="$TRACE_DIR/incidents/${INCIDENTS[0]}"
RETRAINED=""
for id in "${INCIDENTS[@]}"; do
    # a bundle's own generation is the first "generation" key in it
    gen="$(grep -o '"generation":[0-9]*' "$TRACE_DIR/incidents/$id" | sed -n '1s/.*://p')"
    if [ "${gen:-0}" -ge 1 ]; then
        RETRAINED="$TRACE_DIR/incidents/$id"
        break
    fi
done
[ -n "$RETRAINED" ] \
    || { echo "ERROR: no retained incident from a retrained generation" >&2; exit 1; }
./target/release/replay "$INCIDENT" --explain 4 \
    | tee "$TRACE_DIR/replay.out"
grep -Eq '^REPLAY_TRACES [1-9]' "$TRACE_DIR/replay.out" \
    || { echo "ERROR: replayed bundle embeds no stage traces" >&2; exit 1; }
grep -Eq '^REPLAY_SCORES [1-9]' "$TRACE_DIR/replay.out" \
    || { echo "ERROR: replay checked no recorded critic values" >&2; exit 1; }
./target/release/replay "$RETRAINED" 2> "$TRACE_DIR/replay-retrained.err" \
    | tee "$TRACE_DIR/replay-retrained.out"
grep -q '^REPLAY_OK ' "$TRACE_DIR/replay-retrained.out" \
    || { echo "ERROR: $RETRAINED did not replay" >&2; exit 1; }
grep -q 're-running [0-9]*-shard fleet' "$TRACE_DIR/replay-retrained.err" \
    || { echo "ERROR: replay of $RETRAINED never re-ran the fleet:" >&2
         cat "$TRACE_DIR/replay-retrained.err" >&2; exit 1; }

echo "== replay hostile-input gate =="
# A bundle is untrusted input: replay must answer a malformed one with
# exit status 2, never a crash or a run without end. Three files:
# 200,000 nested '[' (past the JSON parser's nesting cap), the captured
# incident with a batch size no session could allocate (past
# ServingConfig's MAX_BATCH), and the captured incident pinned to
# generation 1 with a ~2^64-window calibration budget (past
# MAX_CALIBRATION; the fleet re-run would calibrate for ever).
head -c 200000 /dev/zero | tr '\0' '[' > "$TRACE_DIR/deep.json"
sed -E 's/"batch":[0-9]+/"batch":4611686018427387904/' "$INCIDENT" \
    > "$TRACE_DIR/huge-batch.json"
grep -q '"batch":4611686018427387904' "$TRACE_DIR/huge-batch.json" \
    || { echo "ERROR: the captured incident has no batch field" >&2; exit 1; }
sed -E -e 's/"generation":[0-9]+/"generation":1/g' \
    -e 's/"calibration_samples":[0-9]+/"calibration_samples":18446744073709551000/' \
    "$INCIDENT" > "$TRACE_DIR/huge-calibration.json"
grep -q '"calibration_samples":18446744073709551000' "$TRACE_DIR/huge-calibration.json" \
    || { echo "ERROR: the captured incident has no calibration_samples field" >&2; exit 1; }
for hostile in deep.json huge-batch.json huge-calibration.json; do
    status=0
    ./target/release/replay "$TRACE_DIR/$hostile" > /dev/null 2> "$TRACE_DIR/hostile.err" \
        || status=$?
    [ "$status" -eq 2 ] || {
        echo "ERROR: replay exited $status on $hostile, want 2:" >&2
        tail -n 5 "$TRACE_DIR/hostile.err" >&2
        exit 1
    }
done

echo "== hermeticity: dependency tree must be workspace-only =="
if cargo tree --workspace --offline --prefix none | grep -v '^hmd' | grep -q '[a-z]'; then
    echo "ERROR: non-workspace dependency found:" >&2
    cargo tree --workspace --offline --prefix none | grep -v '^hmd' | grep '[a-z]' >&2
    exit 1
fi

echo "ci.sh: all gates passed"
