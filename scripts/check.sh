#!/usr/bin/env bash
# Full local gate: release build, tests, lints, and a benchmark smoke.
# Each suite runs once; a later step repeats one only under a different
# configuration (scalar kernels, the 8-lane kernel, release + ignored
# smokes). Every kernel returns the same bits, so the goldens and
# fingerprints assert under each of them.
# Usage: scripts/check.sh   (run from anywhere; cd's to the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check (every workspace crate formatted) =="
cargo fmt --all --check

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test (every crate, auto SIMD dispatch) =="
cargo test -q --workspace

echo "== cargo test (vendored crossbeam channel: vendor/* is outside the workspace, so --workspace skips it) =="
cargo test -q -p crossbeam

echo "== cargo test (vendored serde, serde_json, rand, proptest: the codec's bit-exact floats, policy artifacts, every seed and every property suite rest on them; --workspace skips them too) =="
cargo test -q -p serde -p serde_json -p rand -p proptest

echo "== crossbeam wake rule: no lost wake-up over a million messages per case, each under a 30 s watchdog (release) =="
cargo test -q --release -p crossbeam -- --include-ignored

echo "== helper hand-off: every job runs exactly once and in order over a million jobs per case, some posted after the helper parked, each case under a 30 s watchdog (release) =="
cargo test -q --release -p dosco-nn --lib fork -- --include-ignored

echo "== cargo test (nn + serve, DOSCO_SIMD=off: scalar reference kernels, plain tanh and inversion loops) =="
DOSCO_SIMD=off cargo test -q -p dosco-nn -p dosco-serve

echo "== cargo test (rl, DOSCO_SIMD=off: forked update halves == inline == the serial update's fingerprints on the scalar kernels) =="
DOSCO_SIMD=off cargo test -q -p dosco-rl

echo "== training fingerprints (DOSCO_SIMD=off: the 2x256 golden on the scalar kernels, plain tanh and inversion loops) =="
DOSCO_SIMD=off cargo test -q --test train_goldens

echo "== cargo test (nn + serve, DOSCO_SIMD=avx2: the 8-lane kernel and AVX2 tanh loop, which auto skips on an AVX-512 host; a batch split across two threads on it) =="
DOSCO_SIMD=avx2 cargo test -q -p dosco-nn -p dosco-serve

echo "== cargo test (rl, DOSCO_SIMD=avx2: forked update halves == inline == the serial update's fingerprints on the 8-lane kernel) =="
DOSCO_SIMD=avx2 cargo test -q -p dosco-rl

echo "== training fingerprints (DOSCO_SIMD=avx2: the 2x256 golden on the 8-lane kernel) =="
DOSCO_SIMD=avx2 cargo test -q --test train_goldens

echo "== tanh: all 2^32 inputs equal libm's tanhf bit for bit, for the one-lane tanh() and the plain, AVX2 and AVX-512 loops (release, ~1 min each) =="
cargo test --release -p dosco-nn --lib tanh::tests::all_bit_patterns_equal_libm_ -- --include-ignored

echo "== event queue: radix heap vs the indexed-heap oracle, 1 M operations with and without peeks (release) =="
cargo test --release -p dosco-simnet --lib queue::tests::matches_reference_heap_on_a_million_operations -- --include-ignored

echo "== event queue: the same oracle at the simulator's depth, 1.7e5 resident, pushes and cancels inside the sorted run (release) =="
cargo test --release -p dosco-simnet --lib queue::tests::matches_reference_heap_at_grid_depth -- --include-ignored

echo "== path table: in-place repairs vs compute_masked, every read bit for bit over 10k random churn scripts with order-breaking delays (release) =="
cargo test --release -p dosco-topology --test path_oracle -- --include-ignored

echo "== serve oracle: 64 episodes x {1, 2, 4} shards x {greedy, stochastic} equal the in-process deployment; the kill-window and hub-publish scripts at 4x their horizon (release) =="
cargo test --release -p dosco-serve --test serve_oracle -- --include-ignored

echo "== simcore 100k-flow churn smoke (release, bounded time + flat memory) =="
cargo test --release -p dosco-bench --test churn_smoke -- --include-ignored

echo "== obs disabled-path overhead (release, <1% contract) =="
cargo test --release -p dosco-bench --test obs_overhead -- --include-ignored

echo "== chaos: substrate churn smoke (release, bounded time + conservation) =="
cargo test --release -p dosco-bench --test chaos_smoke -- --include-ignored

echo "== example actor_learner: lockstep runtime on Abilene, batch conservation =="
cargo run -q --release --example actor_learner

echo "== example serve: hot swap and a shard kill window under traffic, conservation =="
cargo run -q --release --example serve

echo "== example ctl: canary lifecycle through the hub's directed and broadcast publishes, ops surface over TCP =="
cargo run -q --release --example ctl

echo "== dosco train + eval + topo: the figures' training path writes a policy that loads and evaluates; the bundled topologies list =="
policy_dir=$(mktemp -d)
trap 'rm -rf "$policy_dir"' EXIT
./target/release/dosco train --ingress 2 --steps 4000 --seeds 2 --out "$policy_dir/policy.json"
./target/release/dosco eval --policy "$policy_dir/policy.json" --seeds 2
./target/release/dosco topo

echo "== dosco run: a heuristic scored on the same capacity draws as dosco eval =="
./target/release/dosco run --algo gcasp --seeds 2

echo "== probe_inference: greedy against stochastic deployment of that same policy =="
./target/release/probe_inference --policy "$policy_dir/policy.json"

echo "== traincurve: the training diagnostic over the same per-seed loop, two report windows =="
./target/release/traincurve --steps 8000

echo "== calibrate: all four coordinators side by side on one scenario, tiny budget =="
DOSCO_TRAIN_STEPS=2000 DOSCO_SEEDS=1 DOSCO_EVAL_SEEDS=1 DOSCO_HORIZON=500 DOSCO_CENTRAL_STEPS=50 \
  ./target/release/calibrate

echo "== summarize: the committed results/summary.md is the fold of the committed results/*.txt =="
./target/release/summarize results | diff - results/summary.md

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (every workspace crate, warnings denied: missing docs, broken and private links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== benchmark package: contract tests =="
(cd benchmark && cargo test --offline -q)

echo "== benchmark smoke (1 s of decide-abilene, in-run checks on) =="
bash benchmark/run.sh --workload decide-abilene --seconds 1

echo "== benchmark smoke (1 s of serve-abilene: per-episode Metrics == eval::evaluate, ServeReport conserved) =="
bash benchmark/run.sh --workload serve-abilene --seconds 1

echo "== benchmark smoke (1 s of sim-grid-static: zero drops, conservation, every segment bit-equal to the warm-up) =="
bash benchmark/run.sh --workload sim-grid-static --seconds 1

echo "== benchmark smoke (1 s of sim-grid-churn: conservation, every churn event applied) =="
bash benchmark/run.sh --workload sim-grid-churn --seconds 1

echo "== benchmark smoke (1 s of train-inproc: runtime weights == serial ACKTR weights) =="
bash benchmark/run.sh --workload train-inproc --seconds 1

echo "All checks passed."
