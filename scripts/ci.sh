#!/usr/bin/env bash
# Local CI gate: release build, tier-1 tests, workspace tests, the
# standalone benchmark package's tests, smokes, rustfmt, strict clippy,
# strict rustdoc, then the fig7 cycle pin (`rispp-cli reproduce fig7`), the
# committed cycle records against fresh runs of their commands, the
# EXPERIMENTS.md output blocks against `rispp-cli reproduce`, and the
# benchmark's fig7, observed and serve-mix throughput gates (last, so a
# slow host cannot stop the lint gates from running).
# Everything runs offline against the vendored dev-dependencies in
# vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
# --workspace: the root package does not depend on the CLI, and the
# smokes and the cycle pin below run ./target/release/rispp-cli directly.
cargo build --release --workspace

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q (benchmark package)"
# The layered benchmark is a standalone package outside the workspace
# (its own lock file and target directory), so --workspace skips it.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> fault smoke (rispp-cli simulate --fault-rate)"
# Seeded so the run provably exercises the whole recovery path: the
# summary must show injected faults AND quarantined containers, and the
# run must still complete (exit 0 = forward progress via the cISA
# fallback).
smoke=$(./target/release/rispp-cli simulate --frames 2 --fault-rate 0.05 \
        --fault-seed 1)
echo "$smoke" | awk '/^(faults injected|ACs quarantined):/{print "    " $0}'
faults=$(echo "$smoke" | awk '/^faults injected:/{print $3}')
quarantined=$(echo "$smoke" | awk '/^ACs quarantined:/{print $3}')
if [ "${faults:-0}" -eq 0 ] || [ "${quarantined:-0}" -eq 0 ]; then
  echo "ci: fault smoke failed — expected nonzero faults and quarantines, got faults=${faults:-none} quarantined=${quarantined:-none}" >&2
  exit 1
fi

echo "==> contention smoke (rispp-cli contend, 2 tenants, both policies)"
# Two phase-shifted tenants on one small fabric must contend for real:
# the shared policy has to report contested evictions, the partitioned
# policy must report exactly zero (hard isolation), and the sweep must
# exit cleanly.
contend_csv=$(./target/release/rispp-cli contend --frames 2 --apps 2 \
              --from 8 --to 8 --csv | tail -n +2)
echo "$contend_csv" | sed 's/^/    /'
shared_contested=$(echo "$contend_csv" | awk -F, '$2=="shared"{s+=$8} END{print s+0}')
part_contested=$(echo "$contend_csv" | awk -F, '$2=="partitioned"{s+=$8} END{print s+0}')
if [ "$shared_contested" -eq 0 ] || [ "$part_contested" -ne 0 ]; then
  echo "ci: contention smoke failed — shared contested=$shared_contested (want >0), partitioned contested=$part_contested (want 0)" >&2
  exit 1
fi

echo "==> telemetry smoke (metrics + Perfetto trace + check-trace)"
# A short telemetry-enabled run must produce a parseable Chrome trace
# (>=1 container track, >=1 decision event — enforced by check-trace)
# and a non-trivial metrics snapshot. The fig7 throughput gate below runs
# with telemetry compiled in but off, so it also gates what telemetry
# costs when off.
./target/release/rispp-cli simulate --frames 2 --acs 8 \
  --metrics-out target/ci_metrics.json --trace-out target/ci_trace.json \
  >/dev/null
./target/release/rispp-cli check-trace --file target/ci_trace.json
grep -q '"rispp_simulated_cycles_total"' target/ci_metrics.json || {
  echo "ci: telemetry smoke failed — metrics snapshot missing rispp_simulated_cycles_total" >&2
  exit 1
}
# The Prometheus text must follow the exposition grammar on every sample
# line, labelled histogram buckets (`family_bucket{si="N",le="…"}`)
# included.
./target/release/rispp-cli simulate --frames 2 --acs 8 \
  --metrics-out target/ci_metrics.prom >/dev/null
bad_prom=$(grep -v '^#' target/ci_metrics.prom \
  | grep -Ev '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? -?[0-9]+$' \
  || true)
if [ -n "$bad_prom" ]; then
  echo "ci: telemetry smoke failed — Prometheus lines outside the exposition grammar:" >&2
  echo "$bad_prom" | head -5 >&2
  exit 1
fi

echo "==> serve smoke (daemon boot, NDJSON batch, SIGTERM drain)"
# Boot the job-server daemon on an ephemeral port, push a fig7-shaped
# batch over the socket twice (--repeat 2, so the second four jobs plan
# from the daemon's warm plan cache) with --compare-local (the client
# re-runs every completed job through the batch path and fails on any
# stats divergence), then one faulty job whose seed is above 2^53 (the
# wire must carry it exactly, or the daemon replays another seed and the
# comparison fails), then SIGTERM the daemon: it must drain gracefully —
# exit 0 and account for every admitted job (9 completed, nothing lost,
# duplicated, rejected or dropped).
./target/release/rispp-cli serve --addr 127.0.0.1:0 --workers 2 \
  >target/ci_serve.log 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  grep -q "rispp-serve listening on" target/ci_serve.log 2>/dev/null && break
  sleep 0.1
done
serve_addr=$(grep -m1 "rispp-serve listening on" target/ci_serve.log | awk '{print $NF}')
if [ -z "${serve_addr:-}" ]; then
  echo "ci: serve smoke failed — daemon never announced its address" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
./target/release/rispp-cli submit --addr "$serve_addr" --frames 2 \
  --from 6 --to 9 --repeat 2 --compare-local | sed 's/^/    /'
./target/release/rispp-cli submit --addr "$serve_addr" --frames 2 --acs 8 \
  --fault-rate 0.01 --fault-seed 11400714819323198485 --compare-local \
  | sed 's/^/    /'
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 0 ]; then
  echo "ci: serve smoke failed — daemon exited $serve_rc after SIGTERM" >&2
  exit 1
fi
if ! grep -q "drained: 9 completed, 0 rejected, 0 timeouts, 0 cancelled, 0 panicked, 0 poisoned" \
    target/ci_serve.log; then
  echo "ci: serve smoke failed — drain summary lost or duplicated jobs:" >&2
  cat target/ci_serve.log >&2
  exit 1
fi
echo "    $(grep -m1 'drained:' target/ci_serve.log)"

echo "==> forensics smoke (flight bundle on injected panic + rispp-cli forensics)"
# Boot a forensics-armed daemon, inject a job that panics on every
# attempt (retry exhaustion), and require exactly one flight bundle in
# the spill directory that `rispp-cli forensics` parses with exit 0.
rm -rf target/ci_flight
./target/release/rispp-cli serve --addr 127.0.0.1:0 --workers 1 \
  --max-attempts 2 --poison-threshold 10 --flight-dir target/ci_flight \
  >target/ci_serve_flight.log 2>&1 &
flight_pid=$!
for _ in $(seq 1 100); do
  grep -q "rispp-serve listening on" target/ci_serve_flight.log 2>/dev/null && break
  sleep 0.1
done
flight_addr=$(grep -m1 "rispp-serve listening on" target/ci_serve_flight.log | awk '{print $NF}')
if [ -z "${flight_addr:-}" ]; then
  echo "ci: forensics smoke failed — daemon never announced its address" >&2
  kill "$flight_pid" 2>/dev/null || true
  exit 1
fi
# The submit exits nonzero because the job fails — that is the point.
./target/release/rispp-cli submit --addr "$flight_addr" --frames 2 \
  --acs 6 --chaos-panics 99 | sed 's/^/    /' || true
kill -TERM "$flight_pid"
wait "$flight_pid" || {
  echo "ci: forensics smoke failed — daemon exited nonzero after SIGTERM" >&2
  exit 1
}
bundle_count=$(ls target/ci_flight/bundle-*.jsonl 2>/dev/null | wc -l)
if [ "$bundle_count" -ne 1 ]; then
  echo "ci: forensics smoke failed — expected exactly 1 flight bundle, found $bundle_count" >&2
  exit 1
fi
./target/release/rispp-cli forensics \
  --file "$(ls target/ci_flight/bundle-*.jsonl)" | sed 's/^/    /'

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> fig7 simulated-cycle pin vs committed BENCH_sweep.json"
# Correctness gate, independent of host speed: `reproduce fig7`, the full
# sweep over the committed frame count, must reproduce the committed
# simulated cycles exactly, so any drift in the encoder, the trace or the
# replay fails here. The encode takes about a second.
frames=$(grep -o '"frames": [0-9]*' BENCH_sweep.json | awk '{print $2}')
pinned=$(grep -o '"simulated_cycles": [0-9]*' BENCH_sweep.json | awk '{print $2}')
RISPP_THREADS=1 ./target/release/rispp-cli reproduce fig7 --frames "$frames" \
  --json target/ci_sweep.json >/dev/null 2>&1
cycles=$(grep -o '"simulated_cycles": [0-9]*' target/ci_sweep.json | awk '{print $2}')
echo "    committed ${pinned} simulated cycles, measured ${cycles}"
if [ "$cycles" != "$pinned" ]; then
  echo "ci: fig7 cycle pin failed — ${cycles} simulated cycles, committed ${pinned}" >&2
  exit 1
fi

echo "==> committed BENCH_sweep/contention/resilience.json vs fresh runs"
# Each cycle record must equal, byte for byte, what its command in
# README's records table writes on this tree: the whole fig7 record the
# cycle pin above just wrote, the two-tenant contention sweep and the
# fault-rate ladder (about 0.5 s together). The benchmark reads the last
# two as well, but RISPP_CI_SKIP_PERF=1 skips it.
check_record() { # committed record, freshly written file
  if ! cmp -s "$1" "$2"; then
    echo "ci: $1 differs from a fresh run of its command (< committed, > tree):" >&2
    diff "$1" "$2" | head -20 >&2 || true
    exit 1
  fi
  echo "    $1: identical"
}
check_record BENCH_sweep.json target/ci_sweep.json
./target/release/rispp-cli contend --apps 2 --json target/ci_contention.json \
  >/dev/null 2>target/ci_contention.err || {
  echo "ci: \`rispp-cli contend --apps 2 --json\` failed:" >&2
  cat target/ci_contention.err >&2
  exit 1
}
check_record BENCH_contention.json target/ci_contention.json
RISPP_THREADS=1 ./target/release/rispp-cli reproduce resilience --frames 20 \
  --json target/ci_resilience.json >/dev/null 2>target/ci_resilience.err || {
  echo "ci: \`rispp-cli reproduce resilience --frames 20 --json\` failed:" >&2
  cat target/ci_resilience.err >&2
  exit 1
}
check_record BENCH_resilience.json target/ci_resilience.json

echo "==> EXPERIMENTS.md output blocks vs rispp-cli reproduce"
# Every fenced block of EXPERIMENTS.md is the verbatim stdout of the
# `rispp-cli reproduce ...` command named last in the prose above it.
# Rerun each and fail on any byte difference, so the document cannot
# drift from the tree. About 2.5 s; fig7 --frames 140 is most of it.
rm -rf target/ci_experiments
mkdir -p target/ci_experiments
awk -v dir=target/ci_experiments '
  /^```/ {
    if (inblock) { inblock = 0; close(out); next }
    n++; inblock = 1; out = sprintf("%s/%02d.md", dir, n)
    printf "" > out
    printf "%s\n", cmd > sprintf("%s/%02d.cmd", dir, n)
    cmd = ""; next
  }
  inblock { print > out; next }
  {
    line = $0
    while (match(line, /`rispp-cli reproduce [^`]*`/)) {
      cmd = substr(line, RSTART + 11, RLENGTH - 12)
      line = substr(line, RSTART + RLENGTH)
    }
  }
' EXPERIMENTS.md
blocks=0
for cmd_file in target/ci_experiments/*.cmd; do
  [ -e "$cmd_file" ] || continue
  block=${cmd_file%.cmd}
  args=$(cat "$cmd_file")
  if [ -z "$args" ]; then
    echo "ci: EXPERIMENTS.md block $(basename "$block") names no \`rispp-cli reproduce\` command above it" >&2
    exit 1
  fi
  # shellcheck disable=SC2086 # the experiment's arguments split on spaces
  ./target/release/rispp-cli $args >"$block.out" 2>"$block.err" || {
    echo "ci: \`rispp-cli $args\` (EXPERIMENTS.md block $(basename "$block")) failed:" >&2
    cat "$block.err" >&2
    exit 1
  }
  if ! cmp -s "$block.md" "$block.out"; then
    echo "ci: EXPERIMENTS.md block $(basename "$block") differs from \`rispp-cli $args\` (< document, > tree):" >&2
    diff "$block.md" "$block.out" | head -20 >&2 || true
    exit 1
  fi
  echo "    rispp-cli $args: identical"
  blocks=$((blocks + 1))
done
if [ "$blocks" -eq 0 ]; then
  echo "ci: EXPERIMENTS.md has no output blocks to check" >&2
  exit 1
fi

if [ "${RISPP_CI_SKIP_PERF:-0}" != "1" ]; then
  # Wall-clock gates at the benchmark's reference host speed: the benchmark
  # scales each rate by how much slower than the reference its speed probe
  # ran beside the timed passes, so a busy or slow host moves the gated
  # rate far less than raw wall-clock and the gate reads the code. For each
  # gated workload the better of two runs must reach 80% of the committed
  # record, the verdict line of the median of five runs of the same
  # command: fig7 (telemetry compiled in but off), observed (explain,
  # journal and the metrics, Perfetto and flight-recorder observers on
  # every job, so the cost of telemetry when on) and serve-mix (the job
  # server's request path, its plans served from the warm plan cache).
  # Each run also gates the workload's correctness checks (fig7: the cycle
  # pin) and exits nonzero on any failure. Set RISPP_CI_SKIP_PERF=1 on
  # machines whose speed the probe cannot relate to the recording host.
  jobs_per_s() { grep -o '"jobs_per_s":{"value":[0-9.]*' | cut -d: -f3; }
  throughput_gate() { # workload, committed record
    echo "==> $1 throughput (benchmark) vs committed $2"
    baseline=$(jobs_per_s <"$2")
    best=0
    for run in 1 2; do
      cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml \
        --bin benchmark -- --workload "$1" --seed 2008 --seconds 10 \
        >"target/ci_$1.txt" || {
        echo "ci: $1 benchmark run $run exited $? (1: a correctness gate such as the fig7 cycle pin failed); output in target/ci_$1.txt" >&2
        exit 1
      }
      rate=$(tail -1 "target/ci_$1.txt" | jobs_per_s)
      echo "    run $run: ${rate} jobs/s"
      best=$(awk -v a="$best" -v b="$rate" 'BEGIN{print (b>a)?b:a}')
    done
    echo "    committed ${baseline} jobs/s, measured best-of-2 ${best} jobs/s"
    awk -v b="$baseline" -v m="$best" 'BEGIN{exit !(m >= 0.8 * b)}' || {
      echo "ci: $1 throughput regression — ${best} jobs/s is below 80% of the committed ${baseline} (set RISPP_CI_SKIP_PERF=1 to skip on incomparable hardware)" >&2
      exit 1
    }
  }
  throughput_gate fig7 BENCH_fig7.json
  throughput_gate observed BENCH_observed.json
  throughput_gate serve-mix BENCH_serve_mix.json
fi

echo "ci: all gates passed"
