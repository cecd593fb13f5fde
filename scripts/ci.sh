#!/usr/bin/env bash
# Local CI gate: release build, tier-1 tests, workspace tests, the
# standalone benchmark package's tests, smokes, the fig7 cycle pin, strict
# clippy, strict rustdoc. Everything runs offline against the vendored
# dev-dependencies in vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
# --workspace: the root package does not depend on the CLI/bench bins,
# and the smokes below run ./target/release/{rispp-cli,fig7} directly.
cargo build --release --workspace

echo "==> cargo test -q (tier-1: root package)"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q (benchmark package)"
# The layered benchmark is a standalone package outside the workspace
# (its own lock file and target directory), so --workspace skips it.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> fault-sweep smoke (rispp-cli resilience)"
# Seeded so the run provably exercises the whole recovery path: the CSV row
# must show injected faults AND quarantined containers, and the run must
# still complete (exit 0 = forward progress via the cISA fallback).
smoke=$(./target/release/rispp-cli resilience --frames 2 --fault-rate 0.05 \
        --fault-seed 1 --csv | tail -1)
echo "    $smoke"
faults=$(echo "$smoke" | cut -d, -f4)
quarantined=$(echo "$smoke" | cut -d, -f6)
if [ "${faults:-0}" -eq 0 ] || [ "${quarantined:-0}" -eq 0 ]; then
  echo "ci: resilience smoke failed — expected nonzero faults and quarantines, got $smoke" >&2
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
# and a non-trivial metrics snapshot. The fig7 perf gate below runs with
# telemetry compiled in but disabled, pinning the NullRecorder cost.
./target/release/rispp-cli simulate --frames 2 --acs 8 \
  --metrics-out target/ci_metrics.json --trace-out target/ci_trace.json \
  >/dev/null
./target/release/rispp-cli check-trace --file target/ci_trace.json
grep -q '"rispp_simulated_cycles_total"' target/ci_metrics.json || {
  echo "ci: telemetry smoke failed — metrics snapshot missing rispp_simulated_cycles_total" >&2
  exit 1
}

echo "==> plan-cache smoke (cache on/off CSV byte-identity)"
# The PlanCache is a pure memoisation layer: the same simulation run
# with the cache enabled (default) and disabled via the RISPP_PLAN_CACHE=0
# escape hatch must produce byte-identical CSV output. Any divergence
# means a cached decision leaked state it should not have.
RISPP_PLAN_CACHE=1 ./target/release/rispp-cli simulate --frames 2 --acs 8 \
  --csv >target/ci_plan_on.csv
RISPP_PLAN_CACHE=0 ./target/release/rispp-cli simulate --frames 2 --acs 8 \
  --csv >target/ci_plan_off.csv
if ! cmp -s target/ci_plan_on.csv target/ci_plan_off.csv; then
  echo "ci: plan-cache smoke failed — cache-on and cache-off CSV outputs differ:" >&2
  diff target/ci_plan_on.csv target/ci_plan_off.csv >&2 || true
  exit 1
fi
echo "    cache-on and cache-off outputs byte-identical"

echo "==> serve smoke (daemon boot, NDJSON batch, SIGTERM drain)"
# Boot the job-server daemon on an ephemeral port, push a fig7-shaped
# batch over the socket with --compare-local (the client re-runs every
# completed job through the batch path and fails on any stats
# divergence), then SIGTERM the daemon: it must drain gracefully —
# exit 0 and account for every admitted job (4 completed, nothing
# lost, duplicated, rejected or dropped).
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
  --from 6 --to 9 --compare-local | sed 's/^/    /'
kill -TERM "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 0 ]; then
  echo "ci: serve smoke failed — daemon exited $serve_rc after SIGTERM" >&2
  exit 1
fi
if ! grep -q "drained: 4 completed, 0 rejected, 0 timeouts, 0 cancelled, 0 panicked, 0 poisoned" \
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

echo "==> cargo bench --no-run --workspace"
cargo bench --no-run --workspace

echo "==> fig7 simulated-cycle pin vs committed BENCH_sweep.json"
# Correctness gate, independent of host speed: the full sweep over the
# committed frame count must reproduce the committed simulated cycles
# exactly, so any drift in the encoder, the trace or the replay fails
# here. The encode takes about a second.
frames=$(grep -o '"frames": [0-9]*' BENCH_sweep.json | awk '{print $2}')
pinned=$(grep -o '"simulated_cycles": [0-9]*' BENCH_sweep.json | awk '{print $2}')
RISPP_THREADS=1 ./target/release/fig7 "$frames" --json target/ci_sweep.json \
  >/dev/null 2>&1
cycles=$(grep -o '"simulated_cycles": [0-9]*' target/ci_sweep.json | awk '{print $2}')
echo "    committed ${pinned} simulated cycles, measured ${cycles}"
if [ "$cycles" != "$pinned" ]; then
  echo "ci: fig7 cycle pin failed — ${cycles} simulated cycles, committed ${pinned}" >&2
  exit 1
fi

if [ "${RISPP_CI_SKIP_PERF:-0}" != "1" ]; then
  echo "==> fig7 throughput smoke vs committed BENCH_sweep.json"
  # Wall-clock gate: the sweep must stay within 20% of the committed
  # record (same frames, single worker thread, best of two runs to damp
  # scheduler noise; the first is the cycle-pin run above). Set
  # RISPP_CI_SKIP_PERF=1 on machines whose absolute speed is not
  # comparable to the one that recorded the baseline.
  baseline=$(grep -o '"jobs_per_s": [0-9.]*' BENCH_sweep.json | awk '{print $2}')
  best=$(grep -o '"jobs_per_s": [0-9.]*' target/ci_sweep.json | awk '{print $2}')
  RISPP_THREADS=1 ./target/release/fig7 "$frames" --json target/ci_sweep.json \
    >/dev/null 2>&1
  run=$(grep -o '"jobs_per_s": [0-9.]*' target/ci_sweep.json | awk '{print $2}')
  best=$(awk -v a="$best" -v b="$run" 'BEGIN{print (b>a)?b:a}')
  echo "    committed ${baseline} jobs/s, measured best-of-2 ${best} jobs/s"
  awk -v b="$baseline" -v m="$best" 'BEGIN{exit !(m >= 0.8 * b)}' || {
    echo "ci: sweep throughput regression — ${best} jobs/s is below 80% of the committed ${baseline} (set RISPP_CI_SKIP_PERF=1 to skip on incomparable hardware)" >&2
    exit 1
  }
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "ci: all gates passed"
