#!/usr/bin/env bash
# End-to-end smoke for the resident daemon (`activedr serve`, DESIGN.md §13):
#
#   1. synth a scenario bundle, feed its job/publication traces into a WAL
#   2. start the daemon (snapshot-seeded), trigger a warm purge via ctl
#   3. compare the warm victims + ranks byte-for-byte against a cold
#      one-shot `purge` over the same inputs
#   4. kill -9 the daemon, restart it, trigger again -> identical artifacts
#   5. stop gracefully with SIGTERM (seal WAL + final checkpoint, exit 0)
#      and verify a third daemon recovers from the checkpoint
#
# Usage: tools/serve_smoke.sh [build-dir]   (default: build)

set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
if [[ ! -x "$build_dir/tools/activedr" ]]; then
  cmake -B "$build_dir" -S . >/dev/null
  cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 2)" --target activedr_tool
fi
adr="$PWD/$build_dir/tools/activedr"

work="$(mktemp -d "${TMPDIR:-/tmp}/adr_serve_smoke.XXXXXX")"
daemon_pid=""
cleanup() {
  [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

now=2017-01-01
retain=0.5

# Poll a condition with a deadline instead of waiting unboundedly — a hung
# daemon fails the smoke in seconds, not a CI-job timeout.
poll_until() {  # poll_until <timeout-s> <what> <cmd...>
  local deadline=$((SECONDS + $1)) what="$2"
  shift 2
  until "$@"; do
    if ((SECONDS >= deadline)); then
      echo "FAIL: timed out waiting for $what"
      exit 1
    fi
    sleep 0.1
  done
}

wait_pid_bounded() {  # wait_pid_bounded <timeout-s> <what> [expected-rc]
  local timeout="$1" what="$2" expect="${3:-}"
  poll_until "$timeout" "$what" bash -c "! kill -0 $daemon_pid 2>/dev/null"
  local rc=0
  wait "$daemon_pid" 2>/dev/null || rc=$?
  daemon_pid=""
  if [[ -n "$expect" && "$rc" -ne "$expect" ]]; then
    echo "FAIL: $what exited rc=$rc (expected $expect)"
    exit 1
  fi
}

echo "==> synth + feed"
"$adr" synth --out bundle --users 40 --seed 7 >/dev/null
"$adr" feed --wal wal --jobs bundle/jobs.csv --pubs bundle/pubs.csv

echo "==> cold one-shot reference"
"$adr" purge --snapshot bundle/snapshot.csv --users bundle/users.csv \
  --jobs bundle/jobs.csv --pubs bundle/pubs.csv --now "$now" \
  --target "$retain" --dry-run \
  --victims cold_victims.txt >/dev/null

start_daemon() {
  "$adr" serve --wal wal --state state --users bundle/users.csv \
    --snapshot bundle/snapshot.csv --poll-ms 5 \
    --metrics-out state/metrics.json --metrics-interval 10 \
    &>"$1" &
  daemon_pid=$!
}

warm_trigger() {
  "$adr" ctl --state state --cmd trigger --now "$now" --retain "$retain" \
    --victims-out "$1" --timeout-ms 30000 >/dev/null
}

echo "==> warm trigger vs cold"
start_daemon serve1.log
warm_trigger warm1.txt
cmp cold_victims.txt warm1.txt

echo "==> kill -9, restart, trigger again"
kill -9 "$daemon_pid"
wait_pid_bounded 30 "killed daemon to reap"
start_daemon serve2.log
warm_trigger warm2.txt
cmp cold_victims.txt warm2.txt

echo "==> graceful stop (SIGTERM)"
kill -TERM "$daemon_pid"
wait_pid_bounded 60 "graceful SIGTERM stop" 0
ls wal/*.open >/dev/null 2>&1 && { echo "FAIL: WAL not sealed"; exit 1; }
ls state/checkpoints/checkpoint-* >/dev/null

echo "==> recovery from the final checkpoint"
start_daemon serve3.log
"$adr" ctl --state state --cmd status --timeout-ms 30000 | grep -q "ok = true"
"$adr" ctl --state state --cmd stop --timeout-ms 30000 >/dev/null
wait_pid_bounded 60 "ctl stop shutdown" 0
poll_until 30 "final metrics export" grep -q serve.graceful_stops state/metrics.json

echo "==> serve smoke OK"
