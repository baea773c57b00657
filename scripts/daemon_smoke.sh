#!/usr/bin/env bash
# Daemon smoke test (CI and `make daemon-smoke`): the end-to-end
# checkpoint/restore acceptance run from ISSUE 9.
#
#   phase 1: start osmosisd, submit two concurrent jobs, let them
#            finish undisturbed, save their result documents;
#   phase 2: fresh daemon with -ckpt-dir, submit the same two jobs,
#            SIGTERM mid-run (suspend writes one osmosis-ckpt v2 file per
#            live job), restart the daemon (restore continues them), and
#            cmp the finished results byte-for-byte against phase 1.
#
# Needs: go, curl, python3 (JSON field extraction only).
set -euo pipefail

cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

ADDR=${OSMOSISD_SMOKE_ADDR:-127.0.0.1:9177}
BASE="http://$ADDR"

echo "daemon smoke: building osmosisd"
go build -o "$WORK/osmosisd" ./cmd/osmosisd

# Two jobs that run at once on the two workers, sized to run for several
# seconds, so the phase-2 SIGTERM lands mid-run.
spec() { # name seed
  printf '{"name":"%s","fabric":{"hosts":64,"radix":8},"traffic":{"kind":"uniform","load":0.8,"seed":%d},"warmup_slots":1000,"measure_slots":60000}' "$1" "$2"
}

start_daemon() { # extra flags...
  "$WORK/osmosisd" -addr "$ADDR" -workers 2 -chunk-slots 2048 "$@" 2>>"$WORK/daemon.log" &
  DPID=$!
  for _ in $(seq 100); do
    curl -fsS "$BASE/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "daemon smoke: daemon never became ready" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}

stop_daemon() { # signal
  kill "-$1" "$DPID"
  wait "$DPID" 2>/dev/null || true
  DPID=""
}

json_field() { # field  (reads one JSON object on stdin)
  python3 -c 'import json,sys; print(json.load(sys.stdin)[sys.argv[1]])' "$1"
}

submit() { # name seed -> job id
  curl -fsS -X POST --data-binary "$(spec "$1" "$2")" "$BASE/v1/jobs" | json_field id
}

id_of_name() { # name -> job id, from the job listing
  curl -fsS "$BASE/v1/jobs" | python3 -c '
import json, sys
for j in json.load(sys.stdin)["jobs"]:
    if j.get("name") == sys.argv[1]:
        print(j["id"]); break
else:
    sys.exit("no job named " + sys.argv[1])' "$1"
}

wait_done() { # id outfile
  for _ in $(seq 600); do
    state=$(curl -fsS "$BASE/v1/jobs/$1" | json_field state)
    case "$state" in
    done)
      curl -fsS "$BASE/v1/jobs/$1/result" >"$2"
      return 0
      ;;
    failed | canceled | suspended)
      echo "daemon smoke: job $1 reached state $state" >&2
      exit 1
      ;;
    esac
    sleep 0.2
  done
  echo "daemon smoke: job $1 never finished" >&2
  exit 1
}

wait_running() { # id  (block until the engine has advanced past slot 0)
  for _ in $(seq 300); do
    st=$(curl -fsS "$BASE/v1/jobs/$1")
    state=$(printf '%s' "$st" | json_field state)
    slot=$(printf '%s' "$st" | json_field slot)
    if [ "$state" = running ] && [ "$slot" -gt 0 ]; then return 0; fi
    if [ "$state" = done ]; then
      echo "daemon smoke: job $1 finished before it could be interrupted (job too small?)" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "daemon smoke: job $1 never started running" >&2
  exit 1
}

echo "daemon smoke: phase 1 — uninterrupted reference run"
start_daemon
A=$(submit smoke-a 1)
B=$(submit smoke-b 2)
wait_done "$A" "$WORK/ref_a.json"
wait_done "$B" "$WORK/ref_b.json"
curl -fsS "$BASE/metrics" | grep -q 'osmosisd_jobs{state="done"} 2' ||
  { echo "daemon smoke: metrics page did not report 2 done jobs" >&2; exit 1; }
stop_daemon TERM

echo "daemon smoke: phase 2 — checkpoint, kill, restore"
CKPT="$WORK/ckpt"
mkdir -p "$CKPT"
start_daemon -ckpt-dir "$CKPT"
A2=$(submit smoke-a 1)
B2=$(submit smoke-b 2)
wait_running "$A2"
wait_running "$B2"
stop_daemon TERM # suspend: checkpoints both live jobs into $CKPT
n=$(ls "$CKPT"/*.ckpt 2>/dev/null | wc -l)
if [ "$n" -ne 2 ]; then
  echo "daemon smoke: expected 2 checkpoint files, found $n" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
fi
head -1 "$CKPT"/*.ckpt | grep -q 'osmosis-ckpt v2' ||
  { echo "daemon smoke: checkpoint files missing the v1 header" >&2; exit 1; }

start_daemon -ckpt-dir "$CKPT" # restores and continues both jobs
wait_done "$(id_of_name smoke-a)" "$WORK/res_a.json"
wait_done "$(id_of_name smoke-b)" "$WORK/res_b.json"
stop_daemon TERM

cmp "$WORK/ref_a.json" "$WORK/res_a.json"
cmp "$WORK/ref_b.json" "$WORK/res_b.json"
echo "daemon smoke: OK — restored results byte-identical to the uninterrupted run"
