#!/usr/bin/env bash
# End-to-end smoke for the serve layer (run by CI's serve-smoke job).
#
# Starts the dependency-free stdlib server against an empty store,
# submits examples/specs/quick_sweep.json over HTTP, polls the job to a
# terminal state, checks the results payload, then runs the same spec
# through `python -m repro sweep` into a second store and byte-compares
# the two results.jsonl files.  The service is a new front door to the
# same engine, so the stores must be identical down to the byte.
# Finally, a CLI sweep and a compaction change the server's store from
# outside, and the running server must see both.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
SPEC=${SPEC:-examples/specs/quick_sweep.json}
PORT=${PORT:-8765}
BASE="http://127.0.0.1:$PORT/api/v1"

WORK=$(mktemp -d)
SERVER=
cleanup() {
    [[ -n "$SERVER" ]] && kill "$SERVER" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

python -m repro serve --host 127.0.0.1 --port "$PORT" --workers 1 \
    --store "$WORK/http_store" --journal "$WORK/journal.jsonl" --quiet &
SERVER=$!

for _ in $(seq 1 50); do
    curl -fsS "$BASE/health" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fsS "$BASE/health"; echo

JOB=$(curl -fsS -X POST "$BASE/jobs" \
    -H 'Content-Type: application/json' \
    --data-binary @"$SPEC" |
    python -c 'import json, sys; print(json.load(sys.stdin)["id"])')
echo "submitted job: $JOB"

STATE=pending
for _ in $(seq 1 600); do
    STATE=$(curl -fsS "$BASE/jobs/$JOB" |
        python -c 'import json, sys; print(json.load(sys.stdin)["state"])')
    case "$STATE" in done|failed|cancelled) break ;; esac
    sleep 0.5
done
echo "job state: $STATE"
test "$STATE" = done

curl -fsS "$BASE/jobs/$JOB/results" >"$WORK/results.json"
python - "$WORK/results.json" <<'PY'
import json, sys

payload = json.load(open(sys.argv[1]))
assert payload["complete"], payload
assert payload["points"], payload
print(f"results: {len(payload['points'])} point(s), complete")
PY
curl -fsS "$BASE/jobs/$JOB/results?format=csv" | head -n 2

# The parity gate: the CLI run of the same spec must produce a
# byte-identical store.
python -m repro sweep --spec "$SPEC" --store "$WORK/cli_store" >/dev/null
cmp "$WORK/http_store/results.jsonl" "$WORK/cli_store/results.jsonl"
echo "serve smoke: HTTP and CLI stores are byte-identical"

# The server keeps one ResultStore for its whole life; it must follow
# what other processes do to the file: an append from a CLI sweep, then
# a compaction, which rewrites the file under a new inode.  The server
# reads past a torn line first, so the compacted file is shorter than
# what it last read; a second CLI append then grows the file past that
# length, and only a server that notices the rewrite serves six records
# (one that kept reading from where it stopped would land mid-record).
STORE_FILE="$WORK/http_store/results.jsonl"
records() {
    curl -fsS "$BASE/health" |
        python -c 'import json, sys; print(json.load(sys.stdin)["store_records"])'
}
cli_point() {
    python -m repro sweep --workloads web_search --designs page --capacities 64 \
        --seeds "$1" --requests 4000 --store "$WORK/http_store" >/dev/null
}
test "$(records)" = 4
cli_point 1
test "$(records)" = 5
printf '{"torn\n' >>"$STORE_FILE"
test "$(records)" = 5
INODE=$(stat -c %i "$STORE_FILE")
python -m repro store compact --store "$WORK/http_store" >/dev/null
test "$(stat -c %i "$STORE_FILE")" != "$INODE"
cli_point 2
test "$(records)" = 6
curl -fsS "$BASE/jobs/$JOB/results" |
    python -c 'import json, sys; assert json.load(sys.stdin)["complete"]'
echo "serve smoke: the server's store follows a CLI append and a compaction"
