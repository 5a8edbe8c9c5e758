#!/usr/bin/env bash
# Build and run the simulation service container.
#
#   deploy/serve.sh                 # build repro-serve, listen on :8000
#   PORT=9000 deploy/serve.sh       # host port override
#   STORE_DIR=/srv/repro-store deploy/serve.sh
#                                   # persist the store outside the container
#
# The container runs `python -m repro serve` (the standard-library HTTP
# server) with the checked-in warm store baked in; mounting STORE_DIR
# replaces it with (and persists to) a host directory.
set -euo pipefail
cd "$(dirname "$0")/.."

IMAGE=${IMAGE:-repro-serve}
PORT=${PORT:-8000}

docker build -t "$IMAGE" .

RUN_ARGS=(--rm -p "$PORT:8000")
if [[ -n "${STORE_DIR:-}" ]]; then
    mkdir -p "$STORE_DIR"
    RUN_ARGS+=(-v "$STORE_DIR:/app/benchmarks/results/cache")
fi

echo "serving on http://localhost:$PORT/api/v1" >&2
exec docker run "${RUN_ARGS[@]}" "$IMAGE"
