# Simulation-as-a-service container: the sweep engine behind the
# /api/v1 HTTP API.  The image bakes in the checked-in result store, so
# every point the paper's figures reference answers instantly from the
# cache tier; submitted specs that miss fan out through the execution
# backend inside the container.
#
#   docker build -t repro-serve .
#   docker run --rm -p 8000:8000 repro-serve
#   curl -s -X POST http://localhost:8000/api/v1/jobs \
#     -H 'Content-Type: application/json' \
#     --data-binary @examples/specs/quick_sweep.json
#
# Mount a volume over /app/benchmarks/results/cache to persist results
# produced inside the container (or set REPRO_RESULT_STORE to point the
# store elsewhere).  deploy/serve.sh wraps build + run.

FROM python:3.11-slim

WORKDIR /app

# Package first (better layer caching than COPY . .), then the data the
# running service reads: the warm store and the example specs.
COPY setup.py README.md ./
COPY src ./src
RUN pip install --no-cache-dir .

COPY examples ./examples
COPY benchmarks/results/cache ./benchmarks/results/cache

EXPOSE 8000

# The service's HTTP server is pure standard library: the package and
# NumPy are all the image installs.
CMD ["python", "-m", "repro", "serve", \
     "--host", "0.0.0.0", "--port", "8000", \
     "--workers", "2", "--jobs", "0"]
