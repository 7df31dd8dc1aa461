#!/usr/bin/env bash
# Metrics hygiene: every long-lived counter in src/ lives in the one metrics
# registry (util/metrics.h), which gives each cell a hierarchical name, one
# Snapshot() and one Reset().  A hand-written `struct ...Stats` grows its own
# atomics, snapshot and reset code, and a `Total...Stats` aggregator has to
# know every endpoint by hand (one once left out the storage servers'
# replica portal).  Deployment totals are queries by name over a snapshot.
#
# The allow-list below names per-call result values: what one call or one
# object returns to its caller, not counters that live as long as a
# component.  Add to it only for the same reason, with a comment.
#
# CI runs this on every push; run it locally before sending a change that
# adds a counter.
set -u
cd "$(dirname "$0")/.."

pattern='struct [A-Za-z0-9_]+Stats\b|Total[A-Za-z0-9_]*Stats'

allow=(
  # One checkpoint's creates, bytes and timings (bench/suite reads it).
  '^src/checkpoint/checkpoint\.h:[0-9]+:struct CheckpointStats \{'
  # One collective write's fragment and request counts.
  '^src/libio/collective\.h:[0-9]+:struct CollectiveStats \{'
  # One sieved read's request and byte counts.
  '^src/libio/sieve\.h:[0-9]+:struct SieveStats \{'
  # One prefetching reader's hits and fetches.
  '^src/libio/prefetch\.h:[0-9]+:struct PrefetchStats \{'
  # One event-driven engine run's completions and wakes.
  '^src/driver/driver\.h:[0-9]+:struct EngineStats \{'
)

hits=$(grep -rnE "$pattern" src/ --include='*.h' --include='*.cpp' || true)
for a in "${allow[@]}"; do
  hits=$(printf '%s\n' "$hits" | grep -vE "$a" || true)
done

if [ -n "$hits" ]; then
  echo "metrics-hygiene violation: hand-written Stats struct or aggregator in src/." >&2
  echo "Put long-lived counters in the component's metrics::Registry" >&2
  echo "(util/metrics.h) and total them with a Snapshot query, or add a" >&2
  echo "per-call result type to the commented allow-list here:" >&2
  echo "$hits" >&2
  exit 1
fi
echo "metrics hygiene OK: no Stats structs or Total*Stats aggregators in src/ outside the allow-list"
