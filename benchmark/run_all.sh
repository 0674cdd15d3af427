#!/usr/bin/env bash
# Run every workload once, untraced, and print each one's metrics by name.
# Exits nonzero if any operation of any workload was wrong (error_frac > 0)
# or a workload could not run.
#
#   bash benchmark/run_all.sh [seed] [seconds]
set -u
seed=${1:-1}
seconds=${2:-30}
cd "$(dirname "$0")/.."
status=0
for workload in planted-dense near-boundary cli-files; do
    python3 benchmark/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 || status=1
done
exit $status
