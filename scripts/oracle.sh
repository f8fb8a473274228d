#!/usr/bin/env bash
# oracle.sh — checks that the committed virtual-time results still
# reproduce byte for byte.
#
# The simulation is deterministic, so results/*.tsv is an oracle: a
# refactor that changes no behaviour leaves every file identical. This
# script builds cmd/seuss-experiments, runs the failover, fig4, fig7,
# fig8 and fabric experiments into a temporary directory, and cmp's each
# output against results/. Any difference fails the run; a change that
# moves a number on purpose must regenerate the file and say why.
#
# results/policy.tsv is not checked here: its 10^4-key run takes about
# ten minutes. Regenerate it by hand with
#   go run ./cmd/seuss-experiments -run policy -out results
#
# Usage: scripts/oracle.sh   (about 30 s on a 2-CPU machine)
set -euo pipefail

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/seuss-experiments" ./cmd/seuss-experiments

fail=0
for run in failover fig4 fig7 fig8 fabric; do
  "$TMP/seuss-experiments" -run "$run" -out "$TMP/out" >/dev/null
done
for f in failover.tsv figure4.tsv fig7.tsv fig8.tsv fabric.tsv; do
  if cmp -s "$TMP/out/$f" "results/$f"; then
    echo "ok   results/$f"
  else
    echo "FAIL results/$f differs from a fresh run:" >&2
    diff "results/$f" "$TMP/out/$f" | head -20 >&2 || true
    fail=1
  fi
done
exit "$fail"
