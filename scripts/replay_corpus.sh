#!/usr/bin/env bash
# Replay-corpus smoke (Instance I/O v2): every golden file under data/
# must (a) parse and solve with a solver of its kind and (b) re-emit
# byte-identically through `abt_solve <file> --emit` — the serializers are
# a lossless inverse pair for all four instance kinds, so a diff here
# means instance data was silently dropped. Every file under
# data/malformed/ must be REJECTED with a parse error.
#
# Usage: scripts/replay_corpus.sh [path/to/abt_solve]
set -euo pipefail
cd "$(dirname "$0")/.."

ABT=${1:-build/abt_solve}
if [[ ! -x "$ABT" ]]; then
  echo "abt_solve binary not found at '$ABT'" >&2
  exit 1
fi

# Solver selection is per FILE, not just per model: a file's shape can
# rule out the model's default solver (flexible weighted jobs decline
# `busy/weighted-exact`, which wants interval jobs). Files with an
# override are listed explicitly; everything else falls back to one
# registered solver per `model` directive.
solver_for_file() {
  case "$(basename "$1")" in
    weighted_flexible.txt)   echo "busy/weighted-flexible"; return ;;
    fig6_tracking_tight.txt) echo "busy/pipeline-greedy-tracking"; return ;;
    preemptive_sliver_gap.txt) echo "busy/preemptive"; return ;;
  esac
  case "$2" in
    slotted)      echo "active/minimal-feasible" ;;
    continuous)   echo "busy/first-fit" ;;
    weighted)     echo "busy/weighted-exact" ;;
    multi-window) echo "active/multi-window-exact" ;;
    *)            return 1 ;;
  esac
}

failures=0

for f in data/*.txt; do
  model=$(awk '$1 == "model" { print $2; exit }' "$f")
  solver=$(solver_for_file "$f" "$model") || {
    echo "FAIL $f: unknown model '$model'" >&2
    failures=$((failures + 1))
    continue
  }

  if ! "$ABT" "$f" --solvers "$solver" > /dev/null; then
    echo "FAIL $f: solve with $solver failed" >&2
    failures=$((failures + 1))
  fi

  if ! "$ABT" "$f" --emit | diff -u "$f" - > /dev/null; then
    echo "FAIL $f: parse -> re-emit is not the identity" >&2
    "$ABT" "$f" --emit | diff -u "$f" - >&2 || true
    failures=$((failures + 1))
  fi
done

for f in data/malformed/*.txt; do
  if out=$("$ABT" "$f" 2>&1); then
    echo "FAIL $f: malformed input was accepted" >&2
    failures=$((failures + 1))
  elif ! grep -q "parse error: line" <<< "$out"; then
    echo "FAIL $f: rejected, but not with a line-numbered parse error:" >&2
    echo "$out" >&2
    failures=$((failures + 1))
  fi
done

if [[ $failures -gt 0 ]]; then
  echo "replay corpus: $failures failure(s)" >&2
  exit 1
fi
echo "replay corpus: all golden files round-trip, all malformed files rejected"
