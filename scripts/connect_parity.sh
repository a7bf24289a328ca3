#!/usr/bin/env bash
# Local-vs-daemon parity: `abt_solve ... --connect <abtd>` must print the
# same report and exit with the same code as the same `abt_solve ...` run
# locally, because both go through engine::execute. Starts its own
# `abtd --threads 1` and compares, with wall-clock fields masked:
#   - every data/*.txt x {table, csv, json};
#   - every generator scenario x seeds {1,2,3}, --json;
#   - --race auto and --race busy/first-fit,busy/greedy-tracking at
#     --threads 1, in all three formats.
#
# Usage: scripts/connect_parity.sh [dir with abt_solve and abtd]
#        (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${1:-build}
ABT="$BUILD/abt_solve"
ABTD="$BUILD/abtd"
for bin in "$ABT" "$ABTD"; do
  if [[ ! -x "$bin" ]]; then
    echo "binary not found at '$bin'" >&2
    exit 1
  fi
done

WORK=$(mktemp -d)
SOCK="$WORK/abtd.sock"
"$ABTD" --socket "$SOCK" --threads 1 --queue-soft 64 --queue-cap 64 \
  > "$WORK/abtd.log" 2>&1 &
DAEMON=$!
trap 'kill -TERM "$DAEMON" 2> /dev/null || true; wait "$DAEMON" 2> /dev/null || true; rm -rf "$WORK"' EXIT
for _ in $(seq 1 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.05
done
[[ -S "$SOCK" ]] || { echo "abtd did not come up" >&2; exit 1; }

# Runs one case locally and through the daemon; the outputs are compared
# in one pass at the end.
cases=0
compare() {
  local code=0
  cases=$((cases + 1))
  printf '%s\n' "$*" > "$WORK/$cases.args"
  "$ABT" "$@" > "$WORK/$cases.local" 2> /dev/null || code=$?
  echo "$code" > "$WORK/$cases.local.code"
  code=0
  "$ABT" "$@" --connect "$SOCK" > "$WORK/$cases.remote" 2> /dev/null \
    || code=$?
  echo "$code" > "$WORK/$cases.remote.code"
}

for f in data/*.txt; do
  compare "$f"
  compare "$f" --csv
  compare "$f" --json
done

scenarios=$("$ABT" --scenarios | awk 'NR > 2 && NF > 1 && $1 != "knobs:" { print $1 }')
for scenario in $scenarios; do
  for seed in 1 2 3; do
    compare --gen "$scenario" --seed "$seed" --json
  done
done

for format in "" --csv --json; do
  for f in data/*.txt; do
    compare "$f" --race auto --threads 1 $format
  done
  compare data/continuous_interval.txt \
    --race busy/first-fit,busy/greedy-tracking --threads 1 $format
  compare --gen interval --seed 5 \
    --race busy/first-fit,busy/greedy-tracking --threads 1 $format
done

# Wall-clock fields vary run to run: JSON "wall_ms" values, the CSV
# wall_ms column, the table ms / wall_ms column and the race header's
# total. Table padding depends on those widths, so cells are re-joined
# with single spaces and rule lines collapsed.
python3 - "$WORK" "$cases" <<'PY'
import difflib, re, sys

def mask(text):
    text = re.sub(r"\"wall_ms\": [^,}\n]+", "\"wall_ms\": _", text)
    out, csv_col, table_col = [], None, None
    for line in text.split("\n"):
        cells = re.split(r"\s{2,}", line.strip())
        if line.startswith("race: "):
            line = re.sub(r", [0-9.]+ ms", ", _ ms", line)
        elif csv_col is None and "wall_ms" in line.split(","):
            csv_col = line.split(",").index("wall_ms")
        elif csv_col is not None and "," in line:
            parts = line.split(",")
            if len(parts) > csv_col:
                parts[csv_col] = "_"
            line = ",".join(parts)
        elif table_col is None and ("ms" in cells or "wall_ms" in cells):
            table_col = cells.index("ms" if "ms" in cells else "wall_ms")
            line = " ".join(cells)
        elif set(line.strip()) == {"-"}:
            line = "---"
        elif table_col is not None and len(cells) > table_col:
            cells[table_col] = "_"
            line = " ".join(cells)
        out.append(line)
    return out

work, cases = sys.argv[1], int(sys.argv[2])

def read(case, suffix):
    with open(f"{work}/{case}.{suffix}", encoding="utf-8") as f:
        return f.read()

failures = 0
for case in range(1, cases + 1):
    args = read(case, "args").strip()
    local_code = read(case, "local.code").strip()
    remote_code = read(case, "remote.code").strip()
    if local_code != remote_code:
        print(f"FAIL abt_solve {args}: exit {local_code} local vs "
              f"{remote_code} remote", file=sys.stderr)
        failures += 1
        continue
    local, remote = mask(read(case, "local")), mask(read(case, "remote"))
    if local != remote:
        print(f"FAIL abt_solve {args}: stdout differs", file=sys.stderr)
        diff = difflib.unified_diff(local, remote, "local", "remote",
                                    lineterm="")
        for line in list(diff)[:20]:
            print(line, file=sys.stderr)
        failures += 1
if failures:
    print(f"connect parity: {failures} of {cases} cases differ",
          file=sys.stderr)
    sys.exit(1)
print(f"connect parity: {cases} cases identical (wall-clock fields masked)")
PY
