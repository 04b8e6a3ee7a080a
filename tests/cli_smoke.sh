#!/bin/sh
# Smoke test of `deco_cli run`: --save-model must not change the experiment
# (same final line with and without it), and an unknown --method or the
# removed --pooling flag must fail. `deco_cli inspect` must read the saved
# checkpoint and a learner state written by `deco_cli serve`. Both
# `deco_cli bench` paths (the matrix with its gates, and the fleet sweep)
# must exit 0 and write their JSON.
#
# Usage: sh tests/cli_smoke.sh <deco_cli binary> <scratch dir>
set -eu
cli=$1
dir=$2
mkdir -p "$dir"
args="run --dataset icub1 --segments 2 --segment-size 8 --iterations 1
      --epochs 1 --width 8 --depth 2 --ipc 1"

# The per-seed result line, minus its wall-clock condense time.
final_line() { grep '^seed ' | sed 's/, condense [0-9.]*s)$/)/'; }

plain=$("$cli" $args | final_line)
saved=$("$cli" $args --save-model "$dir/model.ckpt" | final_line)
if [ -z "$plain" ] || [ "$plain" != "$saved" ]; then
  echo "FAIL: --save-model changed the run"
  echo "  without: $plain"
  echo "  with:    $saved"
  exit 1
fi
if [ ! -s "$dir/model.ckpt" ]; then
  echo "FAIL: --save-model wrote no checkpoint"
  exit 1
fi
# Prints inspect's report of file $1 and fails unless it holds line $2.
expect_inspect() {
  "$cli" inspect "$1" > "$dir/inspect.txt"
  if ! grep -qF "$2" "$dir/inspect.txt"; then
    echo "FAIL: deco_cli inspect $1 did not print '$2'"
    cat "$dir/inspect.txt"
    exit 1
  fi
}
expect_inspect "$dir/model.ckpt" 'model checkpoint (DECOCKPT)'
rm -rf "$dir/serve"
mkdir -p "$dir/serve"
"$cli" serve --sessions 1 --segments 2 --segment-size 8 \
  --set runtime.checkpoint_every=1 --set runtime.checkpoint_dir="$dir/serve" \
  >/dev/null
expect_inspect "$dir/serve/session0.ckpt" 'learner state (DECOLSAV v2)'
if "$cli" $args --method nope >/dev/null 2>&1; then
  echo "FAIL: --method nope was accepted"
  exit 1
fi
if "$cli" $args --pooling max >/dev/null 2>&1; then
  echo "FAIL: --pooling max was accepted"
  exit 1
fi
rm -f "$dir/m.json" "$dir/s.json"
"$cli" bench --matrix --scenarios mem_pressure_fp32,mem_pressure_int8 \
  --methods deco --segments 2 --out "$dir/m.json" >/dev/null
"$cli" bench --sessions 1,2 --segments 2 --json "$dir/s.json" >/dev/null
for f in m.json s.json; do
  if [ ! -s "$dir/$f" ]; then
    echo "FAIL: deco_cli bench wrote no $f"
    exit 1
  fi
done
echo "ok: $plain"
