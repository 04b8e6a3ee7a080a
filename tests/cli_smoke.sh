#!/bin/sh
# Smoke test of `deco_cli run`: --save-model must not change the experiment
# (same final line with and without it), and an unknown --method or the
# removed --pooling flag must fail. `--set deco.ipc` must size the buffer as
# `--ipc` does, a replay baseline with `--beta 0` must fail cleanly (exit 1
# naming beta, not a signal), and the removed `deco.checkpoint_dtype` key
# must be rejected. `deco_cli inspect` must read the saved checkpoint and a
# learner state written by `deco_cli serve`. Both `deco_cli bench` paths (the
# matrix with its gates, and the fleet sweep) must exit 0 and write their
# JSON.
#
# Usage: sh tests/cli_smoke.sh <deco_cli binary> <scratch dir>
set -eu
cli=$1
dir=$2
mkdir -p "$dir"
base="run --dataset icub1 --segments 2 --segment-size 8 --iterations 1
      --epochs 1 --width 8 --depth 2"
args="$base --ipc 1"

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
# --beta 1 retrains on the buffer, so its size reaches the final line.
by_flag=$("$cli" $args --beta 1 | final_line)
by_set=$("$cli" $base --beta 1 --set deco.ipc=1 | final_line)
if [ -z "$by_flag" ] || [ "$by_flag" != "$by_set" ]; then
  echo "FAIL: --set deco.ipc=1 ran a different buffer than --ipc 1"
  echo "  --ipc 1:            $by_flag"
  echo "  --set deco.ipc=1:   $by_set"
  exit 1
fi
status=0
"$cli" $args --method fifo --beta 0 >/dev/null 2>"$dir/err.txt" || status=$?
if [ "$status" -ne 1 ] || ! grep -q beta "$dir/err.txt"; then
  echo "FAIL: --method fifo --beta 0 exited $status (want 1 naming beta)"
  cat "$dir/err.txt"
  exit 1
fi
if "$cli" $args --set deco.checkpoint_dtype=int8 >/dev/null 2>&1; then
  echo "FAIL: the removed key deco.checkpoint_dtype was accepted"
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
