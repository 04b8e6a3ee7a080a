#!/bin/sh
# Smoke test of `deco_cli run`: --save-model must not change the experiment
# (same final line with and without it), and an unknown --method or the
# removed --pooling flag must fail.
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
if "$cli" $args --method nope >/dev/null 2>&1; then
  echo "FAIL: --method nope was accepted"
  exit 1
fi
if "$cli" $args --pooling max >/dev/null 2>&1; then
  echo "FAIL: --pooling max was accepted"
  exit 1
fi
echo "ok: $plain"
