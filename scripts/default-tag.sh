#!/bin/sh
# Prints the default perfstat snapshot tag: one past the newest
# committed BENCH_pr<N>.json, so a new snapshot never clobbers a landed
# baseline ("local" when there is none). Run from the repository root;
# scripts/ci.sh and the Makefile both use it.
last="$(ls BENCH_*.json 2>/dev/null |
  sed -n 's/^BENCH_pr\([0-9][0-9]*\)\.json$/\1/p' | sort -n | tail -n 1)"
if [ -n "$last" ]; then
  echo "pr$((last + 1))"
else
  echo "local"
fi
