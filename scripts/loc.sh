#!/usr/bin/env bash
# Prints the line count of the module's non-test Go source: every .go
# file except *_test.go, outside the nested perfbench/ module and the
# benchmark's .bench_build/ output. ROADMAP.md tracks this figure.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune \
    -o -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 cat | wc -l
