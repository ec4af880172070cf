#!/usr/bin/env bash
# CI gate: vet, gofmt, build, perfbench vet, race-enabled tests, the
# sogre-verify self-check, fuzz smoke, coverage floor.
#
# Usage: scripts/ci.sh [fuzztime]
#   fuzztime   per-target fuzzing budget (default 5s; 0 skips fuzzing)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${1:-5s}"
COVER_FLOOR=86   # percent, for internal/check

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "FAIL: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== kernel-package purity lint (no package-level vars) =="
# The scheduler's determinism contract forbids mutable package-level
# state in kernel code paths: a package-level var is either shared
# mutable state (a data race under the parallel engine) or avoidable
# global configuration. Test files are exempt.
lint_fail=0
for pkg in spmm csr bsr sptc venom sched dense bitmat obs resil plan predictor/cycle dyn serve shard wal; do
    hits=$(grep -Hn '^var ' "internal/$pkg"/*.go 2>/dev/null | grep -v '_test\.go:' || true)
    if [ -n "$hits" ]; then
        echo "FAIL: package-level var in kernel package internal/$pkg:" >&2
        echo "$hits" >&2
        lint_fail=1
    fi
done
[ "$lint_fail" -eq 0 ] || exit 1

echo "== go build =="
go build ./...

echo "== go vet (perfbench module) =="
# The benchmark harness is a nested module, so the root ./... patterns
# skip it; vet type-checks it against the current internal packages.
go -C perfbench vet ./...

echo "== go test -race (default GOMAXPROCS) =="
go test -race ./...

echo "== go test -race (GOMAXPROCS=2 matrix entry) =="
# A second scheduling regime for the parallel engine: two schedulable
# CPUs force worker multiplexing and stealing interleavings a 1-CPU
# (or many-CPU) run never exercises.
GOMAXPROCS=2 go test -race ./internal/sched/ ./internal/spmm/ \
    ./internal/check/ ./internal/gnn/ ./internal/core/ \
    ./internal/distributed/ ./internal/obs/ ./internal/resil/ \
    ./internal/plan/ ./internal/dyn/ ./internal/serve/ ./internal/wal/

echo "== sogre-verify self-check (3 trials) =="
# The cross-cutting oracles of internal/check over seeded random
# inputs, driven end to end through the CLI; exits nonzero on any
# failed check.
go run ./cmd/sogre-verify -trials 3

if [ "$FUZZTIME" != "0" ]; then
    echo "== fuzz smoke ($FUZZTIME per target) =="
    for target in FuzzCompressDecompress FuzzReorderLossless \
                  FuzzSpMMEquivalence FuzzParallelSerialEquivalence \
                  FuzzMatrixMarketRoundTrip FuzzReorderLargeParallelSerial \
                  FuzzFaultPlanParse FuzzCalibrationParse \
                  FuzzMutationStreamParse FuzzIncrementalVsScratch \
                  FuzzServeRequestParse FuzzShardFormat FuzzWALReplay \
                  FuzzEpochPatch FuzzScoreEquivalence; do
        echo "-- $target"
        go test ./internal/check/ -run "^$target\$" -fuzz "^$target\$" \
            -fuzztime "$FUZZTIME"
    done
fi

echo "== obs snapshot determinism (two runs, byte-identical canonical JSON) =="
# The observability contract (DESIGN.md §9): with -metrics-canonical,
# every field left in the snapshot is a pure function of the workload,
# so two identical invocations must emit byte-identical files.
obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT
go run ./cmd/sogre-reorder -gen er -n 512 -seed 7 -large -maxn 128 \
    -workers 4 -metrics "$obs_tmp/a.json" -metrics-canonical > /dev/null
go run ./cmd/sogre-reorder -gen er -n 512 -seed 7 -large -maxn 128 \
    -workers 4 -metrics "$obs_tmp/b.json" -metrics-canonical > /dev/null
if ! cmp -s "$obs_tmp/a.json" "$obs_tmp/b.json"; then
    echo "FAIL: canonical obs snapshots differ between identical runs:" >&2
    diff "$obs_tmp/a.json" "$obs_tmp/b.json" >&2 || true
    exit 1
fi
echo "canonical obs snapshots identical"

echo "== fault-injection smoke (faulted sampled training, deterministic recovery) =="
# The recovery contract (DESIGN.md §10): a fault plan is a deterministic
# schedule, recovery recomputes pure functions, and the deterministic
# obs counters (resil/injected, resil/retries, gnn ledger mirrors) are a
# pure function of plan+workload — so two identical faulted runs must
# emit byte-identical canonical snapshots. The plan avoids speculation
# and retry exhaustion, which are the documented nondeterministic modes.
fault_plan='seed=11; crash@sample:2; transient@sample:4; corrupt@sample/xfer:3; crash@eval:1'
go run ./cmd/sogre-gnn -sampled -epochs 2 -batches 2 -seed 7 \
    -faults "$fault_plan" -metrics "$obs_tmp/f1.json" -metrics-canonical > /dev/null
go run ./cmd/sogre-gnn -sampled -epochs 2 -batches 2 -seed 7 \
    -faults "$fault_plan" -metrics "$obs_tmp/f2.json" -metrics-canonical > /dev/null
if ! cmp -s "$obs_tmp/f1.json" "$obs_tmp/f2.json"; then
    echo "FAIL: canonical obs snapshots differ between identical faulted runs:" >&2
    diff "$obs_tmp/f1.json" "$obs_tmp/f2.json" >&2 || true
    exit 1
fi
if ! grep -q 'resil/injected/crash' "$obs_tmp/f1.json"; then
    echo "FAIL: fault smoke ran but injected no faults (plan not armed?)" >&2
    exit 1
fi
echo "faulted runs recovered deterministically"

echo "== dynamic mutation smoke (same seeded stream twice, byte-identical outputs) =="
# The incremental-reordering contract (DESIGN.md §12): repairs and
# rebuilds are pure functions of (reordering, stream, budget), so
# replaying the identical stream must reproduce identical canonical obs
# snapshots and identical canonical BENCH_dynamic rows.
dyn_stream='add@0-100; add@1-200; del@0-100; add@2-300'
go run ./cmd/sogre-reorder -gen er -n 512 -seed 7 -mutate "$dyn_stream" \
    -metrics "$obs_tmp/d1.json" -metrics-canonical > /dev/null
go run ./cmd/sogre-reorder -gen er -n 512 -seed 7 -mutate "$dyn_stream" \
    -metrics "$obs_tmp/d2.json" -metrics-canonical > /dev/null
if ! cmp -s "$obs_tmp/d1.json" "$obs_tmp/d2.json"; then
    echo "FAIL: canonical obs snapshots differ between identical mutation runs:" >&2
    diff "$obs_tmp/d1.json" "$obs_tmp/d2.json" >&2 || true
    exit 1
fi
if ! grep -q 'dyn/mutations' "$obs_tmp/d1.json"; then
    echo "FAIL: mutation smoke ran but recorded no dyn counters" >&2
    exit 1
fi
go run ./cmd/sogre-bench -suite dynamic -seed 11 -repeats 1 -canonical \
    -out "$obs_tmp/bd1.json" > /dev/null
go run ./cmd/sogre-bench -suite dynamic -seed 11 -repeats 1 -canonical \
    -out "$obs_tmp/bd2.json" > /dev/null
if ! cmp -s "$obs_tmp/bd1.json" "$obs_tmp/bd2.json"; then
    echo "FAIL: canonical dynamic suites differ between identical runs:" >&2
    diff "$obs_tmp/bd1.json" "$obs_tmp/bd2.json" >&2 || true
    exit 1
fi
echo "dynamic mutation runs replay identically"

echo "== planner replay smoke (pinned calibration, byte-identical canonical suites) =="
# The planner contract (DESIGN.md §11): decisions are pure functions of
# (profile, calibration table). The first run measures the table and
# writes it; the second loads it; both canonical suites — which keep
# every planner choice and predicted ns — must be byte-identical.
go run ./cmd/sogre-bench -suite spmm -seed 11 -widths 16 -repeats 1 \
    -calib "$obs_tmp/calib.txt" -canonical -out "$obs_tmp/p1.json" > /dev/null
go run ./cmd/sogre-bench -suite spmm -seed 11 -widths 16 -repeats 1 \
    -calib "$obs_tmp/calib.txt" -canonical -out "$obs_tmp/p2.json" > /dev/null
if ! cmp -s "$obs_tmp/p1.json" "$obs_tmp/p2.json"; then
    echo "FAIL: canonical planned suites differ under a pinned calibration:" >&2
    diff "$obs_tmp/p1.json" "$obs_tmp/p2.json" >&2 || true
    exit 1
fi
if ! grep -q '"kernel": "planner"' "$obs_tmp/p1.json"; then
    echo "FAIL: planned suite has no planner rows" >&2
    exit 1
fi
echo "planned suites replay identically from the pinned table"

echo "== serve smoke (boot server, replay seeded load twice, byte-identical artifacts) =="
# The serving contract (DESIGN.md §13): responses are pure functions of
# (graph, config, request), the deterministic serve counters are pure
# functions of the accepted request multiset, and the loadgen script is
# a pure function of its seed — so booting two fresh servers and
# replaying the same seeded load must produce byte-identical canonical
# loadgen reports (order-independent response checksum included) and
# byte-identical canonical obs snapshots. Also: two canonical serve
# bench runs must agree byte-for-byte.
go build -o "$obs_tmp/sogre-serve" ./cmd/sogre-serve
go build -o "$obs_tmp/sogre-loadgen" ./cmd/sogre-loadgen
for i in 1 2; do
    rm -f "$obs_tmp/addr"
    "$obs_tmp/sogre-serve" -gen er -n 1024 -shard-rows 128 -queue-limit 0 \
        -ready-file "$obs_tmp/addr" -metrics "$obs_tmp/sm$i.json" \
        -metrics-canonical 2> /dev/null &
    serve_pid=$!
    for _ in $(seq 1 100); do [ -s "$obs_tmp/addr" ] && break; sleep 0.1; done
    [ -s "$obs_tmp/addr" ] || { echo "FAIL: sogre-serve never became ready" >&2; exit 1; }
    "$obs_tmp/sogre-loadgen" -addr "$(cat "$obs_tmp/addr")" -n 1024 \
        -clients 4 -requests 15 -canonical -out "$obs_tmp/lg$i.json" 2> /dev/null
    kill -TERM "$serve_pid"
    wait "$serve_pid" 2>/dev/null || true
done
if ! cmp -s "$obs_tmp/lg1.json" "$obs_tmp/lg2.json"; then
    echo "FAIL: canonical loadgen reports differ between identical replays:" >&2
    diff "$obs_tmp/lg1.json" "$obs_tmp/lg2.json" >&2 || true
    exit 1
fi
if ! cmp -s "$obs_tmp/sm1.json" "$obs_tmp/sm2.json"; then
    echo "FAIL: canonical serve obs snapshots differ between identical replays:" >&2
    diff "$obs_tmp/sm1.json" "$obs_tmp/sm2.json" >&2 || true
    exit 1
fi
if ! grep -q 'serve/requests' "$obs_tmp/sm1.json"; then
    echo "FAIL: serve smoke ran but recorded no serve counters" >&2
    exit 1
fi
go run ./cmd/sogre-bench -suite serve -repeats 1 -canonical \
    -out "$obs_tmp/bs1.json" > /dev/null
go run ./cmd/sogre-bench -suite serve -repeats 1 -canonical \
    -out "$obs_tmp/bs2.json" > /dev/null
if ! cmp -s "$obs_tmp/bs1.json" "$obs_tmp/bs2.json"; then
    echo "FAIL: canonical serve suites differ between identical runs:" >&2
    diff "$obs_tmp/bs1.json" "$obs_tmp/bs2.json" >&2 || true
    exit 1
fi
echo "serve replays byte-identical (reports, snapshots, bench rows)"

echo "== durable mutation crash drill (kill -9 mid-stream, WAL recovery, twin digest) =="
# The durability contract (DESIGN.md §15): every acked mutation batch
# is fsynced into the WAL before its ack, and boot-time replay
# reconstructs the serving state bit-identically. SIGKILL the server
# mid-mutation-stream, restart it on the same WAL, read the recovered
# epoch E from the boot replay line, then drive an unfaulted twin with
# exactly the first E batches of the same seeded stream (the mixed
# script's prefix property) — the recovered and twin servers' canonical
# read-only loadgen reports must be byte-identical.
drill_args=(-gen er -n 1024 -shard-rows 128 -queue-limit 0)
drill_boot() { # $1=extra-flag... ; boots a server, sets drill_pid
    rm -f "$obs_tmp/addr"
    "$obs_tmp/sogre-serve" "${drill_args[@]}" "$@" \
        -ready-file "$obs_tmp/addr" &
    drill_pid=$!
    for _ in $(seq 1 100); do [ -s "$obs_tmp/addr" ] && break; sleep 0.1; done
    # stdout, not stderr: the caller may have redirected this call's
    # stderr into the replay-line scratch file.
    [ -s "$obs_tmp/addr" ] || { echo "FAIL: drill server never became ready"; exit 1; }
}
drill_boot -wal "$obs_tmp/drill.wal" 2> /dev/null
"$obs_tmp/sogre-loadgen" -addr "$(cat "$obs_tmp/addr")" -n 1024 \
    -clients 1 -requests 4000 -seed 31 -write-ratio 1.0 \
    -out /dev/null 2> /dev/null &
drill_load=$!
# Let committed batches accumulate, then die mid-stream.
for _ in $(seq 1 100); do
    [ -s "$obs_tmp/drill.wal" ] && [ "$(wc -c < "$obs_tmp/drill.wal")" -ge 200 ] && break
    sleep 0.1
done
kill -9 "$drill_pid"
wait "$drill_load" 2> /dev/null || true  # dies with the connection
wait "$drill_pid" 2> /dev/null || true
drill_boot -wal "$obs_tmp/drill.wal" 2> "$obs_tmp/drill-replay.err"
E=$(grep -o 'epoch [0-9]*' "$obs_tmp/drill-replay.err" | awk '{print $2}')
[ -n "${E:-}" ] && [ "$E" -ge 1 ] || {
    echo "FAIL: drill recovered no batches (epoch ${E:-unset}):" >&2
    cat "$obs_tmp/drill-replay.err" >&2
    exit 1
}
"$obs_tmp/sogre-loadgen" -addr "$(cat "$obs_tmp/addr")" -n 1024 \
    -clients 4 -requests 15 -canonical -out "$obs_tmp/drill-rec.json" 2> /dev/null
kill -TERM "$drill_pid"; wait "$drill_pid" 2> /dev/null || true
# Unfaulted twin: fresh server, same config, no WAL, the first E
# batches of the same seeded mutation stream, same read probe.
drill_boot -mutable 2> /dev/null
"$obs_tmp/sogre-loadgen" -addr "$(cat "$obs_tmp/addr")" -n 1024 \
    -clients 1 -requests "$E" -seed 31 -write-ratio 1.0 \
    -out /dev/null 2> /dev/null
"$obs_tmp/sogre-loadgen" -addr "$(cat "$obs_tmp/addr")" -n 1024 \
    -clients 4 -requests 15 -canonical -out "$obs_tmp/drill-twin.json" 2> /dev/null
kill -TERM "$drill_pid"; wait "$drill_pid" 2> /dev/null || true
if ! cmp -s "$obs_tmp/drill-rec.json" "$obs_tmp/drill-twin.json"; then
    echo "FAIL: recovered query digest differs from the unfaulted twin (epoch $E):" >&2
    diff "$obs_tmp/drill-rec.json" "$obs_tmp/drill-twin.json" >&2 || true
    exit 1
fi
echo "kill -9 WAL recovery digest byte-identical to the unfaulted twin (epoch $E)"

echo "== multi-process distribution smoke (kill -9 a worker, bit-identical recovery) =="
# The distribution contract (DESIGN.md §14): partition placement and
# fault recovery are invisible in the result bits, because the
# per-partition pipeline is pure. Run the coordinator against two real
# worker processes twice — once clean, once with a worker armed to
# SIGKILL itself mid-job — and require (a) both runs bit-identical to
# the in-process PartitionedSpMM (-check) and (b) the two result
# digests byte-identical to each other.
go build -o "$obs_tmp/sogre-worker" ./cmd/sogre-worker
go build -o "$obs_tmp/sogre-dist" ./cmd/sogre-dist
dist_worker() { # $1=ready-file $2=crash-after-jobs; echoes pid
    rm -f "$obs_tmp/$1"
    # stdout must be redirected too: dist_worker runs inside command
    # substitution, and a background child holding the substitution's
    # stdout pipe open would block the caller forever.
    "$obs_tmp/sogre-worker" -ready-file "$obs_tmp/$1" -workers 1 \
        -crash-after-jobs "$2" > /dev/null 2>&1 &
    echo $!
}
dist_wait_ready() { # $1=ready-file
    for _ in $(seq 1 100); do [ -s "$obs_tmp/$1" ] && return 0; sleep 0.1; done
    echo "FAIL: sogre-worker never wrote $1" >&2; exit 1
}
w1=$(dist_worker dw1.addr 0); w2=$(dist_worker dw2.addr 0)
dist_wait_ready dw1.addr; dist_wait_ready dw2.addr
"$obs_tmp/sogre-dist" -workers "$obs_tmp/dw1.addr,$obs_tmp/dw2.addr" \
    -gen banded -n 1500 -maxn 64 -width 8 -retries 4 -check \
    -digest "$obs_tmp/dist-clean.digest" > /dev/null
kill "$w1" "$w2" 2> /dev/null || true
# Faulted run: a fresh pair, the first armed to SIGKILL itself at the
# start of its first Compute job — dead mid-job, after accepting work.
w3=$(dist_worker dw3.addr 1); w4=$(dist_worker dw4.addr 0)
dist_wait_ready dw3.addr; dist_wait_ready dw4.addr
"$obs_tmp/sogre-dist" -workers "$obs_tmp/dw3.addr,$obs_tmp/dw4.addr" \
    -gen banded -n 1500 -maxn 64 -width 8 -retries 4 -check \
    -digest "$obs_tmp/dist-faulted.digest" > /dev/null
kill "$w3" "$w4" 2> /dev/null || true
wait "$w1" "$w2" "$w3" "$w4" 2> /dev/null || true
if ! cmp -s "$obs_tmp/dist-clean.digest" "$obs_tmp/dist-faulted.digest"; then
    echo "FAIL: recovered distributed digest differs from the unfaulted run:" >&2
    diff "$obs_tmp/dist-clean.digest" "$obs_tmp/dist-faulted.digest" >&2 || true
    exit 1
fi
echo "kill -9 recovery digest byte-identical to the unfaulted run"

echo "== coverage floor (internal/check >= ${COVER_FLOOR}%) =="
cov=$(go test -cover ./internal/check/ | awk '{for(i=1;i<=NF;i++) if ($i ~ /^[0-9.]+%/) {sub("%","",$i); print $i}}')
echo "internal/check coverage: ${cov}%"
awk -v c="$cov" -v f="$COVER_FLOOR" 'BEGIN { exit !(c >= f) }' || {
    echo "FAIL: internal/check coverage ${cov}% below floor ${COVER_FLOOR}%" >&2
    exit 1
}

echo "CI: all gates passed"
