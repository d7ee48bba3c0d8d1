#!/bin/sh
# Repo verification: build, tier-1 tests, and a short multicore stress smoke
# with invariant checks (conservation, capacity bound, slot lifecycle).
# Uses only packages a standard dev switch already has; exits non-zero on
# any failure. CI runs exactly this script.
set -eu

cd "$(dirname "$0")"

echo "== dune build =="
dune build

echo "== dune runtest (tier-1) =="
dune runtest

echo "== pools_lint (concurrency-discipline static analysis) =="
dune exec bin/pools_lint.exe -- check lib

echo "== pools_lint interleave (DPOR Mc_segment schedule check) =="
# The scenario count is derived from the registry itself (interleave
# --count), not hard-coded here: the run must cover exactly the scenarios
# the binary declares, so a lost scenario is a count mismatch, not a
# silently smaller run.
expected=$(dune exec bin/pools_lint.exe -- interleave --count)
interleave_start=$(date +%s)
interleave_out=$(dune exec bin/pools_lint.exe -- interleave)
interleave_elapsed=$(( $(date +%s) - interleave_start ))
echo "$interleave_out"
scenarios=$(echo "$interleave_out" | sed -n 's/^pools_lint interleave: \([0-9]*\) scenarios.*/\1/p')
if [ -z "$scenarios" ] || [ "$scenarios" -ne "$expected" ]; then
  echo "check.sh: expected $expected interleave scenarios, saw '${scenarios:-none}'" >&2
  exit 1
fi
# Wall-clock budget: the reduction is the only thing keeping the deeper
# scenarios enumerable, so a blown budget means DPOR regressed (or a
# scenario grew past what it buys back).
interleave_budget=120
if [ "$interleave_elapsed" -gt "$interleave_budget" ]; then
  echo "check.sh: interleave took ${interleave_elapsed}s, budget ${interleave_budget}s" >&2
  exit 1
fi
echo "check.sh: interleave took ${interleave_elapsed}s (budget ${interleave_budget}s)"

echo "== mc-stress smoke (all kinds, bounded + unbounded) =="
dune exec bin/pools_bench.exe -- mc-stress --domains 4 --seconds 0.5 --capacity 32

echo "== mc-stress smoke (hinted hand-off under a sparse mix) =="
dune exec bin/pools_bench.exe -- mc-stress --domains 4 --seconds 0.3 \
  -k hinted --workload mix=0.35,initial=8

echo "== mc-throughput smoke (linear, sufficient + sparse) =="
dune exec bin/pools_bench.exe -- mc-throughput --domains 2 --seconds 0.2 \
  --out BENCH_mcpool_smoke.json

echo "== mc-throughput smoke (hinted hand-off, sparse mix) =="
dune exec bin/pools_bench.exe -- mc-throughput --domains 2 --seconds 0.2 \
  --kind hinted --workload sparse --out BENCH_mcpool_hinted_smoke.json

echo "== mc-throughput smoke (topology-aware vs distance-oblivious, two-group) =="
# The committed topo/two_group.topo drives both this real-domain run and
# the simulator's topology experiment — one locality model, two worlds.
dune exec bin/pools_bench.exe -- mc-throughput --domains 4 --seconds 0.2 \
  --kind linear --workload sparse --topology topo/two_group.topo \
  --out BENCH_mctopo_smoke.json

echo "== mc-trace smoke (traced run, event/telemetry reconciliation) =="
dune exec bin/pools_bench.exe -- mc-trace --domains 3 --seconds 0.3 \
  --workload mix=0.4,initial=11 --out TRACE_mcpool_smoke.json

echo "== mc-app smoke (minimax + n-queens on real domains, pool vs stack) =="
# Tiny parameters: the full grid is the committed BENCH_mcapp.json; this
# only proves the scheduler wiring (answers checked against the sequential
# references, task conservation enforced — a mismatch is exit 1).
dune exec bin/pools_bench.exe -- mc-app --domains 1,2 --plies 1 --queens 6 \
  --fork-depth 2 --repeats 1 --out BENCH_mcapp_smoke.json

echo "== examples smoke (they must run, not just build) =="
# task_scheduler exits non-zero if the 1-domain and N-domain runs disagree
# on the task count or checksum; the others assert their answers inline.
dune exec examples/quickstart.exe > /dev/null
dune exec examples/sim_tour.exe > /dev/null
dune exec examples/task_scheduler.exe > /dev/null
dune exec examples/game_search.exe > /dev/null
dune exec examples/backtracking.exe > /dev/null

echo "== timing discipline (no wall-clock timing outside Cpool_util.Clock) =="
# Examples and harnesses must time with the monotonic Clock; gettimeofday
# jumps under NTP and once fed negative deltas into the stats. Only the
# Clock's own documentation may mention it.
if grep -rn "Unix\.gettimeofday" --include="*.ml" --include="*.mli" \
  bin lib examples bench test | grep -v "lib/util/clock.mli"; then
  echo "check.sh: Unix.gettimeofday outside Cpool_util.Clock (use Clock.now_ns)" >&2
  exit 1
fi

echo "== inlined primitives (no hardware functor instance in lib/mcpool) =="
# Mc_segment and Mc_hints are compiled straight against Prim, whose hot
# operations are externals inlined at each call site. A module built as
# [include Make (...)] instead calls every primitive of its argument
# through a closure (without flambda, and under the dev profile's -opaque,
# nothing inlines them): about twenty indirect calls per owner add. The
# functor copies (Mc_segment_core, Mc_hints_core) exist for the
# interleaving checker only.
if grep -n "include .*Make *(" lib/mcpool/*.ml; then
  echo "check.sh: a lib/mcpool module includes a functor instance (compile its source against Prim instead)" >&2
  exit 1
fi

echo "== mc-siege smoke (open-loop breaking-point search, 2 domains) =="
dune exec bin/pools_bench.exe -- mc-siege --domains 2 --kind linear \
  --workload siege,arrival=poisson:500,duration=0.05,arrangement=balanced:1 \
  --max-rate 2000 --bisect 0 --out BENCH_mcsiege_smoke.json

echo "== json-check (benchmark artifacts parse and validate) =="
# The topology artifact's near/far steal split is validated here too
# (near_steals + far_steals must equal steals in every topology cell).
dune exec bin/pools_bench.exe -- json-check BENCH_mcpool_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcpool_hinted_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mctopo_smoke.json
dune exec bin/pools_bench.exe -- json-check TRACE_mcpool_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcsiege_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcapp_smoke.json

echo "== siege-diff gate (fresh smoke vs itself, then the committed baseline) =="
# Self-diff must always be clean — it exercises the pairing and threshold
# logic without rerunning anything.
dune exec bin/pools_bench.exe -- siege-diff BENCH_mcsiege_smoke.json \
  --fresh BENCH_mcsiege_smoke.json
# The committed baseline is rerun cell by cell (its cells carry their own
# config); thresholds live in the artifact and are generous for CI noise.
dune exec bin/pools_bench.exe -- siege-diff BENCH_mcsiege.json
rm -f BENCH_mcpool_smoke.json BENCH_mcpool_hinted_smoke.json \
  BENCH_mctopo_smoke.json TRACE_mcpool_smoke.json BENCH_mcsiege_smoke.json \
  BENCH_mcapp_smoke.json

echo "== usage-error exit codes (pools_bench, PR 7 convention) =="
# mc-throughput must reject nonsense flags with a usage error on stderr
# and exit 2 (0 = clean, 1 = findings, 2 = usage).
for bad in "--domains 0" "--seconds=-1" "--topology nonexistent.topo"; do
  if dune exec bin/pools_bench.exe -- mc-throughput $bad --out /dev/null \
    >/dev/null 2>&1; then
    echo "check.sh: mc-throughput $bad should have failed" >&2
    exit 1
  fi
  status=0
  dune exec bin/pools_bench.exe -- mc-throughput $bad --out /dev/null \
    >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "check.sh: mc-throughput $bad exited $status, expected 2" >&2
    exit 1
  fi
done
# An unknown workload spec must exit 2 and list the valid forms on stderr
# (the one parser serves mc-stress, mc-throughput and mc-siege alike).
for cmd in mc-stress mc-throughput mc-siege; do
  status=0
  err=$(dune exec bin/pools_bench.exe -- "$cmd" --workload bogus \
    2>&1 >/dev/null) || status=$?
  if [ "$status" -ne 2 ]; then
    echo "check.sh: $cmd --workload bogus exited $status, expected 2" >&2
    exit 1
  fi
  case "$err" in
  *"mix="*) ;;
  *)
    echo "check.sh: $cmd --workload bogus error does not list valid forms" >&2
    exit 1
    ;;
  esac
done

echo "check.sh: all green"
