#!/bin/sh
# bench-guard.sh RESULT.json [TRAJECTORY.json ...]   (run from the repository root)
#
# CI's one benchmark guard. RESULT is a fresh
#   go run ./bench -workload all -trace 0 -seed 1 -o RESULT.json
# and the baseline is the all-trace0 / change entry of the newest trajectory
# file (default: BENCH_*.json) whose schema is pamg2d-bench-trajectory/1,
# picked by schema and date, never by name. Only what repeats from host to
# host is compared, per workload: allocs_k within BENCHMARK.json's bound,
# fail_frac not higher, correct true. Exit 1 on a worse row, a missing
# workload or no baseline. Wall times belong to a claim's paired runs
# (bench/README.md), not to CI.
set -eu
fresh=$1
shift
[ $# -gt 0 ] || set -- BENCH_*.json
bound=$(jq '.end_to_end[] | select(.name == "allocs_k") | .bound' BENCHMARK.json)
jq -n -r --argjson bound "$bound" --slurpfile fresh "$fresh" '
  [inputs | select(.schema? == "pamg2d-bench-trajectory/1") | . + {file: input_filename}]
  | (sort_by(.date, .file) | last) as $t
  | ($t.entries // [] | map(select(.label == "all-trace0" and .side == "change")) | last) as $base
  | if $base == null then
      "bench-guard: no pamg2d-bench-trajectory/1 file with an all-trace0/change entry\n" | halt_error(1)
    else . end
  | [ $base.result.workloads[] as $b
      | (first($fresh[0].workloads[] | select(.name == $b.name)) // {}) as $f
      | { name: $b.name, correct: $f.correct,
          allocs: $f.metrics.allocs_k.value, base_allocs: $b.metrics.allocs_k.value,
          fail: $f.metrics.fail_frac.value, base_fail: $b.metrics.fail_frac.value }
      | . + {ok: (.correct == true and (.allocs // infinite) <= .base_allocs * (1 + $bound)
                  and (.fail // infinite) <= .base_fail)} ]
  | "baseline \($t.file), PR \($t.pr | split(" ")[0]); allocs_k bound \($bound)",
    (.[] | "\(.name): allocs_k \(.allocs) against \(.base_allocs) (\(((.allocs // 0) / .base_allocs - 1) * 1000 | round / 10) %), fail_frac \(.fail) against \(.base_fail), correct \(.correct): \(if .ok then "ok" else "WORSE" end)"),
    if all(.[]; .ok) then empty else "bench-guard: worse than the committed baseline", ("" | halt_error(1)) end
' "$@"
