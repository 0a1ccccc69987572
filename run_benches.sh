#!/bin/bash
# Runs every bench binary, teeing combined output. Before the benches,
# the analysis test suite runs under ASan/UBSan (the sanitize preset) so
# the lexer, parser, type flow and call graph get exercised with
# checking on.
set -u
out=/root/repo/bench_output.txt
: > "$out"

echo "===== sanitize: kgpip_analysis_tests =====" | tee -a "$out"
cmake -B build-sanitize -S . -DKGPIP_SANITIZE=ON >/dev/null 2>&1 \
  && cmake --build build-sanitize -j "$(nproc)" \
       --target kgpip_analysis_tests >/dev/null 2>>/tmp/bench_stderr.log \
  && ./build-sanitize/tests/kgpip_analysis_tests 2>>/tmp/bench_stderr.log \
       | tail -3 | tee -a "$out" \
  || echo "sanitize run failed (see /tmp/bench_stderr.log)" | tee -a "$out"
echo "" | tee -a "$out"

echo "===== sanitize: kgpip_gen_tests =====" | tee -a "$out"
cmake --build build-sanitize -j "$(nproc)" \
       --target kgpip_gen_tests >/dev/null 2>>/tmp/bench_stderr.log \
  && ./build-sanitize/tests/kgpip_gen_tests 2>>/tmp/bench_stderr.log \
       | tail -3 | tee -a "$out" \
  || echo "sanitize gen run failed (see /tmp/bench_stderr.log)" | tee -a "$out"
echo "" | tee -a "$out"

# Focused decode benches: the tape-vs-tape-free pairs land in their own
# JSON so the tape-free decode speedup is a first-class artifact. The
# fresh report is then gated against the checked-in baseline — a decode
# latency regression past 15% fails the whole run (and the CI
# bench-regression job runs the same comparison).
gate_failed=0
if [ -x build/bench/bench_micro ]; then
  echo "===== gen decode benches (BENCH_gen.json) =====" | tee -a "$out"
  build/bench/bench_micro \
      --benchmark_filter='BM_GenGenerate' \
      --benchmark_out=/root/repo/BENCH_gen.json \
      --benchmark_out_format=json 2>>/tmp/bench_stderr.log | tee -a "$out"
  echo "" | tee -a "$out"
  echo "===== decode latency regression gate =====" | tee -a "$out"
  python3 bench/compare_bench.py \
      bench/baselines/BENCH_gen.baseline.json \
      /root/repo/BENCH_gen.json --threshold 0.15 2>&1 | tee -a "$out"
  [ "${PIPESTATUS[0]}" -eq 0 ] || gate_failed=1
  echo "" | tee -a "$out"
fi

# Similarity-index scaling benches: the exact flat scan's search and
# build at 1k/10k/100k rows. The checked-in baseline gates their latency
# the same way the decode gate does.
if [ -x build/bench/bench_embed ]; then
  echo "===== embed index benches (BENCH_embed.json) =====" | tee -a "$out"
  build/bench/bench_embed \
      --benchmark_out=/root/repo/BENCH_embed.json \
      --benchmark_out_format=json \
      --metrics-out=/root/repo/BENCH_embed_metrics.json \
      2>>/tmp/bench_stderr.log | tee -a "$out"
  echo "" | tee -a "$out"
  echo "===== embed index regression gate =====" | tee -a "$out"
  python3 bench/compare_bench.py \
      bench/baselines/BENCH_embed.baseline.json \
      /root/repo/BENCH_embed.json --threshold 0.15 2>&1 | tee -a "$out"
  [ "${PIPESTATUS[0]}" -eq 0 ] || gate_failed=1
  echo "" | tee -a "$out"
fi
for b in build/bench/*; do
  [ -x "$b" ] || continue
  echo "===== $b =====" | tee -a "$out"
  # Machine-readable outputs land next to the combined text log: the main
  # comparison emits its aggregate rows + obs metrics as JSON, and the
  # micro-benches emit google-benchmark's JSON report.
  extra_args=()
  case "$(basename "$b")" in
    bench_embed)
      # Already ran (with JSON + gate) in the dedicated section above.
      continue
      ;;
    bench_table2_main_comparison)
      extra_args=(--json-out=/root/repo/BENCH_table2_main_comparison.json
                  --metrics-out=/root/repo/BENCH_metrics.json)
      ;;
    bench_micro)
      # The parallel benches register a threads=1 / threads=<hw> pair per
      # case (see ScopedPool in bench_micro.cc), so one run captures the
      # speedup axis in BENCH_micro.json; --metrics-out snapshots the
      # pool counters (steals, tasks, queue depth) the run produced.
      extra_args=(--benchmark_out=/root/repo/BENCH_micro.json
                  --benchmark_out_format=json
                  --metrics-out=/root/repo/BENCH_micro_metrics.json)
      ;;
  esac
  "$b" "${extra_args[@]}" 2>>/tmp/bench_stderr.log | tee -a "$out"
  echo "" | tee -a "$out"
done
echo "ALL_BENCHES_DONE"
# A tripped decode-latency gate fails the run, but only after every
# bench has produced its artifacts.
exit "$gate_failed"
