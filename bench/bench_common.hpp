// Shared bench harness: every bench binary uses PREDCTRL_BENCH_MAIN()
// instead of BENCHMARK_MAIN(), which routes through bench_main() to
//
//   * run the registered google-benchmark cases as usual (console output
//     unchanged), and
//   * write a BENCH_<binary>.json results file with a stable schema
//     (schema id "predctrl-bench-v1") that the experiment-trajectory
//     tooling and the `bench-smoke` ctest label consume:
//
//       {"schema":"predctrl-bench-v1","bench":"bench_x","smoke":false,
//        "results":[{"name":"BM_Y/4","run_type":"iteration","iterations":N,
//                    "real_time_ns":...,"cpu_time_ns":...,
//                    "counters":{"msgs_per_entry":...}}]}
//
// Extra flags (stripped before google-benchmark sees the command line):
//   --bench-out=FILE   where to write the JSON (default ./BENCH_<binary>.json)
//   --no-bench-out     skip the JSON file
//   --smoke            tiny-workload mode: forces --benchmark_min_time to a
//                      minimum-effort value so each case runs ~1 iteration;
//                      used by the bench-smoke ctest label
#pragma once

namespace predctrl::benchutil {

/// Drop-in main: parses/strips the harness flags, runs benchmarks, writes
/// the results JSON. Returns a non-zero exit code on I/O or setup failure.
int bench_main(int argc, char** argv);

}  // namespace predctrl::benchutil

#define PREDCTRL_BENCH_MAIN()                                     \
  int main(int argc, char** argv) {                               \
    return ::predctrl::benchutil::bench_main(argc, argv);         \
  }
