#include "bench_common.hpp"

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace predctrl::benchutil {

namespace {

// Console output as usual, plus a copy of every finished run for the JSON
// export (counters in a Run are already flag-adjusted final values).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    runs_.insert(runs_.end(), reports.begin(), reports.end());
    benchmark::ConsoleReporter::ReportRuns(reports);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

std::string binary_name(const char* argv0) {
  std::string name = argv0;
  const size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name.empty() ? "bench" : name;
}

obs::Json run_to_json(const benchmark::BenchmarkReporter::Run& run) {
  using obs::Json;
  using obs::JsonObject;
  const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
  JsonObject counters;
  for (const auto& [name, counter] : run.counters)
    counters.emplace_back(name, Json(static_cast<double>(counter.value)));
  JsonObject out;
  out.emplace_back("name", Json(run.benchmark_name()));
  out.emplace_back("run_type",
                   Json(run.run_type == benchmark::BenchmarkReporter::Run::RT_Aggregate
                            ? "aggregate"
                            : "iteration"));
  out.emplace_back("iterations", Json(static_cast<int64_t>(run.iterations)));
  out.emplace_back("real_time_ns", Json(run.real_accumulated_time / iters * 1e9));
  out.emplace_back("cpu_time_ns", Json(run.cpu_accumulated_time / iters * 1e9));
  out.emplace_back("error", Json(run.error_occurred));
  out.emplace_back("counters", Json(std::move(counters)));
  return Json(std::move(out));
}

}  // namespace

int bench_main(int argc, char** argv) {
  const std::string bench = binary_name(argc > 0 ? argv[0] : "bench");
  std::string out_path = "BENCH_" + bench + ".json";
  bool write_out = true;
  bool smoke = false;
  bool has_min_time = false;

  std::vector<char*> pass;
  if (argc > 0) pass.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--bench-out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--bench-out="));
    } else if (arg == "--no-bench-out") {
      write_out = false;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      if (arg.rfind("--benchmark_min_time", 0) == 0) has_min_time = true;
      pass.push_back(argv[i]);
    }
  }
  // Smoke mode: one-iteration-ish runs so every case executes its workload
  // once and the counters/JSON plumbing is exercised end to end, fast.
  static char min_time_flag[] = "--benchmark_min_time=0.001";
  if (smoke && !has_min_time) pass.push_back(min_time_flag);

  int pass_argc = static_cast<int>(pass.size());
  benchmark::Initialize(&pass_argc, pass.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, pass.data())) return 1;

  CapturingReporter reporter;
  const size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (ran == 0) {
    std::cerr << bench << ": no benchmarks matched\n";
    return 1;
  }
  if (!write_out) return 0;

  obs::JsonArray results;
  for (const auto& run : reporter.runs()) results.push_back(run_to_json(run));
  obs::JsonObject root;
  root.emplace_back("schema", obs::Json("predctrl-bench-v1"));
  root.emplace_back("bench", obs::Json(bench));
  root.emplace_back("smoke", obs::Json(smoke));
  root.emplace_back("results", obs::Json(std::move(results)));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << bench << ": cannot open " << out_path << " for writing\n";
    return 1;
  }
  out << obs::Json(std::move(root)).dump() << '\n';
  std::cerr << bench << ": results written to " << out_path << "\n";
  return 0;
}

}  // namespace predctrl::benchutil
