// bench_pipeline: the end-to-end benchmark of the paper's debugging pipeline.
//
//   bench_pipeline --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR] [--trace-out FILE]
//   bench_pipeline --smoke [--work-dir DIR]
//
// A measured run sets the pool up five times (setup_s is the median), runs
// one warm-up pass over the pool, then runs ops in a closed loop -- one
// client, the next op starting when the previous one ends -- for S seconds
// and at least kMinSamples timed ops. Every op runs its correctness oracles
// and must reproduce the counts its pool item gave in the warm-up pass.
//
// --trace 0 reports the end-to-end metrics; op_ms_p50 and states_per_s are
// printed too but left out of the result (kHostBound). --trace 1 alternates
// untraced and traced ops on the same item, reports the per-layer metrics
// from the traced ones (trace_overhead_pct compares the two halves) and
// writes every span as Chrome trace_event JSON. The last stdout line is one
// JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
//
// --smoke runs each workload on a tiny pool, once untraced and once traced
// per item, and checks error_rate == 0 and that the fingerprint repeats with
// the same seed and changes with another.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace_point.hpp"
#include "parallel/parallel.hpp"
#include "spans.hpp"
#include "workloads.hpp"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

using namespace pipebench;

namespace {

constexpr int kSetupRepeats = 5;
/// p95 needs at least ten samples beyond it.
constexpr size_t kMinSamples = 200;
/// A run stops taking new ops after this long, whatever --seconds says.
constexpr double kHardStopSeconds = 140;

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"op_ms_p95", "ms"},        {"ctl_msgs_per_interval", "msg/interval"},
    {"vtime_stretch", "ratio"}, {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

/// Printed with the end-to-end metrics but left out of the result JSON: the
/// host alternates between a fast and a slow speed over tens of seconds, and
/// these follow the share of the run it spent in each (see README.md).
constexpr Metric kHostBound[] = {
    {"op_ms_p50", "ms"},
    {"states_per_s", "1/s"},
};

constexpr Metric kPerLayer[] = {
    {"runtime.observe_us", "us"},
    {"runtime.replay_us", "us"},
    {"runtime.unguarded_us", "us"},
    {"runtime.events", "count"},
    {"runtime.events_per_s", "1/s"},
    {"runtime.states", "count"},
    {"online.guarded_us", "us"},
    {"online.guard_overhead_us", "us"},
    {"online.ctl_msgs", "count"},
    {"online.gate_requests", "count"},
    {"online.handoffs", "count"},
    {"online.retransmits", "count"},
    {"debug.guard_wrap_us", "us"},
    {"obs.flight_events", "count"},
    {"obs.flight_dropped", "count"},
    {"predicates.detect_us", "us"},
    {"predicates.verify_us", "us"},
    {"predicates.intervals_us", "us"},
    {"predicates.false_intervals", "count"},
    {"predicates.detected_frac", "ratio"},
    {"control.synth_us", "us"},
    {"control.compile_us", "us"},
    {"control.iterations", "count"},
    {"control.pair_checks", "count"},
    {"control.edges", "count"},
    {"control.controllable_frac", "ratio"},
    {"causality.clock_build_us", "us"},
    {"causality.extended_build_us", "us"},
    {"causality.states_per_s", "1/s"},
    {"trace.deposet_text_us", "us"},
    {"trace.text_parse_us", "us"},
    {"trace.predicate_text_us", "us"},
    {"trace.save_us", "us"},
    {"trace.save_cpu_us", "us"},
    {"trace.save_wait_us", "us"},
    {"trace.save_mb_per_s", "MB/s"},
    {"trace.file_bytes", "B"},
    {"trace.open_us", "us"},
    {"unattributed_pct", "%"},
    {"trace_overhead_pct", "%"},
};

bool is_per_layer(const std::string& name) {
  for (const Metric& m : kPerLayer)
    if (name == m.name) return true;
  return false;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(),
                                                suffix) == 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// The deterministic counts of a whole pool (one op per item).
struct PoolSummary {
  ItemCounts sum;
  ItemCounts controlled_sum;  ///< over items that were controlled
  int64_t items = 0;

  void add(const ItemCounts& c) {
    auto accumulate = [](ItemCounts& into, const ItemCounts& x) {
      into.states += x.states;
      into.messages += x.messages;
      into.false_intervals += x.false_intervals;
      into.gate_requests += x.gate_requests;
      into.controlled += x.controlled;
      into.detected += x.detected;
      into.edges += x.edges;
      into.pair_checks += x.pair_checks;
      into.iterations += x.iterations;
      into.ctl_msgs += x.ctl_msgs;
      into.intervals_paid += x.intervals_paid;
      into.vt_base += x.vt_base;
      into.vt_controlled += x.vt_controlled;
    };
    accumulate(sum, c);
    if (c.controlled != 0) accumulate(controlled_sum, c);
    ++items;
  }

  double ctl_msgs_per_interval() const {
    return controlled_sum.intervals_paid == 0
               ? 0
               : static_cast<double>(controlled_sum.ctl_msgs) /
                     static_cast<double>(controlled_sum.intervals_paid);
  }
  double vtime_stretch() const {
    return controlled_sum.vt_base == 0 ? 0
                                       : static_cast<double>(controlled_sum.vt_controlled) /
                                             static_cast<double>(controlled_sum.vt_base);
  }

  /// Input drift shows here first: any change of the generated pool or of
  /// the library's deterministic verdicts changes this line.
  std::string fingerprint() const {
    std::ostringstream os;
    os << "{\"items\":" << items << ",\"states\":" << sum.states
       << ",\"messages\":" << sum.messages << ",\"false_intervals\":" << sum.false_intervals
       << ",\"gate_requests\":" << sum.gate_requests << ",\"control_edges\":" << sum.edges
       << ",\"pair_checks\":" << sum.pair_checks << ",\"iterations\":" << sum.iterations
       << ",\"ctl_msgs\":" << sum.ctl_msgs << ",\"vt_base\":" << sum.vt_base
       << ",\"vt_controlled\":" << sum.vt_controlled << ",\"controllable_frac\":"
       << json_number(items ? static_cast<double>(sum.controlled) / items : 0)
       << ",\"detected_frac\":"
       << json_number(items ? static_cast<double>(sum.detected) / items : 0) << "}";
    return os.str();
  }
};

std::string config_json(const std::string& workload, uint64_t seed, double seconds,
                        bool trace, const PoolSpec& spec) {
  std::ostringstream os;
  os << "{\"build_type\":\"" << PIPEBENCH_BUILD_TYPE
     << "\",\"PREDCTRL_OBS_ENABLED\":" << PREDCTRL_OBS_ENABLED
     << ",\"obs_recording\":" << (predctrl::obs::enabled() ? "true" : "false")
     << ",\"threads\":" << predctrl::parallel::thread_count() << ",\"engine\":\""
     << predctrl::parallel::engine_name(predctrl::parallel::engine())
     << "\",\"trace_filter\":\"" << predctrl::obs::trace_points().filter()
     << "\",\"workload\":\"" << workload << "\",\"seed\":" << seed
     << ",\"seconds\":" << json_number(seconds) << ",\"trace\":" << (trace ? 1 : 0)
     << ",\"processes\":" << spec.processes
     << ",\"events_per_process\":" << spec.events_per_process << ",\"pool\":" << spec.pool
     << ",\"setup_repeats\":" << kSetupRepeats << "}";
  return os.str();
}

/// Runs one op; an exception from the library fails the op, not the run.
OpResult run_op(Workload& workload, size_t item, Tracer* tracer) {
  try {
    return workload.run_op(item, tracer);
  } catch (const std::exception& e) {
    OpResult r;
    r.error = std::string("exception: ") + e.what();
    return r;
  }
}

struct RunCounters {
  int64_t attempted = 0;
  int64_t failed = 0;

  /// Books one op; false if it failed an oracle or drifted from `expected`.
  bool check(const OpResult& r, const ItemCounts* expected, const char* workload) {
    ++attempted;
    std::string error = r.error;
    if (error.empty() && expected != nullptr && !(r.counts == *expected))
      error = "counts differ from the item's first op (nondeterminism)";
    for (const auto& [name, value] : r.layer)
      if (error.empty() && !is_per_layer(name)) error = "unlisted per-layer metric " + name;
    if (error.empty()) return true;
    if (failed++ < 5) std::cerr << workload << ": op failed: " << error << "\n";
    return false;
  }
};

// ------------------------------------------------------------ measured run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".";
  std::string trace_out;
};

int run_measured(const Args& args) {
  auto workload = make_workload(args.workload, args.work_dir);
  if (!workload) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const PoolSpec spec = measured_spec(args.workload);
  std::cout << "config " << config_json(args.workload, args.seed, args.seconds, args.trace,
                                        spec)
            << "\n";

  // Set-up, repeated for a steadier setup_s; the last pool is measured.
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const int64_t t0 = wall_ns();
    workload->setup(args.seed, spec);
    setup_s.push_back((wall_ns() - t0) / 1e9);
  }

  RunCounters counters;
  const size_t pool = workload->pool_size();

  // Warm-up pass: one untimed op per item fixes the item's expected counts.
  std::vector<ItemCounts> expected(pool);
  PoolSummary summary;
  for (size_t i = 0; i < pool; ++i) {
    OpResult r = run_op(*workload, i, nullptr);
    counters.check(r, nullptr, args.workload.c_str());
    expected[i] = r.counts;
    summary.add(r.counts);
  }
  std::cout << "fingerprint " << summary.fingerprint() << "\n";

  // Traced runs report medians only, so one op per item and half suffices.
  const size_t min_samples = args.trace ? pool : kMinSamples;
  Tracer tracer;
  std::vector<double> op_us, traced_op_us;
  std::map<std::string, std::vector<double>> layer;
  double states = 0, timed_us = 0;
  const int64_t start = wall_ns();
  for (int64_t n = 0;; ++n) {
    const double elapsed = (wall_ns() - start) / 1e9;
    if (elapsed >= kHardStopSeconds) break;
    if (elapsed >= args.seconds && op_us.size() >= min_samples &&
        (!args.trace || traced_op_us.size() >= min_samples))
      break;
    // Traced runs interleave untraced and traced ops on the same item, so
    // drift of the host's speed hits both halves alike.
    const bool traced = args.trace && n % 2 == 1;
    const size_t item = static_cast<size_t>(args.trace ? n / 2 : n) % pool;
    tracer.set_op(n);
    OpResult r = run_op(*workload, item, traced ? &tracer : nullptr);
    if (!counters.check(r, &expected[item], args.workload.c_str())) continue;
    if (traced) {
      traced_op_us.push_back(r.op_us);
      for (const auto& [name, value] : r.layer) layer[name].push_back(value);
    } else {
      op_us.push_back(r.op_us);
      states += static_cast<double>(r.counts.states);
      timed_us += r.op_us;
    }
  }

  std::map<std::string, double> metrics;
  if (!args.trace) {
    metrics["op_ms_p50"] = median(op_us) / 1e3;
    metrics["op_ms_p95"] = quantile(op_us, 0.95) / 1e3;
    metrics["states_per_s"] = timed_us > 0 ? states / (timed_us / 1e6) : 0;
    metrics["ctl_msgs_per_interval"] = summary.ctl_msgs_per_interval();
    metrics["vtime_stretch"] = summary.vtime_stretch();
    metrics["peak_rss_mb"] = peak_rss_mb();
    metrics["setup_s"] = median(setup_s);
  } else {
    // Times and rates are medians over traced ops; counts and fractions
    // are means.
    for (const auto& [name, values] : layer)
      metrics[name] = ends_with(name, "_us") || ends_with(name, "_per_s")
                          ? median(values)
                          : mean(values);
    // Op time that no direct child span of the op covers.
    const auto& spans = tracer.spans();
    std::vector<double> child_ns(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    double op_ns = 0, uncovered_ns = 0;
    for (size_t i = 0; i < spans.size(); ++i)
      if (ends_with(spans[i].name, ".op")) {
        const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        op_ns += d;
        uncovered_ns += d - child_ns[i];
      }
    metrics["unattributed_pct"] = op_ns > 0 ? 100.0 * uncovered_ns / op_ns : 0;
    const double untraced_p50 = median(op_us);
    metrics["trace_overhead_pct"] =
        untraced_p50 > 0 ? 100.0 * (median(traced_op_us) - untraced_p50) / untraced_p50 : 0;

    const std::string out = !args.trace_out.empty()
                                ? args.trace_out
                                : (std::filesystem::path(args.work_dir) /
                                   ("trace-" + args.workload + ".json"))
                                      .string();
    std::ofstream os(out);
    tracer.write_chrome_json(os);
    if (!os) {
      std::cerr << "cannot write " << out << "\n";
      return 1;
    }
    std::cout << "trace_events " << out << " (" << spans.size() << " spans)\n";
  }

  const double error_rate =
      counters.attempted ? static_cast<double>(counters.failed) / counters.attempted : 0;
  std::cout << "samples untraced=" << op_us.size() << " traced=" << traced_op_us.size()
            << " pool=" << pool << "\n";
  std::cout << "error_rate " << json_number(error_rate) << " (" << counters.failed << "/"
            << counters.attempted << " ops failed)\n";

  std::ostringstream result;
  result << "{\"correct\":" << (counters.failed == 0 ? "true" : "false")
         << ",\"attempted\":" << counters.attempted << ",\"failed\":" << counters.failed
         << ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : kHostBound)
    if (!args.trace)
      std::cout << "metric " << m.name << " = " << json_number(metrics[m.name]) << " "
                << m.unit << " (not in the result: host-bound)\n";
  auto emit = [&](const Metric& m, bool applies) {
    const double value = applies ? metrics[m.name] : 0.0;
    std::cout << "metric " << m.name << " = "
              << (applies ? json_number(value) : std::string("n/a")) << " " << m.unit
              << "\n";
    result << (first ? "" : ",") << "\"" << m.name << "\":{\"value\":" << json_number(value)
           << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  };
  if (!args.trace) {
    for (const Metric& m : kEndToEnd) emit(m, true);
  } else {
    // A layer the workload does not run reports 0 (printed as n/a).
    for (const Metric& m : kPerLayer) emit(m, metrics.count(m.name) != 0);
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return 0;
}

// ------------------------------------------------------------------ smoke

/// One op per item, untraced and traced; returns the pool fingerprint.
std::string smoke_pass(const std::string& name, uint64_t seed, const std::string& work_dir,
                       RunCounters& counters) {
  auto workload = make_workload(name, work_dir);
  workload->setup(seed, smoke_spec(name));
  PoolSummary summary;
  Tracer tracer;
  for (size_t i = 0; i < workload->pool_size(); ++i) {
    const OpResult plain = run_op(*workload, i, nullptr);
    counters.check(plain, nullptr, name.c_str());
    counters.check(run_op(*workload, i, &tracer), &plain.counts, name.c_str());
    summary.add(plain.counts);
  }
  return summary.fingerprint();
}

int run_smoke(const Args& args) {
  bool ok = true;
  for (const char* name : kWorkloads) {
    RunCounters counters;
    const std::string a = smoke_pass(name, args.seed, args.work_dir, counters);
    const std::string b = smoke_pass(name, args.seed, args.work_dir, counters);
    const std::string c = smoke_pass(name, args.seed + 1, args.work_dir, counters);
    const bool repeats = a == b, changes = a != c;
    std::cout << "smoke " << name << " error_rate=" << counters.failed << "/"
              << counters.attempted << " fingerprint_repeats=" << repeats
              << " fingerprint_changes_with_seed=" << changes << "\n  " << a << "\n";
    ok = ok && counters.failed == 0 && repeats && changes;
  }
  std::cout << (ok ? "smoke ok" : "smoke FAILED") << "\n";
  return ok ? 0 : 1;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--work-dir") args.work_dir = value;
      else if (flag == "--trace-out") args.trace_out = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return args.smoke || !args.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: bench_pipeline --workload debug_cycle|guarded_run|trace_roundtrip"
                 " --seed N --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]\n"
                 "       bench_pipeline --smoke [--seed N] [--work-dir DIR]\n";
    return 2;
  }
  try {
    return args.smoke ? run_smoke(args) : run_measured(args);
  } catch (const std::exception& e) {
    std::cerr << "bench_pipeline: " << e.what() << "\n";
    return 1;
  }
}
