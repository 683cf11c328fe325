// Zero-parse trace tier benchmarks (trace/trace_file.hpp): what does it
// cost to save an analyzed deposet, and -- the tentpole number -- how much
// faster is reopening the file than rebuilding the deposet from its
// messages?
//
//   BM_SaveTrace      serialize a built deposet (+ intervals + predicate)
//   BM_BuildFromScratch  the baseline a reopen replaces: DeposetBuilder
//                     validation + clock computation over the same trace
//   BM_OpenTrace      mmap + validate + adopt; open_us is the O(ms) claim,
//                     open_speedup_vs_build the >= 100x acceptance number
//                     on xl, resident_bytes_after_open the demand-paging
//                     proof (an open touches meta bytes, not payloads)
//   BM_OpenAndDetect  open + weak-conjunctive detection on the mapped
//                     deposet; resident_fraction shows how little of the
//                     file one analysis faults in
//
// Result parity (mapped slab byte-identical to built, identical detection
// verdict) is asserted once per size OUTSIDE the timed regions.
#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "predicates/detection.hpp"
#include "predicates/intervals.hpp"
#include "trace/random_trace.hpp"
#include "trace/trace_file.hpp"
#include "util/rng.hpp"

using namespace predctrl;

namespace {

// ------------------------------------------------------------------ inputs

struct SizeSpec {
  const char* name;
  int32_t processes;
  int32_t events_per_process;
};

// Same ladder as bench_memory_layout: xl is a ~1.05M-state trace whose
// clock slab (~67 MB) dwarfs any cache, which is where reopen-vs-rebuild
// separates by orders of magnitude.
constexpr SizeSpec kSizes[] = {
    {"small", 4, 400},
    {"medium", 8, 1500},
    {"large", 16, 5000},
    {"xl", 16, 65536},
};
constexpr int kNumSizes = static_cast<int>(std::size(kSizes));

struct Instance {
  Deposet deposet;
  PredicateTable predicate;
  FalseIntervalSets intervals;
  std::string path;  // the saved predctrl-trace-v1 file for this size
};

const Instance& instance(int64_t size_idx) {
  static Instance cache[kNumSizes];
  static bool built[kNumSizes] = {};
  Instance& inst = cache[size_idx];
  if (!built[size_idx]) {
    const SizeSpec& spec = kSizes[size_idx];
    Rng rng(4200 + static_cast<uint64_t>(size_idx));
    RandomTraceOptions topt;
    topt.num_processes = spec.processes;
    topt.events_per_process = spec.events_per_process;
    topt.send_probability = 0.2;
    inst.deposet = random_deposet(topt, rng);
    RandomPredicateOptions popt;
    popt.false_probability = 0.5;
    popt.flip_probability = 0.2;
    inst.predicate = random_predicate_table(inst.deposet, popt, rng);
    inst.intervals = extract_false_intervals(inst.predicate);
    inst.path = std::string("/tmp/predctrl_bench_trace_") + spec.name + ".pctrace";
    TraceSaveOptions save;
    save.intervals = &inst.intervals;
    save.predicate = &inst.predicate;
    save_trace(inst.path, inst.deposet, save);

    // Parity oracle, outside any timed region: the mapped deposet must be
    // byte-identical and analysis-identical to the built one.
    const MappedTrace t = MappedTrace::open(inst.path);
    const auto a = inst.deposet.clocks().slab();
    const auto b = t.deposet().clocks().slab();
    PREDCTRL_REQUIRE(a.size() == b.size() &&
                         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0,
                     "mapped clock slab differs from the built slab");
    const auto det_a = detect_weak_conjunctive(inst.deposet, inst.predicate);
    const auto det_b = detect_weak_conjunctive(t.deposet(), inst.predicate);
    PREDCTRL_REQUIRE(det_a.detected == det_b.detected &&
                         (!det_a.detected ||
                          det_a.first_cut.indices() == det_b.first_cut.indices()),
                     "mapped detection verdict differs from the built one");
    built[size_idx] = true;
  }
  return inst;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Evicts `path` from the page cache (fdatasync so DONTNEED can drop the
// freshly written pages). Without this, mincore right after save reports
// the whole file resident -- page-cache warmth, not pages this process
// faulted in -- and the demand-paging counters would measure nothing.
// Best-effort: the kernel may keep pages, which only biases the resident
// counters upward (never fakes a win).
void drop_page_cache(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fdatasync(fd);
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  ::close(fd);
}

// The baseline a zero-parse open replaces: re-validate the messages and
// recompute every vector clock.
Deposet build_from_scratch(const Instance& inst) {
  DeposetBuilder b(inst.deposet.num_processes());
  for (ProcessId p = 0; p < inst.deposet.num_processes(); ++p)
    b.set_length(p, inst.deposet.length(p));
  for (const MessageEdge& m : inst.deposet.messages()) b.add_message(m.from, m.to);
  return b.build();
}

// ------------------------------------------------------------------ cases

void BM_SaveTrace(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));
  const std::string path = inst.path + ".tmp";
  double save_seconds = 1e100;
  TraceSaveOptions save;
  save.intervals = &inst.intervals;
  save.predicate = &inst.predicate;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    save_trace(path, inst.deposet, save);
    save_seconds = std::min(save_seconds, seconds_since(t0));
  }
  const size_t file_bytes = MappedTrace::open(path).mapped_bytes();
  std::remove(path.c_str());
  state.counters["trace_file_bytes"] = static_cast<double>(file_bytes);
  state.counters["save_mb_per_sec"] =
      static_cast<double>(file_bytes) / (1024.0 * 1024.0) / save_seconds;
}

void BM_BuildFromScratch(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));
  double build_seconds = 1e100;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    Deposet d = build_from_scratch(inst);
    build_seconds = std::min(build_seconds, seconds_since(t0));
    benchmark::DoNotOptimize(d);
  }
  state.counters["build_us"] = build_seconds * 1e6;
  state.counters["build_states_per_sec"] =
      static_cast<double>(inst.deposet.total_states()) / build_seconds;
}

void BM_OpenTrace(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));

  // The denominator of the tentpole ratio, measured fresh here so the
  // counter is self-contained (one best-of-3 rebuild per size).
  double build_seconds = 1e100;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    Deposet d = build_from_scratch(inst);
    build_seconds = std::min(build_seconds, seconds_since(t0));
    benchmark::DoNotOptimize(d);
  }

  double open_seconds = 1e100;
  size_t resident_after_open = 0;
  size_t mapped_bytes = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const MappedTrace t = MappedTrace::open(inst.path);
    open_seconds = std::min(open_seconds, seconds_since(t0));
    benchmark::DoNotOptimize(t.deposet());
    resident_after_open = t.resident_bytes();
    mapped_bytes = t.mapped_bytes();
  }
  state.counters["open_us"] = open_seconds * 1e6;
  state.counters["mapped_bytes"] = static_cast<double>(mapped_bytes);
  state.counters["resident_bytes_after_open"] = static_cast<double>(resident_after_open);
  state.counters["open_speedup_vs_build"] = build_seconds / open_seconds;
}

void BM_OpenTraceCold(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));
  double open_seconds = 1e100;
  size_t resident_after_open = 0;
  size_t mapped_bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    drop_page_cache(inst.path);
    state.ResumeTiming();
    const auto t0 = std::chrono::steady_clock::now();
    const MappedTrace t = MappedTrace::open(inst.path);
    open_seconds = std::min(open_seconds, seconds_since(t0));
    benchmark::DoNotOptimize(t.deposet());
    // With the cache dropped, residency counts the pages this open faulted
    // in (header, section table, lengths, footer) plus whatever readahead
    // the kernel speculated -- a small fraction of a large trace, where
    // the warm-cache number is pinned at ~100%.
    resident_after_open = std::min(resident_after_open ? resident_after_open : SIZE_MAX,
                                   t.resident_bytes());
    mapped_bytes = t.mapped_bytes();
  }
  state.counters["cold_open_us"] = open_seconds * 1e6;
  state.counters["cold_resident_bytes_after_open"] =
      static_cast<double>(resident_after_open);
  state.counters["cold_resident_fraction"] =
      mapped_bytes == 0 ? 0.0
                        : static_cast<double>(resident_after_open) /
                              static_cast<double>(mapped_bytes);
}

void BM_OpenAndDetect(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));
  double total_seconds = 1e100;
  size_t resident = 0;
  size_t mapped_bytes = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const MappedTrace t = MappedTrace::open(inst.path);
    const auto det = detect_weak_conjunctive(t.deposet(), inst.predicate);
    total_seconds = std::min(total_seconds, seconds_since(t0));
    benchmark::DoNotOptimize(det);
    resident = t.resident_bytes();
    mapped_bytes = t.mapped_bytes();
  }
  state.counters["open_detect_us"] = total_seconds * 1e6;
  state.counters["resident_bytes_after_detect"] = static_cast<double>(resident);
  state.counters["resident_fraction"] =
      mapped_bytes == 0 ? 0.0
                        : static_cast<double>(resident) / static_cast<double>(mapped_bytes);
}

}  // namespace

BENCHMARK(BM_SaveTrace)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BuildFromScratch)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OpenTrace)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OpenTraceCold)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OpenAndDetect)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);

#include "bench_common.hpp"
PREDCTRL_BENCH_MAIN();
