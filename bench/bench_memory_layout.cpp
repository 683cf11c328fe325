// Memory-layout benchmark: quantifies the flat-slab refactor (ClockMatrix
// + CSR edge index + PackedIntervals) against the layout it replaced.
//
// Each kernel exists twice:
//
//   * Flat   -- the library path: clock rows in one int32_t slab, cross
//               edges in a CSR index, interval pair tests on precomputed
//               slab-row pointers;
//   * Legacy -- a faithful copy of the pre-refactor code: one heap
//               vector<int32_t> per state (vector<vector<VectorClock>>),
//               a vector<vector<StateId>> adjacency built per clock call,
//               and pair tests that re-derive precedence through the
//               nested vectors.
//
// The Flat cases export `speedup_vs_legacy` (best-of-N manual timing of
// both kernels on identical inputs, so the counter survives --smoke's
// single-iteration mode) plus states/sec and bytes/state for both layouts.
// bench/baselines/ commits these numbers; check_bench_json --baseline
// watches them for regressions.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iterator>
#include <queue>
#include <span>
#include <vector>

#include "causality/clock_computation.hpp"
#include "control/offline_disjunctive.hpp"
#include "predicates/intervals.hpp"
#include "trace/random_trace.hpp"

using namespace predctrl;

namespace {

// ------------------------------------------------------------------ inputs

struct SizeSpec {
  const char* name;
  int32_t processes;
  int32_t events_per_process;
  int64_t overlap_combinations;  // odometer prefix visited by the sweep
};

// xl: ~1.05M states x 16 processes = a 67 MB clock slab, well past any L3,
// so the counters expose the slab's streaming behavior where the legacy
// pointer-chasing layout thrashes (ROADMAP "larger-than-L3 stress sizes").
constexpr SizeSpec kSizes[] = {
    {"small", 4, 400, 20000},
    {"medium", 8, 1500, 30000},
    {"large", 16, 5000, 40000},
    {"xl", 16, 65536, 40000},
};
constexpr int kNumSizes = static_cast<int>(std::size(kSizes));

struct Instance {
  Deposet deposet;
  PredicateTable predicate;
  FalseIntervalSets intervals;
};

const Instance& instance(int64_t size_idx) {
  static Instance cache[kNumSizes];
  static bool built[kNumSizes] = {};
  Instance& inst = cache[size_idx];
  if (!built[size_idx]) {
    const SizeSpec& spec = kSizes[size_idx];
    Rng rng(1000 + static_cast<uint64_t>(size_idx));
    RandomTraceOptions topt;
    topt.num_processes = spec.processes;
    topt.events_per_process = spec.events_per_process;
    topt.send_probability = 0.2;
    inst.deposet = random_deposet(topt, rng);
    RandomPredicateOptions popt;
    popt.false_probability = 0.5;
    popt.flip_probability = 0.2;  // long runs -> a healthy interval count
    inst.predicate = random_predicate_table(inst.deposet, popt, rng);
    inst.intervals = extract_false_intervals(inst.predicate);
    built[size_idx] = true;
  }
  return inst;
}

// Best-of-N wall time of fn() in seconds; N small so --smoke stays fast.
template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    if (dt.count() < best) best = dt.count();
  }
  return best;
}

// -------------------------------------------------- legacy clock layout

using LegacyClocks = std::vector<std::vector<VectorClock>>;

// The pre-refactor clock build, verbatim: per-state heap clocks, a
// per-state adjacency of vectors, Kahn's algorithm pushing merges.
LegacyClocks legacy_clock_build(const std::vector<int32_t>& lengths,
                                std::span<const MessageEdge> edges) {
  const int32_t n = static_cast<int32_t>(lengths.size());
  std::vector<size_t> offsets(lengths.size() + 1, 0);
  for (size_t p = 0; p < lengths.size(); ++p)
    offsets[p + 1] = offsets[p] + static_cast<size_t>(lengths[p]);
  const size_t total = offsets.back();
  auto flat = [&](StateId s) {
    return offsets[static_cast<size_t>(s.process)] + static_cast<size_t>(s.index);
  };

  std::vector<std::vector<StateId>> out(total);
  std::vector<int32_t> indegree(total, 0);
  for (const MessageEdge& e : edges) {
    out[flat(e.from)].push_back(e.to);
    ++indegree[flat(e.to)];
  }

  LegacyClocks clocks(lengths.size());
  for (size_t p = 0; p < lengths.size(); ++p)
    clocks[p].assign(static_cast<size_t>(lengths[p]), VectorClock(n));

  std::vector<int32_t> pending(total);
  std::queue<StateId> ready;
  for (ProcessId p = 0; p < n; ++p)
    for (int32_t k = 0; k < lengths[static_cast<size_t>(p)]; ++k) {
      StateId s{p, k};
      pending[flat(s)] = indegree[flat(s)] + (k > 0 ? 1 : 0);
      if (pending[flat(s)] == 0) ready.push(s);
    }

  auto clock_of = [&](StateId s) -> VectorClock& {
    return clocks[static_cast<size_t>(s.process)][static_cast<size_t>(s.index)];
  };
  while (!ready.empty()) {
    StateId s = ready.front();
    ready.pop();
    VectorClock& vc = clock_of(s);
    if (s.index > 0) vc.merge(clock_of({s.process, s.index - 1}));
    vc[s.process] = s.index;
    if (s.index + 1 < lengths[static_cast<size_t>(s.process)]) {
      if (--pending[flat({s.process, s.index + 1})] == 0)
        ready.push({s.process, s.index + 1});
    }
    for (StateId t : out[flat(s)]) {
      clock_of(t).merge(vc);
      if (--pending[flat(t)] == 0) ready.push(t);
    }
  }
  return clocks;
}

// ---------------------------------------------- legacy overlap pair test

// crossable() as it ran before PackedIntervals: every probe re-derives
// boundary states and chases clock pointers through the nested vectors.
bool legacy_crossable(const LegacyClocks& clocks, const std::vector<int32_t>& lengths,
                      const FalseInterval& a, const FalseInterval& b,
                      StepSemantics semantics) {
  if (a.lo == 0 || b.hi == lengths[static_cast<size_t>(b.process)] - 1) return false;
  auto precedes = [&](StateId x, StateId y) {
    return clocks[static_cast<size_t>(y.process)][static_cast<size_t>(y.index)][x.process] >=
           x.index;
  };
  const StateId before_a{a.process, a.lo - 1};
  const StateId after_b{b.process, b.hi + 1};
  if (semantics == StepSemantics::kRealTime) return !precedes(before_a, after_b);
  return !precedes(before_a, b.hi_state()) && !precedes(a.lo_state(), after_b);
}

// Odometer sweep over the first `combos` interval combinations, counting
// overlapping ones -- the overlap search's exact probe workload with the
// early exit removed, so Legacy and Flat perform identical work.
int64_t legacy_overlap_sweep(const LegacyClocks& clocks, const std::vector<int32_t>& lengths,
                             const FalseIntervalSets& sets, int64_t combos,
                             StepSemantics semantics) {
  const size_t n = sets.size();
  std::vector<size_t> pick(n, 0);
  std::vector<FalseInterval> selection(n);
  int64_t overlapping = 0;
  for (int64_t v = 0; v < combos; ++v) {
    for (size_t p = 0; p < n; ++p) selection[p] = sets[p][pick[p]];
    bool overlap = true;
    for (size_t i = 0; i < n && overlap; ++i)
      for (size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        if (legacy_crossable(clocks, lengths, selection[i], selection[j], semantics)) {
          overlap = false;
          break;
        }
      }
    if (overlap) ++overlapping;
    size_t p = 0;
    for (; p < n; ++p) {
      if (++pick[p] < sets[p].size()) break;
      pick[p] = 0;
    }
    if (p == n) break;  // odometer exhausted before the combo budget
  }
  return overlapping;
}

int64_t flat_overlap_sweep(const PackedIntervals& packed, const FalseIntervalSets& sets,
                           int64_t combos, StepSemantics semantics) {
  const int32_t n = packed.num_processes();
  std::vector<int32_t> pick(static_cast<size_t>(n), 0);
  int64_t overlapping = 0;
  for (int64_t v = 0; v < combos; ++v) {
    bool overlap = true;
    for (ProcessId i = 0; i < n && overlap; ++i)
      for (ProcessId j = 0; j < n; ++j) {
        if (i == j) continue;
        if (packed.crossable(i, pick[static_cast<size_t>(i)], j, pick[static_cast<size_t>(j)],
                             semantics)) {
          overlap = false;
          break;
        }
      }
    if (overlap) ++overlapping;
    int32_t p = 0;
    for (; p < n; ++p) {
      if (++pick[static_cast<size_t>(p)] < static_cast<int32_t>(sets[static_cast<size_t>(p)].size()))
        break;
      pick[static_cast<size_t>(p)] = 0;
    }
    if (p == n) break;
  }
  return overlapping;
}

// ------------------------------------------------------------ bench cases

// Per-state footprint of each layout. Flat: n components in the slab.
// Legacy: vector header + malloc bookkeeping + the components, per state.
double bytes_per_state_flat(int32_t n) { return 4.0 * n; }
double bytes_per_state_legacy(int32_t n) {
  return static_cast<double>(sizeof(std::vector<int32_t>)) + 16.0 /*malloc header*/ +
         4.0 * n;
}

void BM_ClockBuild_Flat(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));
  const SizeSpec& spec = kSizes[state.range(0)];
  state.SetLabel(spec.name);
  const auto& lengths = inst.deposet.lengths();
  const auto& messages = inst.deposet.messages();
  for (auto _ : state) {
    ClockComputation cc = compute_state_clocks(lengths, messages);
    benchmark::DoNotOptimize(cc);
  }
  const double t_flat = best_seconds(3, [&] {
    ClockComputation cc = compute_state_clocks(lengths, messages);
    benchmark::DoNotOptimize(cc);
  });
  const double t_legacy = best_seconds(3, [&] {
    LegacyClocks lc = legacy_clock_build(lengths, messages);
    benchmark::DoNotOptimize(lc);
  });
  const double states = static_cast<double>(inst.deposet.total_states());
  state.counters["states_per_sec"] = states / t_flat;
  state.counters["speedup_vs_legacy"] = t_legacy / t_flat;
  state.counters["bytes_per_state"] = bytes_per_state_flat(spec.processes);
  state.counters["bytes_per_state_legacy"] = bytes_per_state_legacy(spec.processes);
  // Slab traffic of one build: every row is written once and read once as
  // its successor's predecessor, plus one extra row read per cross edge.
  // Dividing by wall time gives the achieved streaming bandwidth -- the
  // number to watch at xl, where the slab no longer fits in L3.
  const double bytes_moved =
      4.0 * spec.processes *
      (2.0 * states + static_cast<double>(inst.deposet.messages().size()));
  state.counters["bytes_moved"] = bytes_moved;
  state.counters["bytes_moved_per_sec"] = bytes_moved / t_flat;
}

void BM_ClockBuild_Legacy(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));
  state.SetLabel(kSizes[state.range(0)].name);
  for (auto _ : state) {
    LegacyClocks lc = legacy_clock_build(inst.deposet.lengths(), inst.deposet.messages());
    benchmark::DoNotOptimize(lc);
  }
}

void BM_OverlapSearch_Flat(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));
  const SizeSpec& spec = kSizes[state.range(0)];
  state.SetLabel(spec.name);
  const PackedIntervals packed(inst.deposet, inst.intervals);
  int64_t overlapping = 0;
  for (auto _ : state) {
    overlapping = flat_overlap_sweep(packed, inst.intervals, spec.overlap_combinations,
                                     StepSemantics::kRealTime);
    benchmark::DoNotOptimize(overlapping);
  }
  const double t_flat = best_seconds(2, [&] {
    benchmark::DoNotOptimize(flat_overlap_sweep(packed, inst.intervals,
                                                spec.overlap_combinations,
                                                StepSemantics::kRealTime));
  });
  LegacyClocks legacy_clocks =
      legacy_clock_build(inst.deposet.lengths(), inst.deposet.messages());
  const double t_legacy = best_seconds(2, [&] {
    benchmark::DoNotOptimize(legacy_overlap_sweep(legacy_clocks, inst.deposet.lengths(),
                                                  inst.intervals, spec.overlap_combinations,
                                                  StepSemantics::kRealTime));
  });
  state.counters["combos_per_sec"] = static_cast<double>(spec.overlap_combinations) / t_flat;
  state.counters["speedup_vs_legacy"] = t_legacy / t_flat;
  state.counters["overlapping_found"] = static_cast<double>(overlapping);
}

void BM_OverlapSearch_Legacy(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));
  const SizeSpec& spec = kSizes[state.range(0)];
  state.SetLabel(spec.name);
  const LegacyClocks legacy_clocks =
      legacy_clock_build(inst.deposet.lengths(), inst.deposet.messages());
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_overlap_sweep(legacy_clocks, inst.deposet.lengths(),
                                                  inst.intervals, spec.overlap_combinations,
                                                  StepSemantics::kRealTime));
  }
}

// The integrated offline path on the new layout: extraction, packing, the
// crossable-matrix refreshes and the emitted chain, end to end.
void BM_OfflineSynthesis(benchmark::State& state) {
  const Instance& inst = instance(state.range(0));
  state.SetLabel(kSizes[state.range(0)].name);
  OfflineControlOptions opt;
  opt.impl = ValidPairsImpl::kIncremental;
  opt.select = SelectPolicy::kFirst;
  int64_t pair_checks = 0;
  double synth_seconds = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    OfflineControlResult r = control_disjunctive_offline(inst.deposet, inst.predicate, opt);
    synth_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    pair_checks = r.pair_checks;
    benchmark::DoNotOptimize(r);
  }
  state.counters["pair_checks"] = static_cast<double>(pair_checks);
  state.counters["states_per_sec"] =
      static_cast<double>(inst.deposet.total_states()) / synth_seconds;
}

}  // namespace

BENCHMARK(BM_ClockBuild_Flat)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClockBuild_Legacy)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OverlapSearch_Flat)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OverlapSearch_Legacy)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OfflineSynthesis)->DenseRange(0, kNumSizes - 1)->Unit(benchmark::kMillisecond);

#include "bench_common.hpp"
PREDCTRL_BENCH_MAIN();
