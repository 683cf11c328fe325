// False intervals of local predicates -- paper, Section 5.
//
// Given disjunctive B = l_1 v ... v l_n, the local sequence of P_i splits
// into maximal runs of states where l_i is false; each run is a *false
// interval* I with boundary states I.lo and I.hi. The off-line algorithm
// works entirely on these intervals, and infeasibility is characterized by
// an *overlapping* set of them (Lemma 2):
//
//   overlap(I_1..I_n)  ==  forall i,j:
//       (I_i.lo -> I_j.hi) or (I_i.lo = bottom_i) or (I_j.hi = top_j)
//
// and a pair is *crossable* when I_j can be fully crossed before I_i is
// entered.
//
// NOTE on boundary semantics: the paper's text writes crossable as
// "!(I_i.lo -> I_j.hi)", relating the intervals' first/last *states*. Taken
// literally this misses traces where *exiting* I_j (reaching the state after
// I_j.hi) causally requires I_i to be entered -- e.g. when the message
// enabling I_j's exit is sent from inside I_i. On such traces the literal
// test manufactures a "crossable" pair for an infeasible predicate and the
// emitted controller deadlocks. The exact condition depends on the step
// semantics (trace/semantics.hpp):
//
//   kSimultaneous:  !(I_i.lo       -> succ(I_j.hi))   -- i may enter at the
//                   same instant j exits (the paper-model knife edge)
//   kRealTime:      !(pred(I_i.lo) -> succ(I_j.hi))   -- i's entry event must
//                   not causally precede j's exit event
//
// (pred/succ are the adjacent states on the same process; both exist given
// the boundary conjuncts). `overlap` is "not crossable in any ordered
// direction" under the same semantics. The randomized exactness suites in
// tests/test_offline_control.cpp validate both forms against exhaustive
// feasibility oracles.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "causality/ids.hpp"
#include "trace/deposet.hpp"
#include "trace/random_trace.hpp"
#include "trace/semantics.hpp"

namespace predctrl {

/// A maximal run [lo, hi] of consecutive false states on one process.
struct FalseInterval {
  ProcessId process = -1;
  int32_t lo = -1;  ///< index of the first false state
  int32_t hi = -1;  ///< index of the last false state (>= lo)

  StateId lo_state() const { return {process, lo}; }
  StateId hi_state() const { return {process, hi}; }

  friend bool operator==(const FalseInterval&, const FalseInterval&) = default;
};

std::ostream& operator<<(std::ostream& os, const FalseInterval& iv);

/// Per-process false intervals, in increasing index order.
using FalseIntervalSets = std::vector<std::vector<FalseInterval>>;

/// Extracts the false intervals of every process from a truth table (the
/// input decomposition of the paper's Section 5, Figure 2 algorithm): one
/// linear scan per row.
FalseIntervalSets extract_false_intervals(const PredicateTable& table);

/// Maximum number of false intervals on any process (the paper's `p`).
int32_t max_intervals_per_process(const FalseIntervalSets& sets);

/// crossable(I_a, I_b): can I_b be fully crossed before I_a is entered (see
/// the boundary note above)? The two intervals must belong to different
/// processes.
bool crossable(const Deposet& deposet, const FalseInterval& a, const FalseInterval& b,
               StepSemantics semantics = StepSemantics::kRealTime);

/// Packed false-interval storage: all intervals in one flat span table (CSR
/// by process) with the clock rows a pair test needs precomputed as direct
/// pointers into the deposet's ClockMatrix slab.
///
/// crossable(a, b) expands to at most two component loads (b's hi /
/// succ(hi) rows at a's process) plus two integer compares -- no StateId
/// arithmetic, no nested-vector walks, no bounds re-derivation per pair.
/// The O(n^2 p^2) overlap search and the synthesis loop's crossable-matrix
/// refresh both run on this index.
///
/// Lifetime: holds pointers into `deposet`'s slab; the deposet must outlive
/// the index, and the verdicts match predctrl::crossable exactly.
class PackedIntervals {
 public:
  PackedIntervals() = default;

  /// Packs `sets` (the extract_false_intervals output shape: one ascending
  /// interval list per process). Throws if the sets do not match the
  /// deposet, mirroring the per-pair checks of the unpacked test.
  PackedIntervals(const Deposet& deposet, const FalseIntervalSets& sets);

  /// Rebuilds the index from the interval tables of an mmap'ed
  /// predctrl-trace-v1 file (trace/trace_file.hpp) without re-extracting
  /// intervals from a predicate table: `offsets` is the per-process CSR
  /// table (n + 1 entries), `bounds` holds (lo, hi) int32 pairs per
  /// interval. The hi/succ(hi) clock-row pointers are taken from
  /// `deposet`'s (typically mapped) slab, so the only work is O(total
  /// intervals) span assembly -- no predicate scan, no clock access.
  /// Boundary sanity is checked per interval (cheap; the data is
  /// CRC-guarded on disk).
  static PackedIntervals adopt_mapped(const Deposet& deposet,
                                      std::span<const size_t> offsets,
                                      std::span<const int32_t> bounds);

  int32_t num_processes() const { return static_cast<int32_t>(offsets_.size()) - 1; }
  int32_t count(ProcessId p) const {
    return static_cast<int32_t>(offsets_[static_cast<size_t>(p) + 1] -
                                offsets_[static_cast<size_t>(p)]);
  }
  int64_t total() const { return static_cast<int64_t>(spans_.size()); }

  /// One packed interval: boundary indices plus the precomputed clock rows
  /// of hi and succ(hi). succ_hi_row is nullptr iff hi is the top state.
  struct Span {
    int32_t lo = -1;
    int32_t hi = -1;
    const int32_t* hi_row = nullptr;
    const int32_t* succ_hi_row = nullptr;
  };

  const Span& span(ProcessId p, int32_t i) const {
    return spans_[offsets_[static_cast<size_t>(p)] + static_cast<size_t>(i)];
  }

  /// The i-th interval of process p, unpacked (diagnostics, result export).
  FalseInterval interval(ProcessId p, int32_t i) const {
    const Span& s = span(p, i);
    return {p, s.lo, s.hi};
  }

  /// Same verdict as predctrl::crossable(deposet, interval(ap, ai),
  /// interval(bp, bi), semantics), via the precomputed rows.
  bool crossable(ProcessId ap, int32_t ai, ProcessId bp, int32_t bi,
                 StepSemantics semantics) const {
    const Span& a = span(ap, ai);
    const Span& b = span(bp, bi);
    // lo == 0 is the bottom state; a missing succ(hi) row marks hi == top.
    if (a.lo == 0 || b.succ_hi_row == nullptr) return false;
    if (semantics == StepSemantics::kRealTime)
      return b.succ_hi_row[ap] < a.lo - 1;  // !(pred(a.lo) -> succ(b.hi))
    return b.hi_row[ap] < a.lo - 1 &&       // !(pred(a.lo) -> b.hi)
           b.succ_hi_row[ap] < a.lo;        // !(a.lo -> succ(b.hi))
  }

 private:
  std::vector<size_t> offsets_;  // n+1, CSR by process
  std::vector<Span> spans_;
};

/// Checks overlap(selection) -- one interval per process required.
bool is_overlapping_set(const Deposet& deposet, const std::vector<FalseInterval>& selection,
                        StepSemantics semantics = StepSemantics::kRealTime);

/// Searches for an overlapping set (one interval per process) by exhaustive
/// combination, visiting at most `max_combinations` candidates. Exponential;
/// a test/diagnostic oracle for Lemma 2, not a production path. Processes
/// with no false interval make the result trivially nullopt (no full
/// selection exists).
std::optional<std::vector<FalseInterval>> find_overlapping_set(
    const Deposet& deposet, const FalseIntervalSets& sets,
    StepSemantics semantics = StepSemantics::kRealTime,
    int64_t max_combinations = 1 << 20);

}  // namespace predctrl
