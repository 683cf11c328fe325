// Computation slicing -- polynomial-time sublattice extraction for regular
// predicates (Mittal & Garg, arXiv cs/0303010; Chauhan & Garg, arXiv
// 1410.1209; see PAPERS.md and ROADMAP "computation slicing").
//
// For a regular predicate B (predicates/regular.hpp) the consistent cuts
// satisfying B form a sublattice of the consistent-cut lattice. The slicer
// computes, for every local state s = (p, k), the cut
//
//   J(s) = the least consistent cut c with c[p] >= k satisfying B
//
// by a monotone forced-advance fixpoint: starting from the cut that is 0
// everywhere except k at p, repeatedly (a) repair consistency using the
// clock rows (if clock((j, c[j]))[i] >= c[i] then every consistent cut
// above c has c[i] > clock[i] -- advance), (b) repair local rows (advance
// c[p] to the row's next true index), and (c) repair channel bounds
// (advance the receiver far enough to drain the excess). Every advance is
// *forced* -- any satisfying consistent cut above the seed dominates it --
// so the fixpoint is the unique least satisfying cut, reached after at most
// O(total_states) advances. For a join, J(s) is the componentwise meet of
// the branches' J(s). A state with no satisfying cut above it is a *gap*:
// no satisfying cut contains it, hence (since every bottom-to-top global
// sequence passes through every state) no satisfying global sequence
// exists at all -- the polynomial infeasibility knockout the slice-pruned
// SGSD path (control/sliced_general.hpp) exploits.
//
// The slice itself is represented as a **new deposet with added edges**:
// the constraint "c[p] >= k implies c[q] >= J((p,k))[q]" becomes the
// dependency edge {(q, J((p,k))[q] - 1), (p, k)} (strict-inequality cut
// semantics, trace/cut.hpp), skipping constraints already implied by
// causality or by the edge emitted for (p, k-1). Constraints of k = 0
// states bind every cut of the lattice and have no deposet encoding; they
// are dropped (the slice stays a sound over-approximation). Mutually-
// forcing constraint groups ("meta-events", whose events only ever execute
// together) make the *event* graph cyclic -- the edge {f, t} orders event
// (f.process, f.index) before event (t.process, t.index - 1), so a cycle
// can hide behind a state graph that still looks acyclic; interior edges
// of every strongly connected component of the event graph are dropped
// too and counted in the stats. The surviving event graph is acyclic,
// which keeps every slice-consistent cut reachable by single advances
// (what the lattice walks and the real-time SGSD search require).
// The resulting lattice always *contains* the satisfying sublattice --
// sound for pruning -- and the slice deposet is first-class: detectable,
// controllable, and saveable via trace/trace_file.hpp.
//
// The per-state fixpoints are independent and each writes its own J row;
// edge derivation is a scan of the finished table, and the stats are sums
// of per-state counts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "causality/clock_matrix.hpp"
#include "causality/ids.hpp"
#include "predicates/regular.hpp"
#include "trace/cut.hpp"
#include "trace/deposet.hpp"

namespace predctrl {

/// Work and outcome counters of one slicing run.
struct SliceStats {
  int64_t states_total = 0;
  /// States with no satisfying cut above them (J undefined). Nonzero means
  /// no satisfying global sequence exists.
  int64_t gap_states = 0;
  /// Total forced advances across every per-state fixpoint (the polynomial
  /// work measure; compare `expansions` of the exponential search).
  int64_t fixpoint_advances = 0;
  /// Dependency edges added to the slice deposet.
  int64_t edges_added = 0;
  /// Constraint edges dropped because they sat inside a strongly connected
  /// component (meta-events) -- the slice is exact iff this is 0 and the
  /// predicate's approximation was exact.
  int64_t edges_dropped_cyclic = 0;
  /// Mutually-forcing constraint groups found (SCCs with more than one
  /// state).
  int64_t meta_events = 0;
};

/// The result of slicing: the J table plus (when gap-free) the slice
/// deposet. Owns everything; independent of the base deposet's lifetime.
class Slice {
 public:
  /// True iff some state has no satisfying cut above it -- B admits no
  /// satisfying global sequence (and if gap() is (p,0), no satisfying cut
  /// at all). deposet() is unavailable in this case.
  bool has_gap() const { return gap_.has_value(); }
  /// The first gap state in (process, index) order; REQUIREs has_gap().
  StateId gap() const;

  /// The slice as a deposet: the base computation plus the derived
  /// dependency edges. Its consistent cuts form the smallest deposet-
  /// representable lattice containing every B-satisfying cut of the base.
  /// REQUIREs !has_gap().
  const Deposet& deposet() const;

  /// J(s), or nullopt when s is a gap state.
  std::optional<Cut> j(StateId s) const;

  /// The raw J table: one row per state, components of J(s), all
  /// VectorClock::kNone for gap states.
  const ClockMatrix& j_table() const { return j_; }

  /// The synthetic dependency edges added on top of the base messages.
  const std::vector<MessageEdge>& added_edges() const { return added_edges_; }

  const SliceStats& stats() const { return stats_; }

 private:
  friend Slice compute_slice(const Deposet&, const RegularPredicate&);

  Slice() = default;

  std::vector<int32_t> lengths_;
  ClockMatrix j_;
  Deposet sliced_;
  std::vector<MessageEdge> added_edges_;
  std::optional<StateId> gap_;
  SliceStats stats_;
};

/// Slices `deposet` on regular predicate `b`.
Slice compute_slice(const Deposet& deposet, const RegularPredicate& b);

/// Polynomial-time regular-predicate detection: the least consistent cut
/// satisfying `b`, or nullopt when no consistent cut does. Generalizes
/// detect_weak_conjunctive to channel predicates and conjunctions thereof.
/// For a join the satisfying cuts need not have a unique least element; the
/// lattice-minimal branch fixpoint is returned (ties broken towards the
/// first branch).
std::optional<Cut> least_satisfying_cut(const Deposet& deposet, const RegularPredicate& b);

}  // namespace predctrl
