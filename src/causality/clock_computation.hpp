// Computes state vector clocks for an arbitrary decomposed state graph:
// per-process chains (`im` edges) plus an arbitrary set of cross-process
// causal edges (message edges, and -- for controlled deposets -- control
// edges). Doubles as the acyclicity check: a cyclic relation (one that
// "interferes" with happened-before, in the paper's terms) is reported
// rather than silently mis-clocked.
//
// The computation is Kahn's algorithm over the state graph, pushing merges
// to successors as states complete.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "causality/clock_matrix.hpp"
#include "causality/ids.hpp"
#include "causality/vector_clock.hpp"

namespace predctrl {

/// A directed causal edge between states of different processes:
/// from ~> to ("from finishes before to starts").
struct CausalEdge {
  StateId from;
  StateId to;

  friend auto operator<=>(const CausalEdge&, const CausalEdge&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const CausalEdge& e) {
  return os << e.from << "~>" << e.to;
}

/// Result of a clock computation over the union of `im` and the given edges.
struct ClockComputation {
  /// False iff the relation contains a cycle (the clocks are then meaningless
  /// and left empty).
  bool acyclic = false;

  /// clocks[p][k] is the clock row of state (p, k) -- one contiguous slab,
  /// see causality/clock_matrix.hpp. Present iff acyclic. Rows are written
  /// in place; no per-state allocation happens.
  ClockMatrix clocks;
};

/// Computes the clock of every state under the transitive closure of
///   - (p, k) -> (p, k+1) for every process p, and
///   - e.from -> e.to for every edge e.
///
/// `lengths[p]` is the number of local states of process p (>= 1). Edge
/// endpoints must be in range and cross-process. Runs in O(n * S + n * E)
/// for n processes, S total states, E edges. `edges` is a view (vectors
/// convert implicitly; Deposet::messages() passes through without a copy).
ClockComputation compute_state_clocks(const std::vector<int32_t>& lengths,
                                      std::span<const CausalEdge> edges);

/// Braced-list conveniences (std::span cannot bind an initializer list):
/// compute_state_clocks({3, 2}, {{{0, 0}, {1, 1}}}).
inline ClockComputation compute_state_clocks(const std::vector<int32_t>& lengths,
                                             std::initializer_list<CausalEdge> edges) {
  return compute_state_clocks(lengths, std::span<const CausalEdge>(edges.begin(), edges.size()));
}

/// Event-level acyclicity (executability) check.
///
/// Each state edge {s, t} asserts "s finishes before t starts", i.e. the
/// event after s (event s.index on s.process) completes before the event
/// before t (event t.index - 1 on t.process). For pure message deposets,
/// D1-D3 make state-level acyclicity (compute_state_clocks) equivalent to
/// this event-level order; control edges are NOT bound by D3 (an underlying
/// event may coincide with several control-message boundaries), and then the
/// state-level check is strictly weaker: a relation can be state-acyclic yet
/// impossible to execute (the controllers deadlock). This routine checks the
/// real thing: the order over *events* is acyclic.
///
/// Edges whose source is a final state (the "exit" never happens) or whose
/// target is an initial state (the "entry" precedes everything) are
/// inherently unexecutable and yield false.
bool event_order_acyclic(const std::vector<int32_t>& lengths,
                         std::span<const CausalEdge> edges);

inline bool event_order_acyclic(const std::vector<int32_t>& lengths,
                                std::initializer_list<CausalEdge> edges) {
  return event_order_acyclic(lengths,
                             std::span<const CausalEdge>(edges.begin(), edges.size()));
}

}  // namespace predctrl
