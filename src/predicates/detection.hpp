// Predicate detection over traced computations.
//
// 1. Weak-conjunctive detection (Garg & Waldecker, IEEE TPDS 1996 -- the
//    paper's reference [4], used explicitly in its Section 7 example): given
//    per-process local conditions c_i, decide whether some consistent global
//    state satisfies ALL of them ("possibly(c_1 && ... && c_n)"), and return
//    the *least* such cut. For a disjunctive safety predicate
//    B = l_1 v ... v l_n this detects violations by running on c_i = !l_i.
//    Runs in O(n^2 * S) using vector clocks -- no lattice enumeration.
//
// 2. Satisfying Global Sequence Detection (SGSD -- paper, Section 4): decide
//    whether a computation has a global sequence satisfying an arbitrary
//    global predicate, and produce one. NP-complete in general; this is the
//    deliberate brute-force oracle used by the NP-hardness experiments and
//    by tests, with a work cap so callers can bound the blow-up.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "trace/cut.hpp"
#include "trace/deposet.hpp"
#include "trace/random_trace.hpp"
#include "trace/semantics.hpp"

namespace predctrl {

/// Result of weak-conjunctive detection.
struct ConjunctiveDetection {
  bool detected = false;
  /// The least consistent cut where every condition holds; valid iff detected.
  Cut first_cut;
};

/// Detects possibly(AND_p condition[p][k_p]) over the deposet: is there a
/// consistent global state whose every component satisfies its local
/// condition? `conditions[p][k]` is c_p evaluated at state (p, k).
///
/// Returns the least satisfying cut (the lattice of satisfying consistent
/// cuts of a conjunctive predicate is closed under meet, so a unique least
/// cut exists when any does).
ConjunctiveDetection detect_weak_conjunctive(const Deposet& deposet,
                                             const PredicateTable& conditions);

/// Enumerates every consistent cut satisfying the conjunction, in BFS order.
/// Exhaustive; small instances only (tests, the Section 7 walkthrough where
/// the two witness cuts G and H are displayed).
std::vector<Cut> all_conjunctive_cuts(const Deposet& deposet,
                                      const PredicateTable& conditions);

/// Result of an SGSD search.
struct SgsdResult {
  /// True iff a satisfying global sequence exists (B is feasible).
  bool feasible = false;
  /// A satisfying sequence (each step advances each process by <= 1 state),
  /// valid iff feasible.
  std::vector<Cut> sequence;
  /// True iff the search hit `max_expansions` before reaching an answer;
  /// `feasible` is then a (false-negative-prone) lower bound.
  bool truncated = false;
  /// Number of (cut, subset) expansions performed -- the work measure
  /// reported by the NP-hardness benches.
  int64_t expansions = 0;
  /// Cuts dequeued and expanded (every one satisfied the predicate).
  int64_t cuts_visited = 0;
  /// Generated neighbor cuts rejected by the consistency check before the
  /// predicate was evaluated. Searching a slice (control/sliced_general.hpp)
  /// moves rejections from predicate evaluation into this cheap O(n^2)
  /// check -- the counter that attributes the slicing speedup.
  int64_t cuts_pruned = 0;
};

/// The classic detection modalities over a traced computation:
///   possibly(phi)   -- some consistent global state satisfies phi;
///   definitely(phi) -- EVERY execution passes through a phi-state.
/// `definitely` is the dual of sequence search: an execution avoiding phi is
/// a satisfying global sequence for !phi, so definitely(phi) holds iff no
/// such sequence exists. The step semantics matters: kSimultaneous admits
/// more paths (multi-advance steps can jump diagonally over phi-states every
/// linearization hits), so definitely-under-kSimultaneous implies
/// definitely-under-kRealTime but not conversely. Exponential (lattice
/// search); for traces at debugging scale.
bool possibly(const Deposet& deposet, const std::function<bool(const Cut&)>& phi);
bool definitely(const Deposet& deposet, const std::function<bool(const Cut&)>& phi,
                StepSemantics semantics = StepSemantics::kRealTime,
                int64_t max_expansions = 1'000'000);

/// Searches for a global sequence from the initial to the final global state
/// all of whose cuts satisfy `predicate`.
///
/// Under StepSemantics::kSimultaneous (the paper's model), steps may advance
/// several processes at once -- this matters: the SAT reduction of Lemma 1
/// relies on simultaneous advances through states where no single-step path
/// stays satisfying. Under StepSemantics::kRealTime, a run is a
/// linearization of events, so the search advances one process per step --
/// exactly the global states a real controlled execution passes through.
///
/// Exponential in the worst case under kSimultaneous -- by design (Theorem 1
/// says we cannot do better in general). Under kRealTime the state space is
/// the consistent-cut lattice (still exponential in n, but with n-ary
/// branching instead of 2^n-ary).
SgsdResult find_satisfying_global_sequence(
    const Deposet& deposet, const std::function<bool(const Cut&)>& predicate,
    StepSemantics semantics = StepSemantics::kRealTime,
    int64_t max_expansions = 1'000'000);

}  // namespace predctrl
