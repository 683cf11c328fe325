// Computation slicing (slice/slicer.hpp) against brute-force lattice
// enumeration, and the slice-pruned control path (control/sliced_general.hpp)
// against the exhaustive oracle.
//
// The brute-force oracle for J: for a regular predicate the satisfying cuts
// are meet-closed, so the least satisfying cut containing state s is exactly
// the componentwise meet of ALL satisfying cuts c with c[s.process] >=
// s.index (and a gap iff there are none). The slicer's fixpoint must match
// it state-for-state, and the slice deposet's lattice must sandwich:
// satisfying cuts  <=  slice lattice  <=  base lattice.
#include "slice/slicer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "causality/clock_matrix.hpp"
#include "control/sliced_general.hpp"
#include "predicates/detection.hpp"
#include "predicates/global_predicate.hpp"
#include "predicates/regular.hpp"
#include "trace/lattice.hpp"
#include "trace/random_trace.hpp"
#include "util/rng.hpp"

namespace predctrl {
namespace {

Deposet grid(int32_t n, int32_t len) {
  DeposetBuilder b(n);
  for (ProcessId p = 0; p < n; ++p) b.set_length(p, len);
  return b.build();
}

bool eval_table(const PredicateTable& table, const Cut& cut) {
  for (size_t p = 0; p < table.size(); ++p)
    if (!table[p][static_cast<size_t>(cut[static_cast<ProcessId>(p)])]) return false;
  return true;
}

// Brute-force J(s): meet of every satisfying consistent cut containing s.
std::optional<Cut> brute_j(const std::vector<Cut>& satisfying, StateId s) {
  std::optional<Cut> meet;
  for (const Cut& c : satisfying) {
    if (c[s.process] < s.index) continue;
    meet = meet ? meet->meet(c) : c;
  }
  return meet;
}

void check_slice_against_brute_force(const Deposet& d, const RegularPredicate& b) {
  std::vector<Cut> base_cuts = all_consistent_cuts(d);
  std::vector<Cut> satisfying;
  for (const Cut& c : base_cuts)
    if (b.eval(d, c)) satisfying.push_back(c);

  Slice slice = compute_slice(d, b);
  EXPECT_EQ(slice.stats().states_total, d.total_states());

  // Per-state J vs the meet oracle.
  int64_t gaps = 0;
  for (ProcessId p = 0; p < d.num_processes(); ++p) {
    for (int32_t k = 0; k < d.length(p); ++k) {
      const StateId s{p, k};
      std::optional<Cut> expect = brute_j(satisfying, s);
      std::optional<Cut> got = slice.j(s);
      ASSERT_EQ(expect.has_value(), got.has_value())
          << "J defined-ness mismatch at " << s;
      if (expect) {
        EXPECT_EQ(*expect, *got) << "J mismatch at " << s;
      }
      if (!expect) ++gaps;
    }
  }
  EXPECT_EQ(slice.stats().gap_states, gaps);
  ASSERT_EQ(slice.has_gap(), gaps > 0);
  if (slice.has_gap()) return;

  // Sandwich: satisfying cuts <= slice lattice <= base lattice.
  std::vector<Cut> slice_cuts = all_consistent_cuts(slice.deposet());
  auto contains = [](const std::vector<Cut>& cuts, const Cut& c) {
    return std::find(cuts.begin(), cuts.end(), c) != cuts.end();
  };
  for (const Cut& c : satisfying)
    EXPECT_TRUE(contains(slice_cuts, c)) << "satisfying cut " << c << " pruned away";
  for (const Cut& c : slice_cuts)
    EXPECT_TRUE(contains(base_cuts, c)) << "slice invented cut " << c;
  EXPECT_LE(slice_cuts.size(), base_cuts.size());
}

RandomTraceOptions trace_options(int seed) {
  RandomTraceOptions opt;
  opt.num_processes = 2 + seed % 3;     // widths 2..4
  opt.events_per_process = 3 + seed % 3;  // small enough to enumerate
  opt.send_probability = 0.3;
  return opt;
}

class SliceSeeds : public ::testing::TestWithParam<int> {};

// Satellite requirement: >= 40 random traces across widths.
INSTANTIATE_TEST_SUITE_P(Seeds, SliceSeeds, ::testing::Range(0, 44));

TEST_P(SliceSeeds, ConjunctiveSliceMatchesBruteForce) {
  const int seed = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(seed));
  Deposet d = random_deposet(trace_options(seed), rng);
  RandomPredicateOptions popt;
  popt.false_probability = 0.25 + 0.1 * (seed % 4);
  PredicateTable table = random_predicate_table(d, popt, rng);
  check_slice_against_brute_force(d, RegularPredicate::conjunctive(table));
}

TEST_P(SliceSeeds, SlicedControlIsByteIdenticalToOracle) {
  const int seed = GetParam();
  Rng rng(5000 + static_cast<uint64_t>(seed));
  Deposet d = random_deposet(trace_options(seed), rng);
  RandomPredicateOptions popt;
  popt.false_probability = seed % 2 == 0 ? 0.15 : 0.45;  // feasible + infeasible mix
  PredicateTable table = random_predicate_table(d, popt, rng);

  std::vector<PredicatePtr> locals;
  for (ProcessId p = 0; p < d.num_processes(); ++p)
    locals.push_back(GlobalPredicate::local_row(p, table[static_cast<size_t>(p)]));
  PredicatePtr b = GlobalPredicate::conjunction(std::move(locals));
  EXPECT_TRUE(is_regular(*b));

  GeneralControlResult raw = control_general_offline(
      d, [&](const Cut& c) { return b->eval(c); });
  SlicedControlResult sliced = control_general_sliced(d, *b);

  EXPECT_EQ(raw.controllable, sliced.general.controllable) << "seed " << seed;
  EXPECT_EQ(raw.sequence, sliced.general.sequence) << "seed " << seed;
  EXPECT_EQ(raw.control, sliced.general.control) << "seed " << seed;
  if (sliced.gap_pruned) {
    EXPECT_FALSE(raw.controllable);
    EXPECT_EQ(sliced.general.expansions, 0);
  } else {
    // Same BFS over the same enqueued cuts: identical work counters.
    EXPECT_EQ(raw.expansions, sliced.general.expansions);
    EXPECT_EQ(raw.cuts_visited, sliced.general.cuts_visited);
  }
}

TEST_P(SliceSeeds, LeastSatisfyingCutMatchesWeakConjunctiveDetector) {
  const int seed = GetParam();
  Rng rng(9000 + static_cast<uint64_t>(seed));
  Deposet d = random_deposet(trace_options(seed), rng);
  PredicateTable table = random_predicate_table(d, RandomPredicateOptions{}, rng);

  ConjunctiveDetection wc = detect_weak_conjunctive(d, table);
  std::optional<Cut> least = least_satisfying_cut(d, RegularPredicate::conjunctive(table));
  ASSERT_EQ(wc.detected, least.has_value());
  if (wc.detected) {
    EXPECT_EQ(wc.first_cut, *least);
  }
}

// --- channel predicates ------------------------------------------------------

Deposet pipeline_trace() {
  // P0 sends three messages to P1, received late: the channel fills up.
  DeposetBuilder b(2);
  b.set_length(0, 5);
  b.set_length(1, 5);
  b.add_message({0, 0}, {1, 2});
  b.add_message({0, 1}, {1, 3});
  b.add_message({0, 2}, {1, 4});
  return b.build();
}

TEST(SliceChannel, InTransitCountMatchesDefinition) {
  Deposet d = pipeline_trace();
  Cut c(2);
  c[0] = 3;  // all three sends executed
  c[1] = 1;  // nothing received yet
  EXPECT_EQ(messages_in_transit(d, 0, 1, c), 3);
  c[1] = 3;  // receives of events 1 and 2 done
  EXPECT_EQ(messages_in_transit(d, 0, 1, c), 1);
  c[0] = 1;
  c[1] = 0;
  EXPECT_EQ(messages_in_transit(d, 0, 1, c), 1);
}

TEST(SliceChannel, ChannelBoundSliceMatchesBruteForce) {
  Deposet d = pipeline_trace();
  for (int32_t limit : {0, 1, 2}) {
    check_slice_against_brute_force(d, RegularPredicate::channel_at_most(0, 1, limit));
  }
}

TEST(SliceChannel, ChannelPredicatesAreMeetAndJoinClosed) {
  // The regularity fact the slicer relies on, checked exhaustively.
  Deposet d = pipeline_trace();
  RegularPredicate b = RegularPredicate::channel_at_most(0, 1, 1);
  std::vector<Cut> sat;
  for (const Cut& c : all_consistent_cuts(d))
    if (b.eval(d, c)) sat.push_back(c);
  for (const Cut& x : sat) {
    for (const Cut& y : sat) {
      EXPECT_TRUE(b.eval(d, x.meet(y)));
      EXPECT_TRUE(b.eval(d, x.join(y)));
    }
  }
}

TEST(SliceChannel, ConjunctionOfRowsAndChannel) {
  Deposet d = pipeline_trace();
  PredicateTable rows{{true, true, false, true, true}, {}};
  RegularPredicate b = RegularPredicate::conjunction(
      {RegularPredicate::conjunctive(rows), RegularPredicate::channel_at_most(0, 1, 1)});
  check_slice_against_brute_force(d, b);
}

// --- joins -------------------------------------------------------------------

TEST(SliceJoin, JoinSliceCoversTheDisjunction) {
  Rng rng(42);
  Deposet d = random_deposet({.num_processes = 3, .events_per_process = 4}, rng);
  RandomPredicateOptions popt;
  popt.false_probability = 0.4;
  PredicateTable t1 = random_predicate_table(d, popt, rng);
  PredicateTable t2 = random_predicate_table(d, popt, rng);
  RegularPredicate b = RegularPredicate::join(
      {RegularPredicate::conjunctive(t1), RegularPredicate::conjunctive(t2)});

  Slice slice = compute_slice(d, b);
  std::vector<Cut> sat;
  for (const Cut& c : all_consistent_cuts(d))
    if (eval_table(t1, c) || eval_table(t2, c)) sat.push_back(c);
  if (slice.has_gap()) {
    // A gap state is contained in no satisfying cut of either arm.
    const StateId g = slice.gap();
    for (const Cut& c : sat) EXPECT_LT(c[g.process], g.index);
    return;
  }
  std::vector<Cut> slice_cuts = all_consistent_cuts(slice.deposet());
  for (const Cut& c : sat)
    EXPECT_TRUE(std::find(slice_cuts.begin(), slice_cuts.end(), c) != slice_cuts.end())
        << "satisfying cut " << c << " pruned by the join slice";
}

// --- classifier --------------------------------------------------------------

TEST(RegularClassifier, ConjunctionOfLocalRowsIsRegular) {
  auto a = GlobalPredicate::local_row(0, {true, false, true});
  auto b = GlobalPredicate::local_row(1, {false, true, true});
  EXPECT_TRUE(is_regular(*GlobalPredicate::conjunction({a, b})));
  // Same-process disjunction folds into one row: still regular.
  auto a2 = GlobalPredicate::local_row(0, {false, true, false});
  EXPECT_TRUE(is_regular(*GlobalPredicate::conjunction(
      {GlobalPredicate::disjunction({a, a2}), b})));
  // Cross-process disjunction is not syntactically regular.
  EXPECT_FALSE(is_regular(*GlobalPredicate::disjunction({a, b})));
  // ...but its negation (a conjunction, by De Morgan) is.
  EXPECT_TRUE(is_regular(*GlobalPredicate::negation(GlobalPredicate::disjunction({a, b}))));
}

TEST(RegularClassifier, ApproximationIsSoundAndExactWhenRegular) {
  Rng rng(7);
  Deposet d = random_deposet({.num_processes = 3, .events_per_process = 4}, rng);
  RandomPredicateOptions popt;
  popt.false_probability = 0.35;
  PredicateTable t1 = random_predicate_table(d, popt, rng);
  PredicateTable t2 = random_predicate_table(d, popt, rng);

  std::vector<PredicatePtr> locals1, locals2;
  for (ProcessId p = 0; p < d.num_processes(); ++p) {
    locals1.push_back(GlobalPredicate::local_row(p, t1[static_cast<size_t>(p)]));
    locals2.push_back(GlobalPredicate::local_row(p, t2[static_cast<size_t>(p)]));
  }
  PredicatePtr conj = GlobalPredicate::conjunction(locals1);
  PredicatePtr disj = GlobalPredicate::disjunction(
      {GlobalPredicate::conjunction(locals1), GlobalPredicate::conjunction(locals2)});
  // A multi-process disjunction nested under a conjunction: inexact fallback.
  PredicatePtr mixed = GlobalPredicate::conjunction(
      {GlobalPredicate::disjunction({locals1[0], locals1[1]}), locals2[2]});

  for (const auto& [pred, must_be_exact] :
       {std::pair{conj, true}, std::pair{disj, true}, std::pair{mixed, false}}) {
    RegularApproximation approx = regular_approximation(*pred, d);
    EXPECT_EQ(approx.exact, must_be_exact) << pred->to_string();
    for (const Cut& c : all_consistent_cuts(d)) {
      if (pred->eval(c)) {
        EXPECT_TRUE(approx.predicate.eval(d, c)) << "unsound at " << c;
      }
      if (approx.exact) {
        EXPECT_EQ(pred->eval(c), approx.predicate.eval(d, c)) << "inexact at " << c;
      }
    }
  }
}

// --- edge cases --------------------------------------------------------------

TEST(SliceEdgeCases, FullSliceAddsNoEdges) {
  Rng rng(3);
  Deposet d = random_deposet({.num_processes = 3, .events_per_process = 4}, rng);
  Slice slice = compute_slice(d, RegularPredicate::conjunctive({}));
  ASSERT_FALSE(slice.has_gap());
  EXPECT_EQ(slice.stats().edges_added, 0);
  EXPECT_EQ(count_consistent_cuts(slice.deposet()), count_consistent_cuts(d));
  // With B = true, J(s) is the least consistent cut containing s.
  check_slice_against_brute_force(d, RegularPredicate::conjunctive({}));
}

TEST(SliceEdgeCases, AllFalseRowIsAnEmptySlice) {
  Deposet d = grid(2, 4);
  PredicateTable table{{true, true, true, true}, {false, false, false, false}};
  Slice slice = compute_slice(d, RegularPredicate::conjunctive(table));
  ASSERT_TRUE(slice.has_gap());
  EXPECT_EQ(slice.gap(), (StateId{0, 0}));
  EXPECT_EQ(slice.stats().gap_states, d.total_states());
}

TEST(SliceEdgeCases, UnreachableTopIsAGapAtTheTopState) {
  // Feasible everywhere except the last state of P1: gaps exactly at
  // states that only satisfying cuts above them could justify.
  Deposet d = grid(2, 4);
  PredicateTable table{{true, true, true, true}, {true, true, true, false}};
  Slice slice = compute_slice(d, RegularPredicate::conjunctive(table));
  ASSERT_TRUE(slice.has_gap());
  EXPECT_EQ(slice.gap(), (StateId{1, 3}));
  EXPECT_EQ(slice.stats().gap_states, 1);
}

TEST(SliceEdgeCases, SingleProcessChain) {
  Deposet d = grid(1, 6);
  PredicateTable table{{true, false, true, false, true, true}};
  check_slice_against_brute_force(d, RegularPredicate::conjunctive(table));
  Slice slice = compute_slice(d, RegularPredicate::conjunctive(table));
  ASSERT_FALSE(slice.has_gap());
  EXPECT_EQ(slice.stats().edges_added, 0);  // one process: nothing to constrain
  ASSERT_TRUE(slice.j({0, 1}).has_value());
  EXPECT_EQ((*slice.j({0, 1}))[0], 2);  // pushed to the next true state
}

TEST(SliceEdgeCases, MetaEventConstraintsAreDroppedNotCyclic) {
  // B forces both processes past state 1 together (rows false at 1): the
  // pairwise constraints would be mutually forcing. The slice must stay
  // acyclic (drop interior edges) and still cover every satisfying cut.
  Deposet d = grid(2, 4);
  PredicateTable table{{true, false, true, true}, {true, false, true, true}};
  check_slice_against_brute_force(d, RegularPredicate::conjunctive(table));
}

TEST(SliceEdgeCases, RowsPerChunkVariantsSliceIdentically) {
  // The slicer reads clocks through the Deposet interface; deposets built
  // from online appendable matrices (any chunking) must slice identically
  // to the batch build.
  Rng rng(11);
  Deposet batch = random_deposet({.num_processes = 3, .events_per_process = 5}, rng);
  PredicateTable table = random_predicate_table(batch, RandomPredicateOptions{}, rng);
  RegularPredicate b = RegularPredicate::conjunctive(table);
  Slice reference = compute_slice(batch, b);

  for (int32_t rows_per_chunk : {1, 3, 256}) {
    AppendableClockMatrix m(batch.num_processes(), rows_per_chunk);
    bool progress = true;
    while (progress) {
      progress = false;
      for (ProcessId p = 0; p < batch.num_processes(); ++p) {
        while (m.length(p) < batch.length(p)) {
          const StateId s{p, m.length(p)};
          std::vector<ClockRow> received;
          bool ready = true;
          for (const MessageEdge& e : batch.messages_to(s)) {
            if (e.from.index >= m.length(e.from.process)) {
              ready = false;
              break;
            }
            received.push_back(m.row(e.from));
          }
          if (!ready) break;
          m.append_row(p, received);
          progress = true;
        }
      }
    }
    DeposetBuilder builder(batch.num_processes());
    for (ProcessId p = 0; p < batch.num_processes(); ++p)
      builder.set_length(p, batch.length(p));
    for (const MessageEdge& e : batch.messages()) builder.add_message(e.from, e.to);
    Deposet online = builder.build_with_clocks(m.to_matrix());

    Slice slice = compute_slice(online, b);
    EXPECT_EQ(slice.added_edges(), reference.added_edges())
        << "rows_per_chunk " << rows_per_chunk;
    EXPECT_EQ(slice.stats().fixpoint_advances, reference.stats().fixpoint_advances);
  }
}

// --- slices are first-class deposets ----------------------------------------

TEST(SliceDeposet, SliceIsDetectableAndControllable) {
  Rng rng(33);
  Deposet d = random_deposet({.num_processes = 3, .events_per_process = 4}, rng);
  RandomPredicateOptions popt;
  popt.false_probability = 0.3;
  PredicateTable table = random_predicate_table(d, popt, rng);
  Slice slice = compute_slice(d, RegularPredicate::conjunctive(table));
  if (slice.has_gap()) GTEST_SKIP() << "empty slice for this seed";

  // The slice deposet supports the whole lattice/detection toolkit.
  EXPECT_GE(count_consistent_cuts(d), count_consistent_cuts(slice.deposet()));
  ConjunctiveDetection wc = detect_weak_conjunctive(slice.deposet(), table);
  ConjunctiveDetection base = detect_weak_conjunctive(d, table);
  EXPECT_EQ(wc.detected, base.detected);
  if (wc.detected) {
    EXPECT_EQ(wc.first_cut, base.first_cut);
  }
}

}  // namespace
}  // namespace predctrl
