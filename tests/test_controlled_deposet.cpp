// Controlled deposets: extended causality, non-interference vs
// realizability, and the defining property that control only *restricts*
// the computation (paper, Section 3).
#include "control/controlled_deposet.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "trace/lattice.hpp"
#include "trace/random_trace.hpp"

namespace predctrl {
namespace {

Deposet grid(int32_t n, int32_t len) {
  DeposetBuilder b(n);
  for (ProcessId p = 0; p < n; ++p) b.set_length(p, len);
  return b.build();
}

TEST(ControlledDeposet, AddsCausality) {
  Deposet d = grid(2, 4);
  auto cd = ControlledDeposet::create(d, {{{0, 1}, {1, 2}}});
  ASSERT_TRUE(cd.has_value());
  // Base: concurrent; controlled: ordered.
  EXPECT_TRUE(d.concurrent({0, 1}, {1, 2}));
  EXPECT_TRUE(cd->precedes({0, 1}, {1, 2}));
  // Transitively through the control edge.
  EXPECT_TRUE(cd->precedes({0, 0}, {1, 3}));
  // Unrelated pairs stay concurrent.
  EXPECT_TRUE(cd->concurrent({0, 3}, {1, 1}));
}

TEST(ControlledDeposet, DetectsInterference) {
  Deposet d = grid(2, 4);
  // (0,1) before (1,2) and (1,2) before (0,1): a cycle with itself...
  // use two edges forming a cycle through the chains.
  ControlRelation cyclic{{{0, 2}, {1, 1}}, {{1, 2}, {0, 1}}};
  EXPECT_TRUE(control_interferes(d, cyclic));
  EXPECT_FALSE(ControlledDeposet::create(d, cyclic).has_value());
  // A consistent relation does not interfere.
  ControlRelation fine{{{0, 1}, {1, 2}}, {{1, 3}, {0, 3}}};
  EXPECT_FALSE(control_interferes(d, fine));
}

TEST(ControlledDeposet, InterferenceWeakerThanRealizability) {
  // The canonical separation: state-acyclic but event-cyclic (D3 does not
  // bind control edges). Model fine; execution deadlocks.
  DeposetBuilder b(2);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.add_message({0, 0}, {1, 1});
  Deposet d = b.build();
  ControlRelation knife{{{1, 0}, {0, 1}}};
  EXPECT_FALSE(control_interferes(d, knife));
  EXPECT_FALSE(control_realizable(d, knife));
  auto cd = ControlledDeposet::create(d, knife);
  ASSERT_TRUE(cd.has_value());
  EXPECT_FALSE(cd->realizable());
}

TEST(ControlledDeposet, EdgesFromFinalOrToInitialAreUnrealizable) {
  Deposet d = grid(2, 3);
  EXPECT_FALSE(control_realizable(d, {{{0, 2}, {1, 1}}}));  // source is top
  EXPECT_FALSE(control_realizable(d, {{{0, 1}, {1, 0}}}));  // target is bottom
  // ... but both are representable (non-interfering) at the model level.
  EXPECT_FALSE(control_interferes(d, {{{0, 2}, {1, 1}}}));
}

TEST(ControlledDeposet, RejectsBadEdges) {
  Deposet d = grid(2, 3);
  EXPECT_THROW(ControlledDeposet::create(d, {{{0, 1}, {0, 2}}}), std::invalid_argument);
  EXPECT_THROW(ControlledDeposet::create(d, {{{0, 9}, {1, 1}}}), std::invalid_argument);
}

class ControlledDeposetRandom : public ::testing::TestWithParam<uint64_t> {};

// The defining property: the consistent cuts of a controlled deposet are a
// subset of the base's (control only removes behaviours), and precedence
// only ever grows.
TEST_P(ControlledDeposetRandom, ControlOnlyRestricts) {
  Rng rng(GetParam() * 13 + 5);
  RandomTraceOptions topt;
  topt.num_processes = static_cast<int32_t>(2 + rng.index(3));
  topt.events_per_process = static_cast<int32_t>(3 + rng.index(4));
  Deposet d = random_deposet(topt, rng);

  // A few random (valid-by-construction) control edges: source not top,
  // target not bottom, distinct processes, and skip interfering draws.
  ControlRelation control;
  for (int tries = 0; tries < 4; ++tries) {
    ProcessId p = static_cast<ProcessId>(rng.index(static_cast<size_t>(d.num_processes())));
    ProcessId q = static_cast<ProcessId>(rng.index(static_cast<size_t>(d.num_processes())));
    if (p == q) continue;
    StateId from{p, static_cast<int32_t>(rng.index(static_cast<size_t>(d.length(p) - 1)))};
    StateId to{q, 1 + static_cast<int32_t>(rng.index(static_cast<size_t>(d.length(q) - 1)))};
    ControlRelation candidate = control;
    candidate.push_back({from, to});
    if (!control_interferes(d, candidate)) control = candidate;
  }
  auto cd = ControlledDeposet::create(d, control);
  ASSERT_TRUE(cd.has_value());

  std::unordered_set<Cut, CutHash> base_cuts;
  for_each_consistent_cut(d, [&](const Cut& c) {
    base_cuts.insert(c);
    return true;
  });
  int64_t controlled_count = for_each_consistent_cut(*cd, [&](const Cut& c) {
    EXPECT_TRUE(base_cuts.contains(c)) << c << " consistent only under control";
    return true;
  });
  EXPECT_LE(controlled_count, static_cast<int64_t>(base_cuts.size()));

  for (ProcessId p = 0; p < d.num_processes(); ++p)
    for (int32_t k = 0; k < d.length(p); ++k)
      for (ProcessId q = 0; q < d.num_processes(); ++q)
        for (int32_t m = 0; m < d.length(q); ++m)
          if (d.precedes({p, k}, {q, m})) {
            EXPECT_TRUE(cd->precedes({p, k}, {q, m}));
          }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlledDeposetRandom, ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace predctrl
