// ClockMatrix slab, AppendableClockMatrix, and CsrEdgeIndex: the flat layouts
// must be observationally identical to the per-state structures they replaced
// -- every slab row equals the VectorClock the legacy engine would have
// produced, the appendable arena grown one state at a time equals the batch
// slab byte-for-byte, and the CSR views are exactly Deposet::messages()
// regrouped.
#include "causality/clock_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "causality/clock_computation.hpp"
#include "causality/edge_index.hpp"
#include "trace/deposet.hpp"
#include "trace/random_trace.hpp"
#include "util/rng.hpp"

namespace predctrl {
namespace {

// Fixpoint reference: clock(t) = max over predecessors, self component set to
// the state's own index. Deliberately naive (repeated relaxation) so it shares
// no code with the production Kahn pass.
std::vector<std::vector<VectorClock>> reference_clocks(
    const std::vector<int32_t>& lengths, std::span<const MessageEdge> messages) {
  const int32_t n = static_cast<int32_t>(lengths.size());
  std::vector<std::vector<VectorClock>> clocks(static_cast<size_t>(n));
  for (ProcessId p = 0; p < n; ++p)
    clocks[static_cast<size_t>(p)].assign(static_cast<size_t>(lengths[static_cast<size_t>(p)]),
                                          VectorClock(n));
  bool changed = true;
  while (changed) {
    changed = false;
    for (ProcessId p = 0; p < n; ++p) {
      for (int32_t k = 0; k < lengths[static_cast<size_t>(p)]; ++k) {
        VectorClock next(n);
        next[p] = k;
        if (k > 0) next.merge(clocks[static_cast<size_t>(p)][static_cast<size_t>(k - 1)]);
        for (const MessageEdge& m : messages)
          if (m.to == StateId{p, k})
            next.merge(clocks[static_cast<size_t>(m.from.process)]
                             [static_cast<size_t>(m.from.index)]);
        if (!(next == clocks[static_cast<size_t>(p)][static_cast<size_t>(k)])) {
          clocks[static_cast<size_t>(p)][static_cast<size_t>(k)] = next;
          changed = true;
        }
      }
    }
  }
  return clocks;
}

void expect_matches_reference(const ClockMatrix& matrix, const std::vector<int32_t>& lengths,
                              std::span<const MessageEdge> messages) {
  const auto ref = reference_clocks(lengths, messages);
  ASSERT_EQ(matrix.num_processes(), static_cast<int32_t>(lengths.size()));
  for (ProcessId p = 0; p < matrix.num_processes(); ++p) {
    ASSERT_EQ(matrix.length(p), lengths[static_cast<size_t>(p)]);
    for (int32_t k = 0; k < matrix.length(p); ++k) {
      const ClockRow row = matrix.row({p, k});
      EXPECT_EQ(row, ref[static_cast<size_t>(p)][static_cast<size_t>(k)])
          << "clock mismatch at (" << p << ", " << k << ")";
    }
  }
}

TEST(ClockMatrix, ConstructionFillsNone) {
  ClockMatrix m(std::vector<int32_t>{2, 3});
  EXPECT_EQ(m.num_processes(), 2);
  EXPECT_EQ(m.total_states(), 5);
  EXPECT_FALSE(m.empty());
  for (ProcessId p = 0; p < 2; ++p)
    for (int32_t k = 0; k < m.length(p); ++k)
      for (ProcessId i = 0; i < 2; ++i)
        EXPECT_EQ(m.row({p, k})[i], VectorClock::kNone);
}

TEST(ClockMatrix, RowsAreContiguousInFlatOrder) {
  ClockMatrix m(std::vector<int32_t>{2, 2});
  // Rows follow (p, k) flat order, each exactly num_processes wide.
  EXPECT_EQ(m.row_data({0, 1}) - m.row_data({0, 0}), 2);
  EXPECT_EQ(m.row_data({1, 0}) - m.row_data({0, 0}), 4);
  EXPECT_EQ(m.row_data({1, 1}) - m.row_data({1, 0}), 2);
}

TEST(ClockMatrix, LegacyIndexingCompiles) {
  ClockComputation cc = compute_state_clocks({3, 2}, {{{0, 0}, {1, 1}}});
  ASSERT_TRUE(cc.acyclic);
  // The pre-slab API shape clocks[p][k][i] must keep working.
  EXPECT_EQ(cc.clocks[1][1][0], 0);
  EXPECT_EQ(cc.clocks[1][1][1], 1);
  EXPECT_EQ(cc.clocks[0][2][1], VectorClock::kNone);
}

TEST(ClockMatrix, EmptyComputation) {
  ClockComputation cc = compute_state_clocks({}, {});
  ASSERT_TRUE(cc.acyclic);
  EXPECT_TRUE(cc.clocks.empty());
  EXPECT_EQ(cc.clocks.num_processes(), 0);
  EXPECT_EQ(cc.clocks.total_states(), 0);
}

TEST(ClockMatrix, OneProcessChain) {
  const std::vector<int32_t> lengths{6};
  ClockComputation cc = compute_state_clocks(lengths, {});
  ASSERT_TRUE(cc.acyclic);
  expect_matches_reference(cc.clocks, lengths, {});
  for (int32_t k = 0; k < 6; ++k) EXPECT_EQ(cc.clocks.row({0, k})[0], k);
}

TEST(ClockMatrix, NoMessagesStaysLocal) {
  const std::vector<int32_t> lengths{3, 4, 2};
  ClockComputation cc = compute_state_clocks(lengths, {});
  ASSERT_TRUE(cc.acyclic);
  expect_matches_reference(cc.clocks, lengths, {});
  for (ProcessId p = 0; p < 3; ++p)
    for (int32_t k = 0; k < lengths[static_cast<size_t>(p)]; ++k)
      for (ProcessId i = 0; i < 3; ++i)
        EXPECT_EQ(cc.clocks.row({p, k})[i], i == p ? k : VectorClock::kNone);
}

TEST(ClockMatrix, MatchesReferenceOnRandomTraces) {
  Rng rng(20240807);
  for (int trial = 0; trial < 40; ++trial) {
    RandomTraceOptions options;
    options.num_processes = 2 + trial % 5;
    options.events_per_process = 4 + trial % 13;
    options.send_probability = 0.1 + 0.05 * (trial % 7);
    const Deposet d = random_deposet(options, rng);
    expect_matches_reference(d.clocks(), d.lengths(), d.messages());
  }
}

// --- AppendableClockMatrix ---------------------------------------------------

// Replays a deposet state-by-state in a causally valid round-robin order,
// growing an appendable matrix exactly as the online runtime does: received
// rows are views into the matrix itself (a receive is ready only once the
// sender's row has been appended), the predecessor merge is implicit in
// append_row.
AppendableClockMatrix replay_appendable(const Deposet& d, int32_t rows_per_chunk) {
  AppendableClockMatrix m(d.num_processes(), rows_per_chunk);
  bool progress = true;
  while (progress) {
    progress = false;
    for (ProcessId p = 0; p < d.num_processes(); ++p) {
      while (m.length(p) < d.length(p)) {
        const StateId s{p, m.length(p)};
        std::vector<ClockRow> received;
        bool ready = true;
        for (const MessageEdge& e : d.messages_to(s)) {
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
  return m;
}

TEST(AppendableClockMatrix, InitialRowIsOwnZeroRestNone) {
  AppendableClockMatrix m(3);
  const ClockRow r = m.append_row(1);
  EXPECT_EQ(m.length(1), 1);
  EXPECT_EQ(r[0], VectorClock::kNone);
  EXPECT_EQ(r[1], 0);
  EXPECT_EQ(r[2], VectorClock::kNone);
}

TEST(AppendableClockMatrix, AppendMergesPredecessorAndReceived) {
  AppendableClockMatrix m(2);
  const ClockRow a0 = m.append_row(0);  // (-1 -> 0, kNone)
  m.append_row(0);                      // (1, kNone)
  const ClockRow b0 = m.append_row(1, std::vector<ClockRow>{a0});
  EXPECT_EQ(b0[0], 0);
  EXPECT_EQ(b0[1], 0);
  // Second state of p1 receives p0's newest row: pred merge keeps [0]=0,
  // received lifts it to 1, own component advances to 1.
  const ClockRow b1 = m.append_row(1, std::vector<ClockRow>{m.row({0, 1})});
  EXPECT_EQ(b1[0], 1);
  EXPECT_EQ(b1[1], 1);
  EXPECT_EQ(m.total_states(), 4);
}

TEST(AppendableClockMatrix, AppendMatchesBatchOnRandomTraces) {
  Rng rng(424207);
  for (int trial = 0; trial < 40; ++trial) {
    RandomTraceOptions options;
    options.num_processes = 2 + trial % 6;
    options.events_per_process = 3 + trial % 17;
    options.send_probability = 0.1 + 0.05 * (trial % 8);
    const Deposet d = random_deposet(options, rng);
    // Vary the chunk size so appends cross chunk boundaries at different
    // offsets; parity with the batch slab must hold regardless.
    const int32_t rows_per_chunk = 1 + trial % 7;
    const AppendableClockMatrix m = replay_appendable(d, rows_per_chunk);
    ASSERT_EQ(m.total_states(), d.clocks().total_states()) << "trial " << trial;
    EXPECT_EQ(m, d.clocks()) << "trial " << trial
                             << " rows_per_chunk " << rows_per_chunk;
  }
}

TEST(AppendableClockMatrix, ChunkBoundaryRowsAreExact) {
  Rng rng(99);
  RandomTraceOptions options;
  options.num_processes = 4;
  options.events_per_process = 25;
  options.send_probability = 0.35;
  const Deposet d = random_deposet(options, rng);
  // rows_per_chunk = 1 allocates a chunk per append (every row is both the
  // first and last of its chunk); 2 and 3 alternate boundary phases.
  for (int32_t rows_per_chunk : {1, 2, 3}) {
    const AppendableClockMatrix m = replay_appendable(d, rows_per_chunk);
    EXPECT_EQ(m, d.clocks()) << "rows_per_chunk " << rows_per_chunk;
  }
}

TEST(AppendableClockMatrix, HandlesStayStableAcrossGrowth) {
  // Appending must never move an existing row: views (and raw pointers)
  // handed out early stay valid and unchanged across many chunk
  // allocations -- this is what lets the runtime and the WCP detector keep
  // ClockRow handles instead of copies.
  AppendableClockMatrix m(2, /*rows_per_chunk=*/2);
  std::vector<const int32_t*> data_ptrs;
  std::vector<std::vector<int32_t>> snapshots;
  for (int32_t k = 0; k < 64; ++k) {
    const ClockRow r = m.append_row(0);
    data_ptrs.push_back(r.data());
    snapshots.emplace_back(r.data(), r.data() + r.size());
  }
  for (int32_t k = 0; k < 64; ++k) {
    EXPECT_EQ(m.row_data({0, k}), data_ptrs[static_cast<size_t>(k)])
        << "row " << k << " moved";
    const auto& snap = snapshots[static_cast<size_t>(k)];
    EXPECT_EQ(m.row({0, k}), ClockRow(snap.data(), static_cast<int32_t>(snap.size())))
        << "row " << k << " changed";
  }
}

TEST(AppendableClockMatrix, AppendRowCopyIsVerbatim) {
  AppendableClockMatrix m(3, /*rows_per_chunk=*/1);
  const std::vector<int32_t> wire{4, VectorClock::kNone, 7};
  const ClockRow r = m.append_row_copy(2, wire.data());
  EXPECT_EQ(m.length(2), 1);
  EXPECT_EQ(r[0], 4);
  EXPECT_EQ(r[1], VectorClock::kNone);
  EXPECT_EQ(r[2], 7);
  // A second verbatim row lands in a fresh chunk; the first is untouched.
  const std::vector<int32_t> wire2{5, 1, 8};
  m.append_row_copy(2, wire2.data());
  EXPECT_EQ(m.component({2, 0}, 0), 4);
  EXPECT_EQ(m.component({2, 1}, 0), 5);
}

TEST(AppendableClockMatrix, ToMatrixRoundTrip) {
  Rng rng(55);
  RandomTraceOptions options;
  options.num_processes = 5;
  options.events_per_process = 12;
  options.send_probability = 0.3;
  const Deposet d = random_deposet(options, rng);
  const AppendableClockMatrix m = replay_appendable(d, 3);
  const ClockMatrix compact = m.to_matrix();
  EXPECT_EQ(compact, d.clocks());
  EXPECT_EQ(m, compact);
  expect_matches_reference(compact, d.lengths(), d.messages());
}

TEST(AppendableClockMatrix, DeepCopyIsIndependent) {
  AppendableClockMatrix m(2, /*rows_per_chunk=*/2);
  m.append_row(0);
  m.append_row(0);
  const AppendableClockMatrix copy = m;
  // Fresh arena: same values, different storage.
  EXPECT_EQ(copy.total_states(), 2);
  EXPECT_NE(copy.row_data({0, 0}), m.row_data({0, 0}));
  EXPECT_EQ(copy.row({0, 1}), m.row({0, 1}));
  // Growing the original leaves the copy untouched.
  m.append_row(0);
  m.append_row(1);
  EXPECT_EQ(copy.length(0), 2);
  EXPECT_EQ(copy.length(1), 0);
}

TEST(AppendableClockMatrix, EmptyAndShape) {
  AppendableClockMatrix m(4, 8);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.num_processes(), 4);
  EXPECT_EQ(m.rows_per_chunk(), 8);
  EXPECT_EQ(m.total_states(), 0);
  m.append_row(3);
  EXPECT_FALSE(m.empty());
}

// --- CsrEdgeIndex round-trips ------------------------------------------------

std::vector<MessageEdge> sorted(std::span<const MessageEdge> edges) {
  std::vector<MessageEdge> out(edges.begin(), edges.end());
  std::sort(out.begin(), out.end());
  return out;
}

void expect_csr_roundtrip(const Deposet& d) {
  std::vector<MessageEdge> from_out;
  std::vector<MessageEdge> from_in;
  for (ProcessId p = 0; p < d.num_processes(); ++p) {
    const auto by_proc_out = d.messages_from(p);
    const auto by_proc_in = d.messages_to(p);
    from_out.insert(from_out.end(), by_proc_out.begin(), by_proc_out.end());
    from_in.insert(from_in.end(), by_proc_in.begin(), by_proc_in.end());

    // Per-state spans partition the per-process span, in index order.
    size_t out_seen = 0;
    size_t in_seen = 0;
    int32_t last_out = -1;
    int32_t last_in = -1;
    for (int32_t k = 0; k < d.length(p); ++k) {
      for (const MessageEdge& m : d.messages_from(StateId{p, k})) {
        EXPECT_EQ(m.from, (StateId{p, k}));
        EXPECT_LE(last_out, m.from.index);
        last_out = m.from.index;
        ++out_seen;
      }
      for (const MessageEdge& m : d.messages_to(StateId{p, k})) {
        EXPECT_EQ(m.to, (StateId{p, k}));
        EXPECT_LE(last_in, m.to.index);
        last_in = m.to.index;
        ++in_seen;
      }
    }
    EXPECT_EQ(out_seen, by_proc_out.size());
    EXPECT_EQ(in_seen, by_proc_in.size());
  }
  // Both groupings carry exactly the deposet's message multiset.
  EXPECT_EQ(sorted(from_out), sorted(d.messages()));
  EXPECT_EQ(sorted(from_in), sorted(d.messages()));
}

TEST(CsrEdgeIndex, RoundTripsRandomTraces) {
  Rng rng(31337);
  for (int trial = 0; trial < 25; ++trial) {
    RandomTraceOptions options;
    options.num_processes = 2 + trial % 6;
    options.events_per_process = 5 + trial % 20;
    options.send_probability = 0.3;
    expect_csr_roundtrip(random_deposet(options, rng));
  }
}

TEST(CsrEdgeIndex, NoMessages) {
  DeposetBuilder b(3);
  for (ProcessId p = 0; p < 3; ++p) b.set_length(p, 4);
  const Deposet d = b.build();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_TRUE(d.messages_from(p).empty());
    EXPECT_TRUE(d.messages_to(p).empty());
    for (int32_t k = 0; k < 4; ++k) {
      EXPECT_TRUE(d.messages_from(StateId{p, k}).empty());
      EXPECT_TRUE(d.messages_to(StateId{p, k}).empty());
    }
  }
}

TEST(CsrEdgeIndex, RejectsInvalidEdges) {
  const std::vector<int32_t> lengths{2, 2};
  // Each list holds ONE edge: a bare braced list would bind to the span as
  // an array of two half-initialized edges.
  using Edges = std::vector<CausalEdge>;
  EXPECT_THROW(CsrEdgeIndex(lengths, Edges{{{0, 0}, {0, 1}}}), std::invalid_argument);
  EXPECT_THROW(CsrEdgeIndex(lengths, Edges{{{0, 5}, {1, 1}}}), std::invalid_argument);
  EXPECT_THROW(CsrEdgeIndex(lengths, Edges{{{0, 0}, {3, 1}}}), std::invalid_argument);
}

}  // namespace
}  // namespace predctrl
