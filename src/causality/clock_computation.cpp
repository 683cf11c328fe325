#include "causality/clock_computation.hpp"

#include <cstddef>
#include <queue>

#include "causality/edge_index.hpp"
#include "util/check.hpp"

namespace predctrl {

// Kahn's algorithm, merges pushed to successors. All clock rows live in the
// result's ClockMatrix slab; the cross-edge adjacency is a CSR index
// (causality/edge_index.hpp), so the whole computation performs O(1)
// allocations instead of one per state.
ClockComputation compute_state_clocks(const std::vector<int32_t>& lengths,
                                      std::span<const CausalEdge> edges) {
  const int32_t n = static_cast<int32_t>(lengths.size());
  for (int32_t len : lengths) PREDCTRL_CHECK(len >= 1, "process with no states");

  const CsrEdgeIndex csr(lengths, edges);  // validates every edge

  ClockComputation result;
  result.clocks = ClockMatrix(lengths);
  ClockMatrix& clocks = result.clocks;
  const size_t total = static_cast<size_t>(clocks.total_states());

  // Kahn's algorithm over the union of chain and cross edges. A state's
  // chain predecessor counts one extra unit of indegree (except index 0).
  std::vector<int32_t> pending(total);
  std::queue<StateId> ready;
  for (ProcessId p = 0; p < n; ++p) {
    for (int32_t k = 0; k < lengths[static_cast<size_t>(p)]; ++k) {
      const StateId s{p, k};
      pending[clocks.flat_index(s)] =
          static_cast<int32_t>(csr.in_of_state(s).size()) + (k > 0 ? 1 : 0);
      if (pending[clocks.flat_index(s)] == 0) ready.push(s);
    }
  }

  size_t processed = 0;
  auto release = [&](StateId s) {
    if (--pending[clocks.flat_index(s)] == 0) ready.push(s);
  };

  while (!ready.empty()) {
    const StateId s = ready.front();
    ready.pop();
    ++processed;

    int32_t* row = clocks.mutable_row(s);
    if (s.index > 0) clock_row_merge(row, clocks.row_data({s.process, s.index - 1}), n);
    row[s.process] = s.index;

    if (s.index + 1 < lengths[static_cast<size_t>(s.process)])
      release({s.process, s.index + 1});
    for (const CausalEdge& e : csr.out_of_state(s)) {
      clock_row_merge(clocks.mutable_row(e.to), row, n);
      release(e.to);
    }
  }

  result.acyclic = (processed == total);
  if (!result.acyclic) result.clocks.clear();
  return result;
}

bool event_order_acyclic(const std::vector<int32_t>& lengths,
                         std::span<const CausalEdge> edges) {
  const int32_t n = static_cast<int32_t>(lengths.size());

  // Event k of process p takes state (p, k) to (p, k+1); process p has
  // lengths[p] - 1 events.
  std::vector<size_t> offsets(lengths.size() + 1, 0);
  for (size_t p = 0; p < lengths.size(); ++p) {
    PREDCTRL_CHECK(lengths[p] >= 1, "process with no states");
    offsets[p + 1] = offsets[p] + static_cast<size_t>(lengths[p] - 1);
  }
  const size_t total = offsets.back();
  auto flat = [&](ProcessId p, int32_t e) {
    return offsets[static_cast<size_t>(p)] + static_cast<size_t>(e);
  };

  std::vector<std::vector<size_t>> out(total);
  std::vector<int32_t> pending(total, 0);
  for (const CausalEdge& e : edges) {
    PREDCTRL_CHECK(e.from.process >= 0 && e.from.process < n && e.to.process >= 0 &&
                       e.to.process < n,
                   "edge process out of range");
    PREDCTRL_CHECK(e.from.index >= 0 &&
                       e.from.index < lengths[static_cast<size_t>(e.from.process)] &&
                       e.to.index >= 0 &&
                       e.to.index < lengths[static_cast<size_t>(e.to.process)],
                   "edge state out of range");
    // Exit of a final state never happens; entry of an initial state cannot
    // wait on anything.
    if (e.from.index >= lengths[static_cast<size_t>(e.from.process)] - 1) return false;
    if (e.to.index == 0) return false;
    out[flat(e.from.process, e.from.index)].push_back(flat(e.to.process, e.to.index - 1));
    ++pending[flat(e.to.process, e.to.index - 1)];
  }

  std::vector<size_t> ready;
  for (ProcessId p = 0; p < n; ++p)
    for (int32_t e = 0; e < lengths[static_cast<size_t>(p)] - 1; ++e) {
      pending[flat(p, e)] += (e > 0 ? 1 : 0);
      if (pending[flat(p, e)] == 0) ready.push_back(flat(p, e));
    }

  // Kahn over events; chain successors are implicit.
  std::vector<int32_t> next_in_chain(total, -1);
  for (ProcessId p = 0; p < n; ++p)
    for (int32_t e = 0; e + 1 < lengths[static_cast<size_t>(p)] - 1; ++e)
      next_in_chain[flat(p, e)] = static_cast<int32_t>(flat(p, e + 1));

  size_t processed = 0;
  while (!ready.empty()) {
    size_t ev = ready.back();
    ready.pop_back();
    ++processed;
    if (next_in_chain[ev] >= 0 && --pending[static_cast<size_t>(next_in_chain[ev])] == 0)
      ready.push_back(static_cast<size_t>(next_in_chain[ev]));
    for (size_t succ : out[ev])
      if (--pending[succ] == 0) ready.push_back(succ);
  }
  return processed == total;
}

}  // namespace predctrl
