#include "slice/slicer.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace predctrl {

namespace {

// Preprocessed form of one RegularBranch against a concrete deposet.
struct BranchTables {
  // next_true[p][k]: smallest index >= k where the branch's row for p is
  // true, or length(p) when there is none. Makes the row-repair step O(1)
  // per advance.
  std::vector<std::vector<int32_t>> next_true;
  std::vector<ChannelAtMost> channels;
  // Per channel constraint: its messages sorted by receive index, so the
  // in-transit scan visits candidates in the order a receiver drains them.
  std::vector<std::vector<MessageEdge>> channel_msgs;
};

BranchTables prepare_branch(const Deposet& d, const RegularBranch& branch) {
  BranchTables bt;
  const int32_t n = d.num_processes();
  bt.next_true.resize(static_cast<size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    const int32_t len = d.length(p);
    const auto& row = branch.rows[static_cast<size_t>(p)];
    auto& nt = bt.next_true[static_cast<size_t>(p)];
    nt.assign(static_cast<size_t>(len) + 1, len);
    for (int32_t k = len - 1; k >= 0; --k)
      nt[static_cast<size_t>(k)] =
          row[static_cast<size_t>(k)] ? k : nt[static_cast<size_t>(k) + 1];
  }
  bt.channels = branch.channels;
  for (const ChannelAtMost& ch : branch.channels) {
    std::vector<MessageEdge> msgs;
    for (const MessageEdge& m : d.messages_from(ch.from))
      if (m.to.process == ch.to) msgs.push_back(m);
    std::sort(msgs.begin(), msgs.end(),
              [](const MessageEdge& a, const MessageEdge& b) {
                return a.to.index != b.to.index ? a.to.index < b.to.index : a < b;
              });
    bt.channel_msgs.push_back(std::move(msgs));
  }
  return bt;
}

// The forced-advance fixpoint for one branch from one seed. Returns false
// when the fixpoint overflows a process (no satisfying cut above the seed).
// `advances` accumulates the number of forced advances performed.
bool j_fixpoint(const Deposet& d, const BranchTables& bt, StateId seed, Cut& c,
                int64_t& advances) {
  const int32_t n = d.num_processes();
  c = Cut(n);
  c[seed.process] = seed.index;

  bool changed = true;
  while (changed) {
    changed = false;

    // (a) Local-row repair: every satisfying cut has row_p[c[p]] true, and
    // rows only constrain the component they name, so jumping to the next
    // true index is forced.
    for (ProcessId p = 0; p < n; ++p) {
      const int32_t nt = bt.next_true[static_cast<size_t>(p)][static_cast<size_t>(c[p])];
      if (nt != c[p]) {
        if (nt >= d.length(p)) return false;
        c[p] = nt;
        ++advances;
        changed = true;
      }
    }

    // (b) Consistency repair: clock((j, c[j]))[i] >= c[i] means state
    // (i, c[i]) has causally finished before (j, c[j]) -- every consistent
    // cut above c must push i past the clock component.
    for (ProcessId j = 0; j < n; ++j) {
      const ClockRow vc = d.clock({j, c[j]});
      for (ProcessId i = 0; i < n; ++i) {
        if (i == j || vc[i] < c[i]) continue;
        const int32_t target = vc[i] + 1;
        if (target >= d.length(i)) return false;
        c[i] = target;
        ++advances;
        changed = true;
      }
    }

    // (c) Channel repair: with more than `limit` messages in transit, the
    // receiver must at least drain the oldest excess -- receives are a
    // prefix in receive-index order, so the advance target is unique.
    for (size_t ci = 0; ci < bt.channels.size(); ++ci) {
      const ChannelAtMost& ch = bt.channels[ci];
      int32_t in_transit = 0;
      for (const MessageEdge& m : bt.channel_msgs[ci])
        if (c[ch.from] > m.from.index && c[ch.to] < m.to.index) ++in_transit;
      if (in_transit > ch.limit) {
        int32_t drain_to = -1;  // receive index clearing the excess
        // Receiving through the (excess)-th oldest in-transit message
        // leaves exactly `limit` behind it still in flight.
        const int32_t excess = in_transit - ch.limit;
        int32_t seen = 0;
        for (const MessageEdge& m : bt.channel_msgs[ci]) {
          if (c[ch.from] > m.from.index && c[ch.to] < m.to.index && ++seen == excess) {
            drain_to = m.to.index;
            break;
          }
        }
        PREDCTRL_REQUIRE(drain_to > c[ch.to], "channel drain must advance the receiver");
        c[ch.to] = drain_to;  // receive index <= length - 1, always in range
        ++advances;
        changed = true;
      }
    }
  }
  return true;
}

// Iterative Tarjan SCC over an explicit adjacency list. Returns the
// component id of every node.
std::vector<int32_t> strongly_connected_components(
    const std::vector<std::vector<int64_t>>& adj) {
  const int64_t total = static_cast<int64_t>(adj.size());

  std::vector<int32_t> comp(static_cast<size_t>(total), -1);
  std::vector<int32_t> low(static_cast<size_t>(total), 0);
  std::vector<int32_t> disc(static_cast<size_t>(total), -1);
  std::vector<int64_t> scc_stack;
  std::vector<uint8_t> on_stack(static_cast<size_t>(total), 0);
  int32_t timer = 0;
  int32_t comps = 0;

  // Explicit DFS frame: node + progress through its successor list.
  struct Frame {
    int64_t node;
    size_t cursor;
  };

  auto successors = [&](int64_t f, size_t cursor) -> std::optional<int64_t> {
    const auto& out = adj[static_cast<size_t>(f)];
    if (cursor < out.size()) return out[cursor];
    return std::nullopt;
  };

  std::vector<Frame> stack;
  for (int64_t root = 0; root < total; ++root) {
    if (disc[static_cast<size_t>(root)] != -1) continue;
    stack.push_back({root, 0});
    disc[static_cast<size_t>(root)] = low[static_cast<size_t>(root)] = timer++;
    scc_stack.push_back(root);
    on_stack[static_cast<size_t>(root)] = 1;
    while (!stack.empty()) {
      Frame& fr = stack.back();
      if (auto next = successors(fr.node, fr.cursor)) {
        ++fr.cursor;
        const auto w = static_cast<size_t>(*next);
        if (disc[w] == -1) {
          disc[w] = low[w] = timer++;
          scc_stack.push_back(*next);
          on_stack[w] = 1;
          stack.push_back({*next, 0});
        } else if (on_stack[w]) {
          low[static_cast<size_t>(fr.node)] =
              std::min(low[static_cast<size_t>(fr.node)], disc[w]);
        }
      } else {
        const int64_t node = fr.node;
        const auto v = static_cast<size_t>(node);
        stack.pop_back();
        if (!stack.empty()) {
          const auto parent = static_cast<size_t>(stack.back().node);
          low[parent] = std::min(low[parent], low[v]);
        }
        if (low[v] == disc[v]) {
          while (true) {
            const int64_t w = scc_stack.back();
            scc_stack.pop_back();
            on_stack[static_cast<size_t>(w)] = 0;
            comp[static_cast<size_t>(w)] = comps;
            if (w == node) break;
          }
          ++comps;
        }
      }
    }
  }
  return comp;
}

}  // namespace

StateId Slice::gap() const {
  PREDCTRL_REQUIRE(gap_.has_value(), "gap() on a gap-free slice");
  return *gap_;
}

const Deposet& Slice::deposet() const {
  PREDCTRL_REQUIRE(!gap_.has_value(), "the slice is empty (predicate has a gap state)");
  return sliced_;
}

std::optional<Cut> Slice::j(StateId s) const {
  const ClockRow row = j_.row(s);
  if (row[0] == VectorClock::kNone) return std::nullopt;
  Cut c(row.size());
  for (ProcessId p = 0; p < row.size(); ++p) c[p] = row[p];
  return c;
}

Slice compute_slice(const Deposet& deposet, const RegularPredicate& b) {
  const int32_t n = deposet.num_processes();
  const int64_t total = deposet.total_states();

  Slice slice;
  slice.lengths_ = deposet.lengths();
  slice.j_ = ClockMatrix(deposet.lengths());
  slice.stats_.states_total = total;

  const std::vector<RegularBranch> branches = b.branches(deposet);
  std::vector<BranchTables> tables;
  tables.reserve(branches.size());
  for (const RegularBranch& branch : branches) tables.push_back(prepare_branch(deposet, branch));

  // Flat indexing over states, rows in (process, index) order.
  std::vector<int64_t> offset(static_cast<size_t>(n) + 1, 0);
  for (ProcessId p = 0; p < n; ++p)
    offset[static_cast<size_t>(p) + 1] = offset[static_cast<size_t>(p)] + deposet.length(p);
  auto unflat = [&](int64_t f) {
    ProcessId p = 0;
    while (p + 1 < n && offset[static_cast<size_t>(p) + 1] <= f) ++p;
    return StateId{p, static_cast<int32_t>(f - offset[static_cast<size_t>(p)])};
  };

  // Per-state J fixpoints: independent work, one J row each.
  Cut branch_cut;
  for (int64_t f = 0; f < total; ++f) {
    const StateId s = unflat(f);
    bool any = false;
    Cut best;
    for (const BranchTables& bt : tables) {
      if (!j_fixpoint(deposet, bt, s, branch_cut, slice.stats_.fixpoint_advances)) continue;
      best = any ? best.meet(branch_cut) : branch_cut;
      any = true;
    }
    if (!any) continue;  // gap: row stays kNone
    int32_t* row = slice.j_.mutable_row(s);
    for (ProcessId p = 0; p < n; ++p) row[p] = best[p];
  }

  // Gap states, first one in (process, index) order remembered.
  for (int64_t f = 0; f < total; ++f) {
    const StateId s = unflat(f);
    if (slice.j_.row(s)[0] == VectorClock::kNone) {
      if (!slice.gap_) slice.gap_ = s;
      ++slice.stats_.gap_states;
    }
  }
  if (slice.gap_) return slice;

  // Candidate constraint edges. For state (p, k >= 1) and q != p, the
  // constraint c[p] >= k => c[q] >= J((p,k))[q] becomes the edge
  // {(q, J[q]-1), (p, k)}. Skip what causality already implies
  // (J[q] <= clock((p,k))[q] + 1) and what the edge emitted for a smaller
  // k of the same process already enforces (J monotone in k).
  std::vector<MessageEdge> candidates;
  std::vector<int32_t> covered(static_cast<size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    std::fill(covered.begin(), covered.end(), 0);
    for (int32_t k = 1; k < deposet.length(p); ++k) {
      const StateId s{p, k};
      const ClockRow jrow = slice.j_.row(s);
      const ClockRow crow = deposet.clock(s);
      for (ProcessId q = 0; q < n; ++q) {
        if (q == p) continue;
        const int32_t need = jrow[q];
        if (need <= covered[static_cast<size_t>(q)] || need <= crow[q] + 1) continue;
        candidates.push_back({StateId{q, need - 1}, s});
        covered[static_cast<size_t>(q)] = need;
      }
    }
  }

  // Meta-events: mutually-forcing constraints make the EVENT graph cyclic.
  // (The event graph is the right place to look: an edge {f, t} orders
  // event (f.process, f.index) before event (t.process, t.index - 1), and
  // constraints that are acyclic over states can still be cyclic over
  // events -- such a cycle forces a group of events to enter every cut
  // together, which a deposet cannot express and a single-advance search
  // cannot traverse.) A deposet cannot merge events, so interior edges of
  // every SCC are dropped; the lattice stays a superset of the satisfying
  // cuts, and the remaining event graph is acyclic (a leftover cycle would
  // sit inside one SCC and consist of chain/message edges only, which are
  // acyclic in any valid deposet). Acyclicity of the event graph is what
  // keeps every slice-consistent cut reachable by single advances.
  std::vector<int64_t> ev_offset(static_cast<size_t>(n) + 1, 0);
  for (ProcessId p = 0; p < n; ++p)
    ev_offset[static_cast<size_t>(p) + 1] =
        ev_offset[static_cast<size_t>(p)] + std::max(0, deposet.length(p) - 1);
  auto ev_flat = [&](ProcessId p, int32_t i) { return ev_offset[static_cast<size_t>(p)] + i; };
  std::vector<std::vector<int64_t>> adj(static_cast<size_t>(ev_offset[static_cast<size_t>(n)]));
  for (ProcessId p = 0; p < n; ++p)
    for (int32_t i = 0; i + 1 < deposet.length(p) - 1; ++i)
      adj[static_cast<size_t>(ev_flat(p, i))].push_back(ev_flat(p, i + 1));
  auto add_event_edge = [&](const MessageEdge& e) {
    adj[static_cast<size_t>(ev_flat(e.from.process, e.from.index))].push_back(
        ev_flat(e.to.process, e.to.index - 1));
  };
  for (const MessageEdge& m : deposet.messages()) add_event_edge(m);
  for (const MessageEdge& e : candidates) add_event_edge(e);
  const std::vector<int32_t> comp = strongly_connected_components(adj);

  std::vector<int64_t> comp_size(comp.size(), 0);
  for (int32_t c : comp) ++comp_size[static_cast<size_t>(c)];
  for (size_t c = 0; c < comp_size.size(); ++c)
    if (comp_size[c] > 1) ++slice.stats_.meta_events;

  DeposetBuilder builder(n);
  for (ProcessId p = 0; p < n; ++p) builder.set_length(p, deposet.length(p));
  for (const MessageEdge& m : deposet.messages()) builder.add_message(m.from, m.to);
  for (const MessageEdge& e : candidates) {
    if (comp[static_cast<size_t>(ev_flat(e.from.process, e.from.index))] ==
        comp[static_cast<size_t>(ev_flat(e.to.process, e.to.index - 1))]) {
      ++slice.stats_.edges_dropped_cyclic;
      continue;
    }
    builder.add_message(e.from, e.to);
    slice.added_edges_.push_back(e);
    ++slice.stats_.edges_added;
  }
  slice.sliced_ = builder.build_extended();
  return slice;
}

std::optional<Cut> least_satisfying_cut(const Deposet& deposet, const RegularPredicate& b) {
  std::optional<Cut> best;
  int64_t advances = 0;
  Cut c;
  for (const RegularBranch& branch : b.branches(deposet)) {
    const BranchTables bt = prepare_branch(deposet, branch);
    if (!j_fixpoint(deposet, bt, {0, 0}, c, advances)) continue;
    if (!best || c.leq(*best)) best = c;
  }
  return best;
}

}  // namespace predctrl
