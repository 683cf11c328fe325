#include "predicates/regular.hpp"

#include <algorithm>
#include <set>

#include "util/check.hpp"

namespace predctrl {

namespace {

// Three-valued (Kleene) logic for the per-process projection.
enum class Tri : uint8_t { kFalse, kTrue, kUnknown };

// Evaluates a single kLocal leaf at state (leaf.process(), k) through the
// public eval interface: all other components of the probe cut are ignored
// because the leaf reads only its own process.
bool eval_leaf(const GlobalPredicate& leaf, int32_t n, int32_t k) {
  Cut probe(n);
  probe[leaf.process()] = k;
  return leaf.eval(probe);
}

void collect_processes(const GlobalPredicate& b, std::set<ProcessId>& out) {
  if (b.kind() == GlobalPredicate::Kind::kLocal) {
    out.insert(b.process());
    return;
  }
  for (const auto& child : b.children()) collect_processes(*child, out);
}

// Kleene evaluation of b (negated when `neg`) with process-p leaves bound to
// state index k and every other process unknown.
Tri tri_eval(const GlobalPredicate& b, bool neg, ProcessId p, int32_t k, int32_t n) {
  using Kind = GlobalPredicate::Kind;
  switch (b.kind()) {
    case Kind::kConst: {
      Cut probe(n);
      return (b.eval(probe) != neg) ? Tri::kTrue : Tri::kFalse;
    }
    case Kind::kLocal:
      if (b.process() != p) return Tri::kUnknown;
      return (eval_leaf(b, n, k) != neg) ? Tri::kTrue : Tri::kFalse;
    case Kind::kNot:
      return tri_eval(*b.children()[0], !neg, p, k, n);
    case Kind::kAnd:
    case Kind::kOr: {
      // Under negation an AND behaves as an OR of negated children and
      // vice versa (De Morgan); `conjunctive` selects the Kleene combiner.
      const bool conjunctive = (b.kind() == Kind::kAnd) != neg;
      Tri acc = conjunctive ? Tri::kTrue : Tri::kFalse;
      for (const auto& child : b.children()) {
        Tri t = tri_eval(*child, neg, p, k, n);
        if (conjunctive) {
          if (t == Tri::kFalse) return Tri::kFalse;
          if (t == Tri::kUnknown) acc = Tri::kUnknown;
        } else {
          if (t == Tri::kTrue) return Tri::kTrue;
          if (t == Tri::kUnknown) acc = Tri::kUnknown;
        }
      }
      return acc;
    }
  }
  return Tri::kUnknown;
}

bool is_regular_impl(const GlobalPredicate& b, bool neg) {
  std::set<ProcessId> procs;
  collect_processes(b, procs);
  if (procs.size() <= 1) return true;  // single-process: an exact truth row

  using Kind = GlobalPredicate::Kind;
  switch (b.kind()) {
    case Kind::kConst:
    case Kind::kLocal:
      return true;
    case Kind::kNot:
      return is_regular_impl(*b.children()[0], !neg);
    case Kind::kAnd:
    case Kind::kOr: {
      const bool conjunctive = (b.kind() == Kind::kAnd) != neg;
      if (!conjunctive) return false;  // multi-process disjunction
      return std::all_of(b.children().begin(), b.children().end(),
                         [&](const PredicatePtr& c) { return is_regular_impl(*c, neg); });
    }
  }
  return false;
}

// An always-false conjunctive predicate (all-false row on process 0), the
// regular representation of an unsatisfiable constraint.
RegularPredicate never(const Deposet& deposet) {
  PredicateTable rows(1);
  rows[0].assign(static_cast<size_t>(deposet.length(0)), false);
  return RegularPredicate::conjunctive(std::move(rows));
}

// Exact conjunctive form of a (possibly negated) expression whose leaves all
// live on one process: a single truth row.
RegularPredicate single_process_row(const GlobalPredicate& b, bool neg, const Deposet& deposet,
                                    const std::set<ProcessId>& procs) {
  const int32_t n = deposet.num_processes();
  if (procs.empty()) {
    // Constant expression.
    Cut probe(n);
    if (b.eval(probe) != neg) return RegularPredicate::conjunctive({});
    return never(deposet);
  }
  const ProcessId p = *procs.begin();
  PredicateTable rows(static_cast<size_t>(p) + 1);
  auto& row = rows[static_cast<size_t>(p)];
  row.resize(static_cast<size_t>(deposet.length(p)));
  for (int32_t k = 0; k < deposet.length(p); ++k) {
    Cut probe(n);
    probe[p] = k;
    row[static_cast<size_t>(k)] = (b.eval(probe) != neg);
  }
  return RegularPredicate::conjunctive(std::move(rows));
}

// Sound conjunctive fallback for a multi-process disjunction below a
// conjunction: per-process three-valued projection. row_p[k] is false only
// when the expression is definitely false given c[p] = k, so every
// b-satisfying cut passes every row.
RegularPredicate projection(const GlobalPredicate& b, bool neg, const Deposet& deposet) {
  const int32_t n = deposet.num_processes();
  PredicateTable rows(static_cast<size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    auto& row = rows[static_cast<size_t>(p)];
    row.resize(static_cast<size_t>(deposet.length(p)));
    for (int32_t k = 0; k < deposet.length(p); ++k)
      row[static_cast<size_t>(k)] = tri_eval(b, neg, p, k, n) != Tri::kFalse;
  }
  return RegularPredicate::conjunctive(std::move(rows));
}

struct Approx {
  RegularPredicate predicate;
  bool exact;
};

Approx approximate(const GlobalPredicate& b, bool neg, bool allow_join, const Deposet& deposet) {
  std::set<ProcessId> procs;
  collect_processes(b, procs);
  if (procs.size() <= 1) return {single_process_row(b, neg, deposet, procs), true};

  using Kind = GlobalPredicate::Kind;
  switch (b.kind()) {
    case Kind::kNot:
      return approximate(*b.children()[0], !neg, allow_join, deposet);
    case Kind::kAnd:
    case Kind::kOr: {
      const bool conjunctive = (b.kind() == Kind::kAnd) != neg;
      std::vector<RegularPredicate> parts;
      bool exact = true;
      if (conjunctive) {
        // Children of a conjunction must stay join-free (the slicer keeps
        // joins at the top level), so any disjunctive child degrades to its
        // projection.
        for (const auto& child : b.children()) {
          Approx a = approximate(*child, neg, /*allow_join=*/false, deposet);
          exact = exact && a.exact;
          parts.push_back(std::move(a.predicate));
        }
        return {RegularPredicate::conjunction(std::move(parts)), exact};
      }
      if (allow_join) {
        for (const auto& child : b.children()) {
          Approx a = approximate(*child, neg, /*allow_join=*/true, deposet);
          exact = exact && a.exact;
          parts.push_back(std::move(a.predicate));
        }
        return {RegularPredicate::join(std::move(parts)), exact};
      }
      return {projection(b, neg, deposet), false};
    }
    case Kind::kConst:
    case Kind::kLocal:
      break;  // multi-process leaves cannot occur
  }
  return {projection(b, neg, deposet), false};
}

}  // namespace

RegularPredicate RegularPredicate::conjunctive(PredicateTable rows) {
  RegularPredicate r;
  r.kind_ = Kind::kConjunctive;
  r.rows_ = std::move(rows);
  return r;
}

RegularPredicate RegularPredicate::channel_at_most(ProcessId from, ProcessId to, int32_t limit) {
  PREDCTRL_CHECK(from >= 0 && to >= 0 && from != to, "channel endpoints must be distinct processes");
  PREDCTRL_CHECK(limit >= 0, "channel limit must be non-negative");
  RegularPredicate r;
  r.kind_ = Kind::kChannelAtMost;
  r.channel_ = {from, to, limit};
  return r;
}

RegularPredicate RegularPredicate::conjunction(std::vector<RegularPredicate> children) {
  for (const RegularPredicate& c : children)
    PREDCTRL_CHECK(!c.contains_join(),
                   "conjunction children must be join-free (keep |_| at the top level)");
  RegularPredicate r;
  r.kind_ = Kind::kAnd;
  r.children_ = std::move(children);
  return r;
}

RegularPredicate RegularPredicate::join(std::vector<RegularPredicate> children) {
  PREDCTRL_CHECK(!children.empty(), "a join needs at least one branch");
  RegularPredicate r;
  r.kind_ = Kind::kJoin;
  for (RegularPredicate& c : children) {
    if (c.kind_ == Kind::kJoin) {
      for (RegularPredicate& g : c.children_) r.children_.push_back(std::move(g));
    } else {
      r.children_.push_back(std::move(c));
    }
  }
  return r;
}

bool RegularPredicate::contains_join() const {
  if (kind_ == Kind::kJoin) return true;
  return std::any_of(children_.begin(), children_.end(),
                     [](const RegularPredicate& c) { return c.contains_join(); });
}

int32_t messages_in_transit(const Deposet& deposet, ProcessId from, ProcessId to,
                            const Cut& cut) {
  int32_t count = 0;
  for (const MessageEdge& m : deposet.messages_from(from)) {
    if (m.to.process != to) continue;
    // Sent by event m.from.index (executed iff cut[from] > m.from.index),
    // received by event m.to.index - 1 (executed iff cut[to] >= m.to.index).
    if (cut[from] > m.from.index && cut[to] < m.to.index) ++count;
  }
  return count;
}

bool RegularPredicate::eval(const Deposet& deposet, const Cut& cut) const {
  switch (kind_) {
    case Kind::kConjunctive:
      for (size_t p = 0; p < rows_.size(); ++p) {
        const auto& row = rows_[p];
        const auto k = static_cast<size_t>(cut[static_cast<ProcessId>(p)]);
        // Entries beyond the row (and empty rows) read as true.
        if (k < row.size() && !row[k]) return false;
      }
      return true;
    case Kind::kChannelAtMost:
      return messages_in_transit(deposet, channel_.from, channel_.to, cut) <= channel_.limit;
    case Kind::kAnd:
      return std::all_of(children_.begin(), children_.end(),
                         [&](const RegularPredicate& c) { return c.eval(deposet, cut); });
    case Kind::kJoin:
      return std::any_of(children_.begin(), children_.end(),
                         [&](const RegularPredicate& c) { return c.eval(deposet, cut); });
  }
  return true;
}

void RegularPredicate::collect_into(const Deposet& deposet, RegularBranch& branch) const {
  switch (kind_) {
    case Kind::kConjunctive:
      for (size_t p = 0; p < rows_.size(); ++p) {
        if (rows_[p].empty()) continue;
        const auto len = static_cast<size_t>(deposet.length(static_cast<ProcessId>(p)));
        PREDCTRL_CHECK(rows_[p].size() <= len, "conjunctive row longer than the process");
        auto& dst = branch.rows[p];
        for (size_t k = 0; k < rows_[p].size(); ++k)
          dst[k] = dst[k] && rows_[p][k];
      }
      break;
    case Kind::kChannelAtMost:
      PREDCTRL_CHECK(channel_.from < deposet.num_processes() && channel_.to < deposet.num_processes(),
                     "channel endpoint out of range for this deposet");
      branch.channels.push_back(channel_);
      break;
    case Kind::kAnd:
      for (const RegularPredicate& c : children_) c.collect_into(deposet, branch);
      break;
    case Kind::kJoin:
      PREDCTRL_REQUIRE(false, "joins cannot occur below a conjunction");
  }
}

std::vector<RegularBranch> RegularPredicate::branches(const Deposet& deposet) const {
  auto fresh = [&deposet] {
    RegularBranch b;
    b.rows.resize(static_cast<size_t>(deposet.num_processes()));
    for (ProcessId p = 0; p < deposet.num_processes(); ++p)
      b.rows[static_cast<size_t>(p)].assign(static_cast<size_t>(deposet.length(p)), true);
    return b;
  };
  std::vector<RegularBranch> out;
  if (kind_ == Kind::kJoin) {
    for (const RegularPredicate& c : children_) {
      RegularBranch b = fresh();
      c.collect_into(deposet, b);
      out.push_back(std::move(b));
    }
  } else {
    RegularBranch b = fresh();
    collect_into(deposet, b);
    out.push_back(std::move(b));
  }
  return out;
}

bool is_regular(const GlobalPredicate& b) { return is_regular_impl(b, /*neg=*/false); }

RegularApproximation regular_approximation(const GlobalPredicate& b, const Deposet& deposet) {
  Approx a = approximate(b, /*neg=*/false, /*allow_join=*/true, deposet);
  return {std::move(a.predicate), a.exact};
}

}  // namespace predctrl
