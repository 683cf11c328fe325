// Plain-text (de)serialization of deposets and predicate tables.
//
// Format (whitespace-separated, line-oriented, `#` comments):
//
//   deposet <num_processes>
//   lengths <len_0> ... <len_{n-1}>
//   msg <from_process> <from_index> <to_process> <to_index>   (repeated)
//   end
//
//   predicate <num_processes>
//   row <len> <0/1> ... <0/1>                                  (one per process)
//   end
//
// Every integer is a whole base-10 token (an optional `-`, then digits,
// nothing after them), and the per-process fields -- lengths and message
// endpoints -- must lie within int32. Anything else is rejected with
// std::invalid_argument. A `#` at the start of a token comments out the
// rest of its line. A reader stops right after its `end` token.
//
// Intended for saving interesting traces from the simulator and replaying
// them through the offline tooling (and for human inspection in bug
// reports).
#pragma once

#include <iosfwd>
#include <string>

#include "trace/deposet.hpp"
#include "trace/random_trace.hpp"

namespace predctrl {

void write_deposet(std::ostream& os, const Deposet& deposet);
Deposet read_deposet(std::istream& is);

void write_predicate_table(std::ostream& os, const PredicateTable& table);
PredicateTable read_predicate_table(std::istream& is);

std::string deposet_to_string(const Deposet& deposet);
Deposet deposet_from_string(const std::string& text);

}  // namespace predctrl
