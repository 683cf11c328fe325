#include "trace/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "trace/dot.hpp"
#include "trace/random_trace.hpp"

namespace predctrl {
namespace {

TEST(Serialize, RoundTripsDeposet) {
  Rng rng(42);
  RandomTraceOptions opt;
  opt.num_processes = 4;
  opt.events_per_process = 15;
  Deposet d = random_deposet(opt, rng);
  Deposet d2 = deposet_from_string(deposet_to_string(d));
  EXPECT_EQ(deposet_to_string(d), deposet_to_string(d2));
  EXPECT_EQ(d2.num_processes(), d.num_processes());
  EXPECT_EQ(d2.messages().size(), d.messages().size());
}

TEST(Serialize, RoundTripsPredicateTable) {
  Rng rng(42);
  Deposet d = random_deposet({}, rng);
  PredicateTable t = random_predicate_table(d, {}, rng);
  std::stringstream ss;
  write_predicate_table(ss, t);
  PredicateTable t2 = read_predicate_table(ss);
  EXPECT_EQ(t, t2);
}

TEST(Serialize, ParsesCommentsAndWhitespace) {
  std::string text =
      "# a comment line\n"
      "deposet 2\n"
      "lengths 3   3\n"
      "# messages follow\n"
      "msg 0 0 1 1\n"
      "end\n";
  Deposet d = deposet_from_string(text);
  EXPECT_EQ(d.num_processes(), 2);
  EXPECT_EQ(d.messages().size(), 1u);
  EXPECT_TRUE(d.precedes({0, 0}, {1, 1}));
}

TEST(Serialize, LeavesTheStreamJustPastEnd) {
  // A deposet and a predicate table back to back in one stream: each
  // reader stops right after its `end`, so the next one starts there.
  std::istringstream is(
      "deposet 2\nlengths 2 2\nmsg 0 0 1 1 # one message\nend\n"
      "predicate 2\nrow 2 1 0\nrow 2 1 1\nend\ntail");
  Deposet d = read_deposet(is);
  EXPECT_EQ(d.messages().size(), 1u);
  EXPECT_EQ(is.peek(), '\n');
  PredicateTable t = read_predicate_table(is);
  EXPECT_EQ(t, (PredicateTable{{true, false}, {true, true}}));
  std::string rest;
  is >> rest;
  EXPECT_EQ(rest, "tail");

  // An `end` that closes the input sets eofbit, as `is >> token` does.
  std::istringstream last("predicate 1\nrow 1 1\nend");
  read_predicate_table(last);
  EXPECT_TRUE(last.eof());
  EXPECT_FALSE(last.fail());
}

TEST(Serialize, RejectsGarbage) {
  EXPECT_THROW(deposet_from_string("depo 2"), std::invalid_argument);
  EXPECT_THROW(deposet_from_string("deposet x"), std::invalid_argument);
  EXPECT_THROW(deposet_from_string("deposet 2\nlengths 3 3\nmsg 0 0"),
               std::invalid_argument);
  // Structurally parsed but semantically invalid (D1).
  EXPECT_THROW(deposet_from_string("deposet 2\nlengths 3 3\nmsg 0 0 1 0\nend"),
               std::invalid_argument);
  // Integers are whole base-10 tokens, and per-process fields fit int32:
  // no truncation to 3, no trailing junk.
  EXPECT_THROW(deposet_from_string("deposet 2\nlengths 4294967299 3\nend"),
               std::invalid_argument);
  EXPECT_THROW(deposet_from_string("deposet 2\nlengths 3x 3\nend"), std::invalid_argument);
  EXPECT_THROW(deposet_from_string("deposet 2\nlengths 3 3\nmsg 0 1 1 2junk\nend"),
               std::invalid_argument);
  std::istringstream row("predicate 1\nrow 2 1 0x\nend");
  EXPECT_THROW(read_predicate_table(row), std::invalid_argument);
}

TEST(Dot, ContainsProcessesMessagesAndShading) {
  DeposetBuilder b(2);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.add_message({0, 0}, {1, 1});
  Deposet d = b.build();
  PredicateTable pred{{true, false, true}, {true, true, true}};
  DotOptions opt;
  opt.predicate = &pred;
  opt.control_edges = {{{1, 0}, {0, 2}}};
  std::string dot = to_dot(d, opt);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("s_0_0 -> s_1_1"), std::string::npos);  // message
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);    // control edge
  EXPECT_NE(dot.find("fillcolor=gray80"), std::string::npos);  // false state
}

}  // namespace
}  // namespace predctrl
