#include "trace/deposet.hpp"

#include <gtest/gtest.h>

#include <string>

namespace predctrl {
namespace {

// The context a PREDCTRL_CHECK failure carries: what() after " -- ".
template <typename Fn>
std::string check_context(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    const size_t at = what.find(" -- ");
    return at == std::string::npos ? what : what.substr(at + 4);
  }
  return "(no exception)";
}

// The paper's running shape: two processes exchanging one message each way.
Deposet ping_pong() {
  DeposetBuilder b(2);
  b.set_length(0, 4);
  b.set_length(1, 4);
  b.add_message({0, 0}, {1, 1});  // P0 event 0 -> P1 event 0
  b.add_message({1, 1}, {0, 2});  // P1 event 1 -> P0 event 1
  return b.build();
}

TEST(Deposet, BasicShape) {
  Deposet d = ping_pong();
  EXPECT_EQ(d.num_processes(), 2);
  EXPECT_EQ(d.length(0), 4);
  EXPECT_EQ(d.total_states(), 8);
  EXPECT_EQ(d.bottom(0), (StateId{0, 0}));
  EXPECT_EQ(d.top(1), (StateId{1, 3}));
  EXPECT_TRUE(d.is_bottom({0, 0}));
  EXPECT_TRUE(d.is_top({1, 3}));
  EXPECT_FALSE(d.is_top({1, 2}));
}

TEST(Deposet, LocalPrecedence) {
  Deposet d = ping_pong();
  EXPECT_TRUE(d.precedes({0, 0}, {0, 3}));
  EXPECT_TRUE(d.precedes_eq({0, 2}, {0, 2}));
  EXPECT_FALSE(d.precedes({0, 2}, {0, 2}));
  EXPECT_FALSE(d.precedes({0, 3}, {0, 0}));
}

TEST(Deposet, MessagePrecedence) {
  Deposet d = ping_pong();
  // Direct: the ~> edges themselves.
  EXPECT_TRUE(d.precedes({0, 0}, {1, 1}));
  EXPECT_TRUE(d.precedes({1, 1}, {0, 2}));
  // Transitive: (0,0) -> (1,1) -> (0,2) and beyond.
  EXPECT_TRUE(d.precedes({1, 0}, {0, 2}));
  EXPECT_TRUE(d.precedes({0, 0}, {0, 2}));
  // Not backward.
  EXPECT_FALSE(d.precedes({0, 2}, {1, 1}));
}

TEST(Deposet, Concurrency) {
  Deposet d = ping_pong();
  EXPECT_TRUE(d.concurrent({0, 1}, {1, 1}));
  EXPECT_TRUE(d.concurrent({0, 3}, {1, 3}));
  EXPECT_FALSE(d.concurrent({0, 0}, {1, 1}));
  EXPECT_FALSE(d.concurrent({0, 1}, {0, 2}));
}

TEST(Deposet, D1RejectsReceiveBeforeInitialState) {
  DeposetBuilder b(2);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.add_message({0, 0}, {1, 0});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Deposet, D2RejectsSendAfterFinalState) {
  DeposetBuilder b(2);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.add_message({0, 2}, {1, 1});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Deposet, D3RejectsEventThatSendsAndReceives) {
  DeposetBuilder b(3);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.set_length(2, 3);
  b.add_message({0, 0}, {1, 1});  // P1 event 0 receives
  b.add_message({1, 0}, {2, 1});  // P1 event 0 also sends -> D3 violation
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Deposet, RejectsEventSendingTwice) {
  DeposetBuilder b(3);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.set_length(2, 3);
  b.add_message({0, 0}, {1, 1});
  b.add_message({0, 0}, {2, 1});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Deposet, RejectsEventReceivingTwice) {
  DeposetBuilder b(3);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.set_length(2, 3);
  b.add_message({0, 0}, {2, 1});
  b.add_message({1, 0}, {2, 1});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Deposet, RejectsSelfMessage) {
  DeposetBuilder b(2);
  b.set_length(0, 4);
  b.add_message({0, 0}, {0, 2});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Deposet, RejectsCausalCycle) {
  // Both processes receive before they send: a message loop back in time.
  DeposetBuilder b(2);
  b.set_length(0, 3);
  b.set_length(1, 3);
  b.add_message({0, 1}, {1, 1});
  b.add_message({1, 1}, {0, 1});
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(Deposet, CheckFailuresNameTheOffendingEdge) {
  DeposetBuilder d1(2);
  d1.set_length(0, 3);
  d1.set_length(1, 3);
  d1.add_message({0, 0}, {1, 0});
  EXPECT_EQ(check_context([&] { d1.build(); }),
            "message P0:0~>P1:0: D1 violated (message received before the initial state)");

  DeposetBuilder same(2);
  same.set_length(0, 4);
  same.set_length(1, 4);
  same.add_message({0, 0}, {1, 1});
  same.add_message({0, 0}, {0, 2});
  EXPECT_EQ(check_context([&] { same.build_extended(); }),
            "edge P0:0~>P0:2: a dependency edge must cross processes");
}

TEST(Deposet, SingleProcessTrivia) {
  DeposetBuilder b(1);
  b.set_length(0, 5);
  Deposet d = b.build();
  EXPECT_EQ(d.total_states(), 5);
  EXPECT_TRUE(d.precedes({0, 0}, {0, 4}));
}

TEST(DeposetBuilder, RejectsBadArguments) {
  EXPECT_THROW(DeposetBuilder(0), std::invalid_argument);
  DeposetBuilder b(2);
  EXPECT_THROW(b.set_length(2, 3), std::invalid_argument);
  EXPECT_THROW(b.set_length(0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace predctrl
