#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/cyclic_family.hpp"
#include "obs/json.hpp"
#include "sim/simulator.hpp"

namespace wormsim::obs {
namespace {

/// Runs the paper's Figure-1 message set under the deterministic priority
/// schedule fig1_demo uses, recording typed events.
class Fig1TraceTest : public ::testing::Test {
 protected:
  Fig1TraceTest() : family_(core::fig1_spec()) {}

  void run_traced() {
    sim::PriorityArbitration policy({2, 0, 3, 1});
    sim::WormholeSimulator simulator(family_.algorithm(), sim::SimConfig{},
                                     policy);
    for (const auto& spec : family_.message_specs())
      message_count_ = simulator.add_message(spec).index() + 1;
    simulator.set_trace_sink(&buffer_);
    const auto result = simulator.run();
    ASSERT_EQ(result.outcome, sim::RunOutcome::kAllConsumed);
  }

  core::CyclicFamily family_;
  TraceBuffer buffer_;
  std::size_t message_count_ = 0;
};

TEST_F(Fig1TraceTest, EveryMessageHasCompleteLifecycle) {
  run_traced();
  ASSERT_GT(message_count_, 0u);
  std::vector<std::uint64_t> inject(message_count_, 0);
  std::vector<std::uint64_t> delivered(message_count_, 0);
  std::vector<std::uint64_t> consumed(message_count_, 0);
  std::vector<std::uint64_t> acquires(message_count_, 0);
  std::vector<std::uint64_t> releases(message_count_, 0);
  std::uint64_t last_cycle = 0;
  for (const TraceEvent& event : buffer_.events()) {
    EXPECT_GE(event.cycle, last_cycle);  // nondecreasing cycle order
    last_cycle = event.cycle;
    const std::size_t m = event.message.index();
    ASSERT_LT(m, message_count_);
    switch (event.kind) {
      case TraceEventKind::kInject: ++inject[m]; break;
      case TraceEventKind::kDelivered: ++delivered[m]; break;
      case TraceEventKind::kConsumed: ++consumed[m]; break;
      case TraceEventKind::kChannelAcquire: ++acquires[m]; break;
      case TraceEventKind::kChannelRelease: ++releases[m]; break;
      default: break;
    }
  }
  for (std::size_t m = 0; m < message_count_; ++m) {
    EXPECT_EQ(inject[m], 1u) << "m" << m;
    EXPECT_EQ(delivered[m], 1u) << "m" << m;
    EXPECT_EQ(consumed[m], 1u) << "m" << m;
    // Channel book-keeping balances: every acquired channel is released.
    EXPECT_GT(acquires[m], 0u) << "m" << m;
    EXPECT_EQ(acquires[m], releases[m]) << "m" << m;
  }
}

TEST_F(Fig1TraceTest, JsonlExportParsesLineByLine) {
  run_traced();
  std::ostringstream out;
  write_jsonl(out, buffer_.events(), &family_.algorithm().net());
  std::istringstream lines(out.str());
  std::string line;
  std::size_t parsed_count = 0;
  while (std::getline(lines, line)) {
    const auto v = json::parse(line);
    ASSERT_TRUE(v.has_value()) << line;
    ASSERT_TRUE(v->is_object());
    EXPECT_NE(v->find("cycle"), nullptr);
    EXPECT_NE(v->find("kind"), nullptr);
    EXPECT_NE(v->find("message"), nullptr);
    ++parsed_count;
  }
  EXPECT_EQ(parsed_count, buffer_.size());
}

TEST_F(Fig1TraceTest, ChromeTraceIsValidJsonAndCoversEveryMessage) {
  run_traced();
  std::ostringstream out;
  write_chrome_trace(out, buffer_.events(), &family_.algorithm().net());
  const auto v = json::parse(out.str());
  ASSERT_TRUE(v.has_value());
  const json::Value* events = v->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // Every message must appear with inject, header-advance (or delivery for
  // single-hop paths) and consumed instants on its track.
  std::vector<bool> has_inject(message_count_, false);
  std::vector<bool> has_consumed(message_count_, false);
  std::size_t begin_count = 0;
  std::size_t end_count = 0;
  for (const json::Value& event : events->as_array()) {
    const json::Value* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->as_string() == "B") ++begin_count;
    if (ph->as_string() == "E") ++end_count;
    if (ph->as_string() != "i") continue;
    const auto m = static_cast<std::size_t>(
        event.find("args")->find("message")->as_number());
    ASSERT_LT(m, message_count_);
    const std::string& name = event.find("name")->as_string();
    if (name == "inject") has_inject[m] = true;
    if (name == "consumed") has_consumed[m] = true;
  }
  for (std::size_t m = 0; m < message_count_; ++m) {
    EXPECT_TRUE(has_inject[m]) << "m" << m;
    EXPECT_TRUE(has_consumed[m]) << "m" << m;
  }
  // Channel spans pair up (the run drained, so every acquire closed).
  EXPECT_GT(begin_count, 0u);
  EXPECT_EQ(begin_count, end_count);
}

TEST(TraceEventTest, KindNamesAreStable) {
  EXPECT_STREQ(kind_name(TraceEventKind::kInject), "inject");
  EXPECT_STREQ(kind_name(TraceEventKind::kHeaderAdvance), "header-advance");
  EXPECT_STREQ(kind_name(TraceEventKind::kBlocked), "blocked");
  EXPECT_STREQ(kind_name(TraceEventKind::kDelivered), "delivered");
  EXPECT_STREQ(kind_name(TraceEventKind::kConsumed), "consumed");
  EXPECT_STREQ(kind_name(TraceEventKind::kChannelAcquire), "channel-acquire");
  EXPECT_STREQ(kind_name(TraceEventKind::kChannelRelease), "channel-release");
}

}  // namespace
}  // namespace wormsim::obs
