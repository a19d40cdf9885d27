#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace wormsim::obs {
namespace {

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1, 2, 4});
  // v <= bound lands in that bucket: exactly-on-boundary values go to the
  // bucket whose le equals the value.
  h.observe(1);    // bucket le=1
  h.observe(2);    // bucket le=2
  h.observe(1.5);  // bucket le=2
  h.observe(4);    // bucket le=4
  h.observe(5);    // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 13.5);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 5);
}

TEST(HistogramTest, PercentileQueries) {
  Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10);   // first nonempty bucket
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 50);   // median bucket
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 100);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100);
}

TEST(HistogramTest, NamedPercentileAccessorsMatchPercentile) {
  Histogram h({10, 20, 30, 40, 50, 60, 70, 80, 90, 100});
  for (int v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_DOUBLE_EQ(h.p50(), h.percentile(0.50));
  EXPECT_DOUBLE_EQ(h.p90(), h.percentile(0.90));
  EXPECT_DOUBLE_EQ(h.p99(), h.percentile(0.99));
  // With 1..100 uniform and decade buckets, the named quantiles land on
  // their bucket upper bounds.
  EXPECT_DOUBLE_EQ(h.p50(), 50);
  EXPECT_DOUBLE_EQ(h.p90(), 90);
  EXPECT_DOUBLE_EQ(h.p99(), 100);
}

TEST(HistogramTest, NamedPercentilesOnSkewedDistribution) {
  Histogram h({1, 2, 4, 8});
  // 97 observations at 1, 2 at 3, 1 at 100: the tail only shows past p97.
  for (int i = 0; i < 97; ++i) h.observe(1);
  h.observe(3);
  h.observe(3);
  h.observe(100);
  EXPECT_DOUBLE_EQ(h.p50(), 1);
  EXPECT_DOUBLE_EQ(h.p90(), 1);
  EXPECT_DOUBLE_EQ(h.p99(), 4);  // bucket le=4 holds the 3s
}

TEST(HistogramTest, PercentileOfOverflowReturnsObservedMax) {
  Histogram h({10});
  h.observe(5);
  h.observe(1000);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000);
}

TEST(HistogramTest, PercentileClampsToObservedMaxWithinBucket) {
  Histogram h({100});
  h.observe(3);  // single observation, bucket le=100
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 3);
}

TEST(HistogramTest, EmptyHistogramIsWellDefined) {
  Histogram h({1, 2});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0);
}

TEST(HistogramTest, ExponentialBoundsDoubleUpToLimit) {
  const auto bounds = Histogram::exponential_bounds(1, 16);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1);
  EXPECT_DOUBLE_EQ(bounds[4], 16);
}

TEST(JsonTest, EscapesControlAndQuoteCharacters) {
  const std::string escaped = json::escape("a\"b\\c\nd\x01");
  EXPECT_EQ(escaped, "a\\\"b\\\\c\\nd\\u0001");
  const auto round_trip = json::parse("\"" + escaped + "\"");
  ASSERT_TRUE(round_trip.has_value());
  EXPECT_EQ(round_trip->as_string(), "a\"b\\c\nd\x01");
}

TEST(JsonTest, ParserRejectsMalformedDocuments) {
  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("[1,]").has_value());
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json::parse("'single'").has_value());
}

TEST(JsonTest, U64LiteralsRoundTripExactly) {
  // Counters beyond 2^53 lose low-order bits through a double mantissa;
  // number_u64 + the exact-integer parse path must preserve them.
  const std::uint64_t big = (1ull << 63) + 4611686018427387907ull;  // odd
  const std::string text = json::number_u64(big);
  EXPECT_EQ(text, "13835058055282163715");
  const auto v = json::parse(text);
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->is_number());
  EXPECT_TRUE(v->is_exact_u64());
  EXPECT_EQ(v->as_u64(), big);

  const auto max = json::parse("18446744073709551615");  // UINT64_MAX
  ASSERT_TRUE(max.has_value());
  EXPECT_TRUE(max->is_exact_u64());
  EXPECT_EQ(max->as_u64(), 18446744073709551615ull);
}

TEST(JsonTest, NonIntegerNumbersStayDoubles) {
  // Fractions, exponents, and negatives take the double path, and have no
  // u64 value: a cast would wrap a negative or be undefined past 2^64.
  for (const char* text : {"1.5", "-7", "2e3", "18446744073709551616"}) {
    const auto v = json::parse(text);
    ASSERT_TRUE(v.has_value()) << text;
    EXPECT_TRUE(v->is_number()) << text;
    EXPECT_FALSE(v->is_exact_u64()) << text;
    EXPECT_THROW((void)v->as_u64(), std::bad_variant_access) << text;
  }
  EXPECT_EQ(json::parse("2e3")->as_number(), 2000.0);
}

TEST(JsonTest, ParsesNestedStructures) {
  const auto v = json::parse(
      R"({"a": [1, 2.5, true, null, "s"], "b": {"c": -3e2}})");
  ASSERT_TRUE(v.has_value());
  const auto& a = v->find("a")->as_array();
  ASSERT_EQ(a.size(), 5u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.5);
  EXPECT_TRUE(a[2].as_bool());
  EXPECT_TRUE(a[3].is_null());
  EXPECT_DOUBLE_EQ(v->find("b")->find("c")->as_number(), -300);
}

}  // namespace
}  // namespace wormsim::obs
