#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace wormsim::obs {
namespace {

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h;
  // v <= bound lands in that bucket: exactly-on-boundary values go to the
  // bucket whose le equals the value.
  h.observe(1);     // bucket le=1
  h.observe(2);     // bucket le=2
  h.observe(1.5);   // bucket le=2
  h.observe(4);     // bucket le=4
  h.observe(5);     // bucket le=8
  h.observe(4096);  // bucket le=4096, the last finite one
  h.observe(4097);  // overflow
  ASSERT_EQ(h.counts().size(), 14u);
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.counts()[12], 1u);
  EXPECT_EQ(h.counts()[13], 1u);  // +Inf
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 8206.5);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 4097);
}

TEST(HistogramTest, PercentileQueries) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1);     // first nonempty bucket
  EXPECT_DOUBLE_EQ(h.percentile(0.3), 32);    // 30 is in bucket le=32
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 64);    // median bucket
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 100);  // le=128, clamped to the max
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100);
}

TEST(HistogramTest, NamedPercentileAccessorsMatchPercentile) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_DOUBLE_EQ(h.p50(), h.percentile(0.50));
  EXPECT_DOUBLE_EQ(h.p90(), h.percentile(0.90));
  EXPECT_DOUBLE_EQ(h.p99(), h.percentile(0.99));
  // With 1..100 uniform and power-of-two buckets, the median lands on its
  // bucket's upper bound and the tail on the observed max.
  EXPECT_DOUBLE_EQ(h.p50(), 64);
  EXPECT_DOUBLE_EQ(h.p90(), 100);
  EXPECT_DOUBLE_EQ(h.p99(), 100);
}

TEST(HistogramTest, NamedPercentilesOnSkewedDistribution) {
  Histogram h;
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
  Histogram h;
  h.observe(5);
  h.observe(10'000);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10'000);
}

TEST(HistogramTest, PercentileClampsToObservedMaxWithinBucket) {
  Histogram h;
  h.observe(100);  // single observation, bucket le=128
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 100);
}

TEST(HistogramTest, EmptyHistogramIsWellDefined) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0);
  EXPECT_DOUBLE_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0);
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
