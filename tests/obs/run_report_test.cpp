#include "obs/run_report.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "obs/json.hpp"
#include "test_support.hpp"

namespace wormsim::obs {
namespace {

TEST(RunReportTest, JsonRoundTripsAllFields) {
  RunReport report;
  report.name = "mesh_traffic";
  report.kind = "simulation";
  report.values["mean_latency"] = 17.5;
  report.values["cycles"] = 128;
  report.labels["topology"] = "mesh-8x8";
  report.labels["routing"] = "dor";

  const auto parsed = json::parse(to_json(report));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("name")->as_string(), "mesh_traffic");
  EXPECT_EQ(parsed->find("kind")->as_string(), "simulation");
  EXPECT_DOUBLE_EQ(
      parsed->find("values")->find("mean_latency")->as_number(), 17.5);
  EXPECT_EQ(parsed->find("labels")->find("topology")->as_string(),
            "mesh-8x8");
}

TEST(RunReportTest, OmitsMetricsWhenAbsent) {
  RunReport report;
  report.name = "bare";
  const auto parsed = json::parse(to_json(report));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("metrics"), nullptr);
}

TEST(RunReportTest, WritesBenchFileToRequestedDirectory) {
  RunReport report;
  report.name = "report_file_test";
  report.values["ok"] = 1;
  const std::string dir = test::temp_dir("wormsim_run_report_test");
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(write_report_file(report, dir));
  const auto parsed =
      json::parse(test::slurp(dir + "/BENCH_report_file_test.json"));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->find("values")->find("ok")->as_number(), 1);
}

}  // namespace
}  // namespace wormsim::obs
