// The shared flag parser (tools/cli.hpp) and the flag tables of the four
// tools built on it. The parser is unit-tested in process. Each tool's
// table is read back from its own --help output and (1) checked against
// the flag table of its operator's manual in both directions, in the style
// of status_schema_test.cpp, and (2) fed hostile values for every numeric
// flag, each of which must exit 2 with "bad value for <flag>". Last, a
// replay whose search decides nothing must exit 4, and a SIGKILLed
// campaign must resume from its --cache-file.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "obs/json.hpp"
#include "test_support.hpp"

namespace wormsim::cli {
namespace {

namespace fs = std::filesystem;

/// One flag of every shape, bound to fields holding their defaults.
class CliParser : public ::testing::Test {
 protected:
  CliParser() {
    p.integer("--seed", seed, "campaign seed");
    p.integer("--pairs", pairs, "pairs", 2);
    p.fraction("--fraction", fraction, "share");
    p.seconds("--interval", interval, "refresh");
    p.text("--out", "FILE", out, "output");
    p.flag("--no-shrink", shrink, "skip shrinking");
    p.choice("--bias", bias, {{"any", Bias::kAny}, {"force", Bias::kForce}},
             "bias");
    p.alias("--result", "--out");
  }

  enum class Bias { kAny, kForce };
  std::uint64_t seed = 1;
  int pairs = 6;
  double fraction = 0, interval = 1.5;
  std::string out;
  bool shrink = true;
  Bias bias = Bias::kAny;
  Parser p{"tool", "[flags]", "exit: 0 ok\n"};
};

TEST_F(CliParser, StoresEveryShapeInItsField) {
  EXPECT_EQ(p.try_parse({"--seed", "18446744073709551615", "--pairs",
                         "2147483647", "--fraction", "1", "--interval",
                         "86400", "--result", "x.jsonl", "--no-shrink",
                         "--bias", "force"}),
            "");
  EXPECT_EQ(seed, 18446744073709551615u);
  EXPECT_EQ(pairs, 2147483647);
  EXPECT_EQ(fraction, 1.0);
  EXPECT_EQ(interval, 86400.0);
  EXPECT_EQ(out, "x.jsonl");  // through the alias
  EXPECT_FALSE(shrink);       // a switch flips its field's default
  EXPECT_EQ(bias, Bias::kForce);
  EXPECT_TRUE(p.seen("--out"));
  EXPECT_FALSE(p.seen("--seedless"));
}

TEST_F(CliParser, RejectsBadValuesNamingWhatIsExpected) {
  const std::string u64 = "an integer in [0, 18446744073709551615]";
  const std::string pairs_range = "an integer in [2, 2147483647]";
  const std::string unit = "a number in [0, 1]";
  const std::string secs = "finite seconds in (0, 86400]";
  const struct {
    const char *flag, *value;
    std::string expected;
  } cases[] = {
      {"--seed", "-1", u64},         {"--seed", "+1", u64},
      {"--seed", "1x", u64},         {"--seed", "", u64},
      {"--seed", " 1", u64},         {"--seed", "0x10", u64},
      {"--seed", "nan", u64},        {"--seed", "18446744073709551616", u64},
      {"--pairs", "1", pairs_range}, {"--pairs", "2147483648", pairs_range},
      {"--fraction", "nan", unit},   {"--fraction", "-nan", unit},
      {"--fraction", "inf", unit},   {"--fraction", "-0.5", unit},
      {"--fraction", "1.5", unit},   {"--fraction", "1e400", unit},
      {"--interval", "nan", secs},   {"--interval", "inf", secs},
      {"--interval", "0", secs},     {"--interval", "86400.5", secs},
      {"--interval", "18446744073709551616", secs},
      {"--bias", "sometimes", "any|force"},
  };
  for (const auto& c : cases)
    EXPECT_EQ(p.try_parse({c.flag, c.value}),
              std::string("bad value for ") + c.flag + ": '" + c.value +
                  "' (expected " + c.expected + ")");
  EXPECT_EQ(seed, 1u) << "a rejected value leaves its field alone";
  EXPECT_EQ(pairs, 6);
  EXPECT_EQ(fraction, 0.0);
  EXPECT_EQ(interval, 1.5);
}

TEST_F(CliParser, UnknownFlagsMissingValuesOperandsAndHelp) {
  EXPECT_EQ(p.try_parse({"--merge"}), "unknown flag '--merge' (see --help)");
  EXPECT_EQ(p.try_parse({"a.json"}), "unexpected 'a.json' (see --help)");
  EXPECT_EQ(p.try_parse({"--seed"}), "--seed needs a value");
  std::vector<std::string> files;
  p.operands(files);
  EXPECT_EQ(p.try_parse({"a.json", "--seed", "3", "b.json"}), "");
  EXPECT_EQ(files, (std::vector<std::string>{"a.json", "b.json"}));

  EXPECT_EQ(p.try_parse({"--help", "--seed", "-1"}), "");
  EXPECT_TRUE(p.help_requested());
  EXPECT_EQ(seed, 3u) << "--help stops parsing";
  const std::string usage = p.usage();
  EXPECT_EQ(usage.rfind("usage: tool [flags]\n", 0), 0u) << usage;
  for (const char* line :
       {"  --seed N ", "campaign seed [default: 1]\n",
        "refresh [default: 1.5]\n", "  --out FILE ", "output\n",
        "  --no-shrink ", "bias [default: any]\n", "exit: 0 ok\n"})
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  EXPECT_EQ(usage.find("--result"), std::string::npos)
      << "an alias is not a second flag";
}

TEST(CliOptionalValue, IsTakenOnlyWhenItBeginsLikeANumber) {
  const auto parse = [](const std::vector<std::string>& args, double* interval,
                        std::vector<std::string>* files) {
    Parser p("tool", "", "");
    p.operands(*files);
    p.seconds("--watch", *interval, "").optional_value = true;
    const std::string error = p.try_parse(args);
    EXPECT_TRUE(!error.empty() || p.seen("--watch"));
    return error;
  };
  double interval = 2;
  std::vector<std::string> files;
  EXPECT_EQ(parse({"--watch", "a.json"}, &interval, &files), "");
  EXPECT_EQ(interval, 2.0);
  EXPECT_EQ(parse({"--watch", "0.5", "info.json"}, &interval, &files), "");
  EXPECT_EQ(interval, 0.5);
  EXPECT_EQ(parse({"--watch"}, &interval, &files), "");
  EXPECT_EQ(files, (std::vector<std::string>{"a.json", "info.json"}));
  for (const char* bad : {"inf", "nan", "1x", "-1", "0"})
    EXPECT_NE(parse({"--watch", bad, "a.json"}, &interval, &files)
                  .find("bad value for --watch"),
              std::string::npos)
        << bad;
}

TEST(CliSplit, KeepsEmptyItems) {
  EXPECT_EQ(split("a,b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split(""), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,b,"), (std::vector<std::string>{"a", "", "b", ""}));
}

// ---------------------------------------------------------------------------
// The tools' own flag tables, read back from --help.

struct Tool {
  const char* name;
  const char* path;
  const char* manual;   ///< doc with a table of every flag (first three)
  const char* heading;  ///< the table's heading in `manual`
  /// Arguments after the flag under test. Should a hostile value ever be
  /// accepted, they keep the run small (or make it fail fast).
  const char* tail;
};

void PrintTo(const Tool& tool, std::ostream* os) { *os << tool.name; }

constexpr std::size_t kDocumented = 2;
const Tool kTools[] = {
    {"wormsim_campaign", WORMSIM_CAMPAIGN_TOOL, "docs/campaign.md",
     "### Flags", "--count 1 --out campaign.jsonl --no-shrink --quiet"},
    {"wormsim_synth", WORMSIM_SYNTH_TOOL, "docs/synthesis.md", "## CLI",
     "analyze --instances fig1 --quiet"},
    {"wormsim_saturation", WORMSIM_SATURATION_TOOL, nullptr, nullptr,
     "--quiet --k 4 --loads 0.01 --horizon 10 --drain 1000"},
    {"wormsim_status", WORMSIM_STATUS_TOOL, nullptr, nullptr,
     "missing_status.json"},
};

std::string tool_name(const ::testing::TestParamInfo<Tool>& tool) {
  return tool.param.name;
}

/// Runs `tool args` in a scratch directory (fixtures land there, and
/// reports too unless `bench_dir` says otherwise) under a timeout, so an
/// accepted hostile value cannot hang the suite. Returns the exit code and
/// the start of the merged stdout and stderr (a runaway tool can print
/// without end).
std::pair<int, std::string> run_tool(const Tool& tool, const std::string& args,
                                     int timeout_seconds = 60,
                                     const std::string& bench_dir = ".") {
  static const std::string dir = test::temp_dir("wormsim_cli_test");
  fs::create_directories(dir);
  const std::string command =
      "cd '" + dir + "' && WORMSIM_BENCH_DIR='" + bench_dir + "' timeout " +
      std::to_string(timeout_seconds) + " '" + tool.path + "' " + args +
      " 2>&1";
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  char buffer[4096];
  for (std::size_t n; (n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0;)
    if (output.size() < (1u << 16)) output.append(buffer, n);
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, output};
}

/// (flag, metavar) for each "  --flag [METAVAR]  doc" line of --help; the
/// metavar is empty for a switch.
std::vector<std::pair<std::string, std::string>> help_flags(const Tool& tool) {
  const auto [code, output] = run_tool(tool, "--help");
  EXPECT_EQ(code, 0) << output;
  std::vector<std::pair<std::string, std::string>> flags;
  std::istringstream in(output);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("  --", 0) != 0) continue;
    const std::string head = line.substr(2, line.find("  ", 2) - 2);
    const auto space = head.find(' ');
    flags.emplace_back(head.substr(0, space), space == std::string::npos
                                                  ? ""
                                                  : head.substr(space + 1));
  }
  return flags;
}

/// First-cell flag names of the first markdown table after `heading`.
std::set<std::string> doc_flags(const std::string& manual,
                                const std::string& heading) {
  const std::string doc =
      test::slurp(std::string(WORMSIM_REPO_ROOT) + "/" + manual);
  std::set<std::string> names;
  const auto at = doc.find(heading + "\n");
  if (at == std::string::npos) return names;
  std::istringstream in(doc.substr(at + heading.size() + 1));
  bool in_table = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind('|', 0) != 0) {
      if (in_table) break;
      continue;
    }
    in_table = true;
    if (line.rfind("| `--", 0) == 0)
      names.insert(line.substr(3, line.find_first_of(" `", 3) - 3));
  }
  return names;
}

class ToolManual : public ::testing::TestWithParam<Tool> {};

TEST_P(ToolManual, HelpMatchesTheFlagTableInBothDirections) {
  const Tool& tool = GetParam();
  std::set<std::string> help;
  for (const auto& [name, metavar] : help_flags(tool))
    EXPECT_TRUE(help.insert(name).second) << name << " listed twice";
  const std::set<std::string> doc = doc_flags(tool.manual, tool.heading);
  ASSERT_FALSE(help.empty());
  ASSERT_FALSE(doc.empty()) << tool.manual << ": no table under "
                            << tool.heading;
  for (const std::string& name : help)
    EXPECT_TRUE(doc.count(name)) << tool.manual << " lacks " << name;
  for (const std::string& name : doc)
    EXPECT_TRUE(help.count(name)) << tool.name << " lacks " << name;
}

INSTANTIATE_TEST_SUITE_P(Tools, ToolManual,
                         ::testing::ValuesIn(kTools, kTools + kDocumented),
                         tool_name);

class ToolFlags : public ::testing::TestWithParam<Tool> {};

TEST_P(ToolFlags, EveryNumericFlagRejectsHostileValues) {
  const Tool& tool = GetParam();
  const std::set<std::string> integers = {"N", "N,...", "A,H,G,P"};
  const std::set<std::string> reals = {"F", "F,...", "SECONDS", "[SECONDS]"};
  const std::set<std::string> others = {"", "FILE", "DIR", "NAME", "FIXTURE",
                                        "NAME,..."};
  std::size_t numeric = 0;
  for (const auto& [flag, metavar] : help_flags(tool)) {
    const bool real = reals.count(metavar) > 0;
    if (!real && !integers.count(metavar)) {
      // Any other metavar must be a known non-numeric shape, so a new
      // numeric one cannot slip past this test unclassified.
      EXPECT_TRUE(others.count(metavar) ||
                  metavar.find('|') != std::string::npos)
          << tool.name << " " << flag << ": unclassified '" << metavar << "'";
      continue;
    }
    ++numeric;
    std::vector<std::string> hostile = {"-1", "1x", "18446744073709551616"};
    if (real) hostile.insert(hostile.end(), {"nan", "inf"});
    for (const std::string& value : hostile) {
      const auto [code, output] =
          run_tool(tool, flag + " " + value + " " + tool.tail);
      EXPECT_EQ(code, 2) << flag << " " << value << "\n" << output;
      EXPECT_NE(output.find("bad value for " + flag + ": '" + value +
                            "' (expected "),
                std::string::npos)
          << flag << " " << value << "\n" << output;
    }
  }
  EXPECT_GT(numeric, 0u);
}

INSTANTIATE_TEST_SUITE_P(Tools, ToolFlags, ::testing::ValuesIn(kTools),
                         tool_name);

TEST(CampaignCli, StaticSliceFlagsAreUnknown) {
  for (const char* flag : {"--shard-index 0", "--shard-total 2", "--merge"}) {
    const auto [code, output] =
        run_tool(kTools[0], std::string(flag) + " " + kTools[0].tail);
    EXPECT_EQ(code, 2) << flag;
    EXPECT_NE(output.find("unknown flag"), std::string::npos) << output;
  }
}

TEST(CampaignCli, ReplayOfAnUndecidedSearchExitsFour) {
  // A Theorem-2 ring that deadlocks; one state decides nothing, and an
  // undecided search must not exit 0, which means "fixed".
  const std::string dir = test::temp_dir("wormsim_cli_replay");
  fs::create_directories(dir);
  const std::string fixture = dir + "/undecided.json";
  std::ofstream(fixture) << R"({"scenario": {"index": 0, "seed": 1, )"
                            R"("kind": "family", "name": "fam", )"
                            R"("hub": false, "messages": )"
                            R"([[2,3,0],[2,3,0],[2,3,0]]}})"
                         << '\n';
  const auto [capped_code, capped] =
      run_tool(kTools[0], "--replay " + fixture + " --max-states 1");
  EXPECT_EQ(capped_code, 4) << capped;
  EXPECT_NE(capped.find("outcome   inconclusive"), std::string::npos)
      << capped;
  const auto [decided_code, decided] =
      run_tool(kTools[0], "--replay " + fixture);
  EXPECT_EQ(decided_code, 0) << decided;
  EXPECT_NE(decided.find("outcome   deadlock"), std::string::npos) << decided;
}

TEST(SynthCli, ExistenceSearchOutOfBudgetExitsFour) {
  // ring4 provably has no acyclic-CDG routing. A one-state budget decides
  // nothing, and an undecided existence search neither refuses the
  // instance nor contradicts its pinned expectation.
  for (const std::string mode : {"analyze", "synthesize"}) {
    const auto [capped_code, capped] =
        run_tool(kTools[1], mode + " --instances ring4 --max-states 1");
    EXPECT_EQ(capped_code, 4) << mode << "\n" << capped;
    EXPECT_NE(capped.find("verdict=inconclusive"), std::string::npos)
        << capped;
    EXPECT_NE(capped.find("UNDECIDED"), std::string::npos) << capped;
    EXPECT_EQ(capped.find("INCONSISTENT"), std::string::npos) << capped;
    const auto [decided_code, decided] =
        run_tool(kTools[1], mode + " --instances ring4");
    EXPECT_EQ(decided_code, 0) << mode << "\n" << decided;
    EXPECT_NE(decided.find("verdict=not-exists"), std::string::npos)
        << decided;
  }
}

/// A path no file can be written at: it runs through a regular file.
std::string unwritable_path(const std::string& name) {
  const std::string dir = test::temp_dir("wormsim_cli_" + name);
  fs::create_directories(dir);
  std::ofstream(dir + "/regular") << "not a directory\n";
  return dir + "/regular/" + name;
}

// Each campaign output that cannot be written exits 2 and names the file,
// under --quiet too; the other outputs are still attempted.
TEST(CampaignCli, JsonlThatCannotBeWrittenExitsTwo) {
  const auto [code, output] = run_tool(
      kTools[0], "--count 1 --no-shrink --quiet --out /dev/full");
  EXPECT_EQ(code, 2) << output;
  EXPECT_NE(output.find("cannot write /dev/full"), std::string::npos)
      << output;
}

TEST(CampaignCli, BenchReportThatCannotBeWrittenExitsTwo) {
  const std::string dir = unwritable_path("bench");
  const auto [code, output] = run_tool(kTools[0], kTools[0].tail, 60, dir);
  EXPECT_EQ(code, 2) << output;
  EXPECT_NE(output.find("cannot write " + dir + "/BENCH_campaign.json"),
            std::string::npos)
      << output;
}

// A report that cannot be written is named by its full path. Saturation
// exits 2 for it, like a usage error; synth exits 3, its I/O code.
TEST(SaturationCli, BenchReportThatCannotBeWrittenExitsTwo) {
  const std::string dir = unwritable_path("bench_saturation");
  const auto [code, output] = run_tool(kTools[2], kTools[2].tail, 60, dir);
  EXPECT_EQ(code, 2) << output;
  EXPECT_NE(output.find("cannot write " + dir + "/BENCH_saturation.json"),
            std::string::npos)
      << output;
}

TEST(SynthCli, BenchReportThatCannotBeWrittenExitsThree) {
  const std::string dir = unwritable_path("bench_synth");
  const auto [code, output] = run_tool(kTools[1], kTools[1].tail, 60, dir);
  EXPECT_EQ(code, 3) << output;
  EXPECT_NE(output.find("cannot write " + dir + "/BENCH_synth.json"),
            std::string::npos)
      << output;
}

TEST(CampaignCli, CacheFileThatCannotBeSavedExitsTwo) {
  const std::string cache = unwritable_path("truth.cache");
  const auto [code, output] = run_tool(
      kTools[0], std::string(kTools[0].tail) + " --cache-file " + cache);
  EXPECT_EQ(code, 2) << output;
  EXPECT_NE(output.find("cannot write " + cache), std::string::npos)
      << output;
}

/// The number after " key=" in a tool's summary output.
std::uint64_t printed(const std::string& output, const std::string& key) {
  const auto at = output.find(" " + key + "=");
  EXPECT_NE(at, std::string::npos) << key << " not in\n" << output;
  return at == std::string::npos
             ? 0
             : std::stoull(output.substr(at + key.size() + 2));
}

TEST(CampaignCli, KilledRunResumesWarmFromItsCacheFile) {
  const Tool& tool = kTools[0];
  const std::string dir = test::temp_dir("wormsim_cli_resume");
  fs::create_directories(dir);
  const std::string cache = dir + "/truth.cache";
  const std::string status = dir + "/status.json";
  const std::string campaign = "--seed 1 --count 2000 --shards 4";
  const std::string args = campaign + " --cache-file " + cache +
                           " --status-file " + status +
                           " --status-interval 0.05 --out " + dir +
                           "/resumed.jsonl --fixture-dir " + dir;

  // Kill the run once its cache file holds a record and its heartbeat
  // shows work left: what the file holds then came from the live appends.
  const std::string command = "cd '" + dir + "' && WORMSIM_BENCH_DIR=. exec '" +
                              tool.path + "' " + args + " >killed.log 2>&1";
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl("/bin/sh", "sh", "-c", command.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  const auto mid_run = [&] {
    const std::string text = test::slurp(cache);
    if (std::count(text.begin(), text.end(), '\n') < 2) return false;
    const auto snap = obs::json::parse(test::slurp(status));
    const obs::json::Value* progress = snap ? snap->find("progress") : nullptr;
    if (progress == nullptr) return false;
    const obs::json::Value* done = progress->find("done");
    const obs::json::Value* count = progress->find("count");
    return done != nullptr && count != nullptr && done->is_exact_u64() &&
           count->is_exact_u64() && done->as_u64() < count->as_u64();
  };
  int wait_status = 0;
  bool exited = false;
  while (!(exited = waitpid(pid, &wait_status, WNOHANG) == pid) &&
         !mid_run())
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (!exited) {
    kill(pid, SIGKILL);
    waitpid(pid, &wait_status, 0);
  }
  ASSERT_TRUE(WIFSIGNALED(wait_status) && WTERMSIG(wait_status) == SIGKILL)
      << "the run ended before it was killed:\n"
      << test::slurp(dir + "/killed.log");

  // The rerun of the same command loads what the killed run appended and
  // searches only the rest; an uninterrupted run gives the same bytes.
  const auto [resumed_code, resumed] = run_tool(tool, args, 3600);
  ASSERT_EQ(resumed_code, 0) << resumed;
  const auto [cold_code, cold] =
      run_tool(tool,
               campaign + " --cache-file " + dir + "/cold.cache --out " + dir +
                   "/cold.jsonl --fixture-dir " + dir,
               3600);
  ASSERT_EQ(cold_code, 0) << cold;
  EXPECT_GT(printed(resumed, "loaded"), 0u) << resumed;
  EXPECT_EQ(printed(resumed, "loaded") + printed(resumed, "misses"),
            printed(cold, "misses"))
      << resumed << cold;
  EXPECT_EQ(test::slurp(dir + "/resumed.jsonl"),
            test::slurp(dir + "/cold.jsonl"));
  EXPECT_EQ(test::slurp(cache), test::slurp(dir + "/cold.cache"));
}

}  // namespace
}  // namespace wormsim::cli
