// wormsim-table-v1 round-trips and malformed-input rejection. Loading is
// the untrusted path (tables come from files), so every PathTable
// precondition must surface as an error string, never an abort.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "routing/table_io.hpp"
#include "routing/table_routing.hpp"
#include "test_support.hpp"
#include "topo/builders.hpp"

namespace wormsim::routing {
namespace {

namespace fs = std::filesystem;

/// Small bidirectional ring with a table routing a few pairs clockwise.
struct Fixture {
  topo::Network net = topo::make_bidirectional_ring(4);
  PathTable table{net, "riff"};

  Fixture() {
    table.add_node_path(std::vector<NodeId>{NodeId{0}, NodeId{1}, NodeId{2}});
    table.add_node_path(std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}});
    table.add_node_path(std::vector<NodeId>{NodeId{3}, NodeId{0}});
  }
};

TEST(TableIo, RoundTripPreservesEveryPath) {
  const Fixture fx;
  const std::string text = table_to_json(fx.table);
  EXPECT_NE(text.find(kTableSchema), std::string::npos);

  const TableLoadResult loaded = table_from_json(fx.net, text);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.table->name(), "riff");
  ASSERT_EQ(loaded.table->paths().size(), fx.table.paths().size());
  for (std::size_t i = 0; i < fx.table.paths().size(); ++i) {
    const PathSpec& a = fx.table.paths()[i];
    const PathSpec& b = loaded.table->paths()[i];
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.channels, b.channels);
  }
  // Second generation is byte-identical: serialization is canonical.
  EXPECT_EQ(table_to_json(*loaded.table), text);
}

TEST(TableIo, FileRoundTrip) {
  const Fixture fx;
  const std::string path = test::temp_dir("wormsim_table_io_test.json");
  std::string error;
  ASSERT_TRUE(write_table_file(fx.table, path, &error)) << error;
  const TableLoadResult loaded = load_table_file(fx.net, path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(table_to_json(*loaded.table), table_to_json(fx.table));
  fs::remove(path);
}

TEST(TableIo, MissingFileIsAnError) {
  const Fixture fx;
  const TableLoadResult loaded =
      load_table_file(fx.net, "/nonexistent/wormsim-no-such-table.json");
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.error.empty());
}

/// Every malformed document must produce an error, not a crash. The cases
/// mirror the preconditions PathTable::add_path aborts on.
struct BadCase {
  const char* label;
  const char* text;
};

TEST(TableIo, MalformedDocumentsAreRejectedWithReasons) {
  const topo::Network net = topo::make_bidirectional_ring(4);
  // In make_bidirectional_ring(4): channel 2*i is i->i+1, 2*i+1 is the
  // reverse. Channel 0: 0->1, channel 2: 1->2.
  const std::vector<BadCase> cases = {
      {"not JSON", "this is { not json"},
      {"not an object", "[1, 2, 3]"},
      {"wrong schema", R"({"schema":"wormsim-table-v9","name":"x",)"
                       R"("nodes":4,"channels":8,"paths":[]})"},
      {"missing schema", R"({"name":"x","nodes":4,"channels":8,"paths":[]})"},
      {"node count mismatch", R"({"schema":"wormsim-table-v1","name":"x",)"
                              R"("nodes":5,"channels":8,"paths":[]})"},
      {"channel count mismatch", R"({"schema":"wormsim-table-v1","name":"x",)"
                                 R"("nodes":4,"channels":9,"paths":[]})"},
      // Counts and ids must be exact integers, not numbers that truncate
      // to one (4.7 would read as 4, 0.6 as node 0, 0.9 as channel 0).
      {"fractional node count", R"({"schema":"wormsim-table-v1","name":"x",)"
                                R"("nodes":4.7,"channels":8,"paths":[]})"},
      {"fractional src and channel",
       R"({"schema":"wormsim-table-v1","name":"x",)"
       R"("nodes":4,"channels":8,)"
       R"("paths":[{"src":0.6,"dst":1,"channels":[0.9]}]})"},
      {"paths not an array", R"({"schema":"wormsim-table-v1","name":"x",)"
                             R"("nodes":4,"channels":8,"paths":7})"},
      {"src out of range", R"({"schema":"wormsim-table-v1","name":"x",)"
                           R"("nodes":4,"channels":8,)"
                           R"("paths":[{"src":9,"dst":1,"channels":[0]}]})"},
      {"channel out of range", R"({"schema":"wormsim-table-v1","name":"x",)"
                               R"("nodes":4,"channels":8,)"
                               R"("paths":[{"src":0,"dst":1,)"
                               R"("channels":[99]}]})"},
      {"empty path", R"({"schema":"wormsim-table-v1","name":"x",)"
                     R"("nodes":4,"channels":8,)"
                     R"("paths":[{"src":0,"dst":1,"channels":[]}]})"},
      // Channel 2 is 1->2: it does not start at src 0.
      {"not a walk from src", R"({"schema":"wormsim-table-v1","name":"x",)"
                              R"("nodes":4,"channels":8,)"
                              R"("paths":[{"src":0,"dst":2,)"
                              R"("channels":[2]}]})"},
      // Channel 0 is 0->1: the path stops before reaching dst 2.
      {"path misses dst", R"({"schema":"wormsim-table-v1","name":"x",)"
                          R"("nodes":4,"channels":8,)"
                          R"("paths":[{"src":0,"dst":2,"channels":[0]}]})"},
      {"duplicate pair", R"({"schema":"wormsim-table-v1","name":"x",)"
                         R"("nodes":4,"channels":8,"paths":[)"
                         R"({"src":0,"dst":1,"channels":[0]},)"
                         R"({"src":0,"dst":1,"channels":[0]}]})"},
      // Both paths traverse channel 0 (0->1) toward dst 2 but continue
      // differently: path A goes on with channel 2 (1->2), path B — the
      // winding walk 3->0->1->0->3->2 — with channel 1 (1->0). Distinct
      // channels and a late dst visit keep every per-path check green, so
      // only the function property can (and must) refuse it.
      {"function property conflict",
       R"({"schema":"wormsim-table-v1","name":"x",)"
       R"("nodes":4,"channels":8,"paths":[)"
       R"({"src":0,"dst":2,"channels":[0,2]},)"
       R"({"src":3,"dst":2,"channels":[6,0,1,7,5]}]})"},
  };
  for (const BadCase& bad : cases) {
    const TableLoadResult loaded = table_from_json(net, bad.text);
    EXPECT_FALSE(loaded.ok()) << bad.label << " was accepted";
    EXPECT_FALSE(loaded.error.empty()) << bad.label << " has no reason";
  }
}

TEST(TableIo, RepeatedChannelIsRejected) {
  // A "path" that loops through the same channel twice can never be a
  // simple wormhole route; the loader must refuse it even if the walk
  // geometry checks out.
  const topo::Network net = topo::make_bidirectional_ring(4);
  // 0->1->0->1->2 via [0,1,0,2] repeats channel 0 without ever touching
  // dst 2 early, so the repeated-channel check is the one that fires.
  const std::string text =
      R"({"schema":"wormsim-table-v1","name":"x",)"
      R"("nodes":4,"channels":8,"paths":[)"
      R"({"src":0,"dst":2,"channels":[0,1,0,2]}]})";
  const TableLoadResult loaded = table_from_json(net, text);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.error.empty());
}

TEST(TableIo, LoadAgainstTheWrongNetworkShapeFails) {
  const Fixture fx;
  const std::string text = table_to_json(fx.table);
  const topo::Network other = topo::make_bidirectional_ring(5);
  const TableLoadResult loaded = table_from_json(other, text);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("node"), std::string::npos);
}

}  // namespace
}  // namespace wormsim::routing
