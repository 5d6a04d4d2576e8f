// Fixtures for the shard-crossing rule (tools/lint/analyzer.h): the sharded
// PDES engine's isolation contract. Two sub-checks: (A) closures posted to
// the barrier mailbox (`ShardMailbox::Post`) must carry ids — never
// FleetCell / Simulation / slot pointers or references — because delivery
// happens a window later, after the referenced cell may have run on a worker
// thread; (B) per-cell scopes (functions taking a FleetCell*) must not reach
// the engine-wide `cells_` array — cross-cell effects travel as mailbox
// messages applied at window boundaries (docs/PERF.md, "Sharded fleet
// execution").
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tools/lint/lint.h"

namespace vsched {
namespace lint {
namespace {

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.rule == rule; });
}

// --- sub-check A: cell state across the barrier window ----------------------

TEST(LintShardCrossing, FlagsFleetCellPointerInMailboxMessage) {
  // The pointer is resolved *now*; by the delivery window the cell has run
  // (possibly concurrently) and the message would touch it off-thread.
  const std::string snippet =
      "void ShardedFleet::ScheduleCommit(int host_id, TimeNs due) {\n"
      "  FleetCell* cell = CellOfHost(host_id);\n"
      "  mailbox_.Post(due, [this, cell, due] {\n"
      "    cell->counters.timer_arms += 1;\n"
      "  });\n"
      "}\n";
  auto f = LintFile("src/cluster/sharded_fleet.cc", snippet);
  ASSERT_TRUE(HasRule(f, "shard-crossing"));
  // Post is not an event-lifetime sink: the mailbox dies with its owner and
  // the coordinator drains it single-threaded, so only the shard rule fires.
  EXPECT_FALSE(HasRule(f, "event-lifetime"));
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].line, 3);
  EXPECT_EQ(f[0].sink, "mailbox_.Post");
}

TEST(LintShardCrossing, FlagsSimulationReferenceCapture) {
  // Any reference capture crosses the window; a Simulation& doubly so — it
  // is the per-cell event queue itself.
  const std::string snippet =
      "void ShardedFleet::ScheduleTick(int cell_id, TimeNs due) {\n"
      "  Simulation& sim = CellSim(cell_id);\n"
      "  mailbox_.Post(due, [this, &sim, due] {\n"
      "    sim.Step();\n"
      "  });\n"
      "}\n";
  EXPECT_TRUE(
      HasRule(LintFile("src/cluster/sharded_fleet.cc", snippet), "shard-crossing"));
}

TEST(LintShardCrossing, PassesIdCaptureReresolvedAtDelivery) {
  // The engine's idiom: `this` plus ids; the handler re-resolves the cell
  // through the coordinator at delivery time.
  const std::string snippet =
      "void ShardedFleet::ScheduleBoot(int id, TimeNs due) {\n"
      "  mailbox_.Post(due,\n"
      "                [this, id, due] { OnBootComplete(id, due); });\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/cluster/sharded_fleet.cc", snippet).empty());
}

TEST(LintShardCrossing, OnlyBindsToCluster) {
  // A `.Post(` outside src/cluster/ is somebody else's API.
  const std::string snippet =
      "void Relay::Defer(TimeNs due) {\n"
      "  Buffer* b = &buffer_;\n"
      "  bus_.Post(due, 0, [b] { b->Flush(); });\n"
      "}\n";
  EXPECT_FALSE(HasRule(LintFile("src/host/relay.cc", snippet), "shard-crossing"));
}

// --- sub-check B: per-cell scope vs the engine-wide cell array --------------

TEST(LintShardCrossing, FlagsCellsArrayAccessFromPerCellScope) {
  const std::string snippet =
      "void ShardedFleet::DrainInto(FleetCell* cell, int want) {\n"
      "  cells_[0]->counters.rq_picks += static_cast<uint64_t>(want);\n"
      "}\n";
  auto f = LintFile("src/cluster/sharded_fleet.cc", snippet);
  ASSERT_TRUE(HasRule(f, "shard-crossing"));
  EXPECT_EQ(f[0].line, 2);
}

TEST(LintShardCrossing, PassesPerCellScopeUsingItsOwnCell) {
  const std::string snippet =
      "void ShardedFleet::DrainInto(FleetCell* cell, int want) {\n"
      "  cell->counters.rq_picks += static_cast<uint64_t>(want);\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/cluster/sharded_fleet.cc", snippet).empty());
}

TEST(LintShardCrossing, PassesCoordinatorScopeTouchingCells) {
  // The coordinator owns the whole array between windows; only per-cell
  // scopes are fenced.
  const std::string snippet =
      "void ShardedFleet::FoldHarvests(TimeNs now) {\n"
      "  for (auto& cell : cells_) {\n"
      "    Harvest(cell.get(), now);\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/cluster/sharded_fleet.cc", snippet).empty());
}

TEST(LintShardCrossing, AllowCommentSuppresses) {
  const std::string snippet =
      "void ShardedFleet::DrainInto(FleetCell* cell, int want) {\n"
      "  // vsched-lint: allow(shard-crossing) — startup, before workers exist\n"
      "  cells_[0]->counters.rq_picks += static_cast<uint64_t>(want);\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/cluster/sharded_fleet.cc", snippet).empty());
}

}  // namespace
}  // namespace lint
}  // namespace vsched
