// Core utilities: units, RNG determinism/uniformity, statistics, tables,
// the HyperX topology class added for the Table II reproduction, the
// watchdog subprocess runner, and deterministic chaos injection.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <string>

#include "core/chaos.hpp"
#include "core/fsio.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/subprocess.hpp"
#include "core/table.hpp"
#include "core/units.hpp"
#include "topo/hyperx.hpp"

namespace hxmesh {
namespace {

// ------------------------------------------------------------- units -----
TEST(Units, Conversions) {
  EXPECT_EQ(s_to_ps(1.0), kPsPerSec);
  EXPECT_DOUBLE_EQ(ps_to_s(kPsPerMs), 1e-3);
  EXPECT_EQ(serialization_ps(8192, 50e9), static_cast<picoseconds>(163840));
  EXPECT_EQ(4 * KiB, 4096u);
  EXPECT_EQ(2 * MB, 2000000u);
}

// --------------------------------------------------------------- rng -----
TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, UniformBoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.uniform_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ------------------------------------------------------------- stats -----
TEST(Stats, SummaryOfKnownSample) {
  Summary s = summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

TEST(Stats, EmptySampleIsZero) {
  Summary s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 100), 10.0);
}

TEST(Stats, WeightedCdfAccumulates) {
  auto cdf = weighted_cdf({1, 2, 4}, {1, 1, 2});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].fraction, 0.5);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"a", "long header"});
  t.add_row({"x", "1"});
  t.add_row({"yy"});
  std::string s = t.str();
  EXPECT_NE(s.find("long header"), std::string::npos);
  EXPECT_NE(s.find("yy"), std::string::npos);
}

// ------------------------------------------------------------ HyperX -----
TEST(HyperXTopo, StructureAndDiameter) {
  topo::HyperX hx({.x = 8, .y = 8});
  EXPECT_EQ(hx.num_endpoints(), 64);
  // True switch-based HyperX: endpoint, <=2 switch hops, endpoint.
  EXPECT_EQ(hx.diameter(), 4);
  // Table II counts the Hx1Mesh-equivalent diameter.
  EXPECT_EQ(hx.diameter_formula(), 4);
  topo::HyperX big({.x = 128, .y = 128});
  EXPECT_EQ(big.diameter_formula(), 8);  // rail trees at x=128 (Table II)
}

TEST(HyperXTopo, HopDistanceMatchesBfs) {
  topo::HyperX hx({.x = 6, .y = 5});
  for (int dst = 0; dst < hx.num_endpoints(); dst += 3) {
    auto dist = hx.graph().dist_to(hx.endpoint_node(dst));
    for (int src = 0; src < hx.num_endpoints(); ++src)
      ASSERT_EQ(hx.hop_distance(src, dst), dist[hx.endpoint_node(src)]);
  }
}

TEST(HyperXTopo, SampledPathsAreMinimal) {
  topo::HyperX hx({.x = 6, .y = 6});
  Rng rng(5);
  std::vector<topo::LinkId> path;
  for (int trial = 0; trial < 60; ++trial) {
    int src = static_cast<int>(rng.uniform(hx.num_endpoints()));
    int dst = static_cast<int>(rng.uniform(hx.num_endpoints()));
    if (src == dst) continue;
    hx.sample_path(src, dst, rng, path);
    topo::NodeId cur = hx.endpoint_node(src);
    for (auto l : path) {
      ASSERT_EQ(hx.graph().link(l).src, cur);
      cur = hx.graph().link(l).dst;
    }
    EXPECT_EQ(cur, hx.endpoint_node(dst));
    EXPECT_EQ(static_cast<int>(path.size()), hx.hop_distance(src, dst));
  }
}

TEST(HyperXTopo, RejectsBadParams) {
  EXPECT_THROW(topo::HyperX({.x = 1, .y = 8}), std::invalid_argument);
}

// ---------------------------------------------------------- watchdog -----
TEST(Watchdog, CleanExitIsOkAndZero) {
  const CommandResult r = run_command_watched({"/bin/sh", "-c", "exit 0"});
  EXPECT_EQ(r.status, CommandStatus::kExited);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.shell_code(), 0);
  EXPECT_EQ(r.error, "");
}

TEST(Watchdog, NonZeroExitCarriesTheCode) {
  const CommandResult r = run_command_watched({"/bin/sh", "-c", "exit 3"});
  EXPECT_EQ(r.status, CommandStatus::kExited);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_EQ(r.shell_code(), 3);
  EXPECT_EQ(r.error, "exit code 3");
}

TEST(Watchdog, DeadlineReapsASleepingChild) {
  // A hung shard must never block the sweep past its deadline: SIGTERM at
  // the timeout reaps a well-behaved sleeper in far less than its 30 s.
  CommandOptions options;
  options.timeout_s = 0.2;
  options.grace_s = 5.0;  // never reached: sleep dies on SIGTERM
  const auto start = std::chrono::steady_clock::now();
  const CommandResult r =
      run_command_watched({"/bin/sh", "-c", "sleep 30"}, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(r.status, CommandStatus::kTimedOut);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("timed out after 0.2s"), std::string::npos)
      << r.error;
  EXPECT_NE(r.error.find("SIGTERM"), std::string::npos) << r.error;
  EXPECT_EQ(r.shell_code(), 128 + SIGKILL);  // shell convention for a kill
  EXPECT_LT(elapsed, 5.0) << "watchdog failed to reap within the deadline";
}

TEST(Watchdog, EscalatesToSigkillWhenSigtermIsIgnored) {
  // A child that traps SIGTERM only dies when the grace period expires and
  // the watchdog escalates to SIGKILL — the error string records both.
  CommandOptions options;
  options.timeout_s = 0.1;
  options.grace_s = 0.2;
  const CommandResult r = run_command_watched(
      {"/bin/sh", "-c", "trap '' TERM; while :; do sleep 0.05; done"},
      options);
  EXPECT_EQ(r.status, CommandStatus::kTimedOut);
  EXPECT_NE(r.error.find("SIGTERM, then SIGKILL"), std::string::npos)
      << r.error;
  EXPECT_EQ(r.shell_code(), 128 + SIGKILL);
}

TEST(Watchdog, CrashedChildReportsItsSignal) {
  const CommandResult r =
      run_command_watched({"/bin/sh", "-c", "kill -9 $$"});
  EXPECT_EQ(r.status, CommandStatus::kSignaled);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.term_signal, SIGKILL);
  EXPECT_EQ(r.shell_code(), 128 + SIGKILL);
  EXPECT_EQ(r.error, "killed by signal 9");
}

TEST(Watchdog, SpawnFailureIsReportedNotThrown) {
  const CommandResult r =
      run_command_watched({"/definitely/not/a/real/binary"});
  EXPECT_EQ(r.status, CommandStatus::kSpawnFailed);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.shell_code(), -1);
  EXPECT_NE(r.error.find("cannot spawn"), std::string::npos) << r.error;
}

TEST(Watchdog, CapturesStderrTailOfAFailingChild) {
  CommandOptions options;
  options.capture_stderr = true;
  const CommandResult r = run_command_watched(
      {"/bin/sh", "-c", "echo oops >&2; exit 3"}, options);
  EXPECT_EQ(r.status, CommandStatus::kExited);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.stderr_tail.find("oops"), std::string::npos) << r.stderr_tail;

  // The tail is bounded and keeps the *end* — where crash messages land.
  options.stderr_limit = 10;
  const CommandResult bounded = run_command_watched(
      {"/bin/sh", "-c", "printf 'xxxxxxxxxxxxxxxxTHE-END\\n' >&2"}, options);
  EXPECT_LE(bounded.stderr_tail.size(), 10u);
  EXPECT_NE(bounded.stderr_tail.find("THE-END"), std::string::npos)
      << bounded.stderr_tail;
}

TEST(Watchdog, StatusNamesAreStable) {
  EXPECT_STREQ(command_status_name(CommandStatus::kExited), "exited");
  EXPECT_STREQ(command_status_name(CommandStatus::kSignaled), "signaled");
  EXPECT_STREQ(command_status_name(CommandStatus::kTimedOut), "timed-out");
  EXPECT_STREQ(command_status_name(CommandStatus::kSpawnFailed),
               "spawn-failed");
}

// ------------------------------------------------------------- chaos -----
TEST(Chaos, ParsesKillHangAndSeedGroups) {
  const ChaosSpec spec = parse_chaos("kill:0.25:seed=7,hang:0.1");
  EXPECT_DOUBLE_EQ(spec.kill_p, 0.25);
  EXPECT_DOUBLE_EQ(spec.hang_p, 0.1);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_TRUE(spec.enabled());

  EXPECT_FALSE(parse_chaos("").enabled());
  EXPECT_FALSE(parse_chaos("seed=5").enabled());
  EXPECT_DOUBLE_EQ(parse_chaos("hang:1").hang_p, 1.0);
  EXPECT_DOUBLE_EQ(parse_chaos("kill:0").kill_p, 0.0);
}

TEST(Chaos, RejectsMalformedSpecs) {
  // Each maps to CLI exit 2 — the orchestrator's permanent-failure path.
  for (const char* bad : {"kill", "kill:", "kill:1.5", "kill:-0.1",
                          "kill:abc", "bogus:0.1", "kill:0.2:what",
                          "seed=", "seed=xyz", "hang", "drop:0.5",
                          "delay:0.5"}) {
    EXPECT_THROW(parse_chaos(bad), std::invalid_argument) << bad;
  }
}

TEST(Chaos, ActionIsAPureFunctionOfShardAndAttempt) {
  const ChaosSpec spec = parse_chaos("kill:0.3:seed=42,hang:0.2");
  for (unsigned shard = 0; shard < 16; ++shard)
    for (int attempt = 1; attempt <= 4; ++attempt)
      EXPECT_EQ(chaos_action(spec, shard, attempt),
                chaos_action(spec, shard, attempt))
          << shard << "/" << attempt;
  // Certain probabilities are certain; kill wins over hang.
  const ChaosSpec always_kill = parse_chaos("kill:1,hang:1");
  const ChaosSpec always_hang = parse_chaos("hang:1");
  const ChaosSpec never = parse_chaos("kill:0,hang:0");
  for (unsigned shard = 0; shard < 8; ++shard) {
    EXPECT_EQ(chaos_action(always_kill, shard, 1), ChaosAction::kKill);
    EXPECT_EQ(chaos_action(always_hang, shard, 1), ChaosAction::kHang);
    EXPECT_EQ(chaos_action(never, shard, 1), ChaosAction::kNone);
  }
}

TEST(Chaos, FaultRateTracksTheProbability) {
  const ChaosSpec spec = parse_chaos("kill:0.5:seed=1");
  int kills = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i)
    if (chaos_action(spec, static_cast<unsigned>(i % 50), 1 + i / 50) ==
        ChaosAction::kKill)
      ++kills;
  EXPECT_GT(kills, trials * 2 / 5);  // 40%..60% band around p=0.5
  EXPECT_LT(kills, trials * 3 / 5);
  // Different seeds produce different schedules.
  const ChaosSpec other = parse_chaos("kill:0.5:seed=2");
  bool differs = false;
  for (unsigned shard = 0; shard < 64 && !differs; ++shard)
    differs = chaos_action(spec, shard, 1) != chaos_action(other, shard, 1);
  EXPECT_TRUE(differs);
}

TEST(Chaos, ActionNamesAreStable) {
  EXPECT_STREQ(chaos_action_name(ChaosAction::kNone), "none");
  EXPECT_STREQ(chaos_action_name(ChaosAction::kKill), "kill");
  EXPECT_STREQ(chaos_action_name(ChaosAction::kHang), "hang");
}

// -------------------------------------------------------------- fsio -----
TEST(Fsio, RenameFileMovesAcrossDirectoriesCreatingParents) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "rename_file_test";
  fs::remove_all(dir);
  const std::string src = (dir / "entry.json").string();
  const std::string dst = (dir / "quarantine" / "entry.json").string();
  write_file_atomic(src, "evidence\n");

  EXPECT_TRUE(rename_file(src, dst));  // creates quarantine/ on the way
  EXPECT_FALSE(fs::exists(src));
  const auto moved = read_file(dst);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(*moved, "evidence\n");

  // Renaming something that is not there reports failure, not a throw.
  EXPECT_FALSE(rename_file(src, dst + ".2"));
}

}  // namespace
}  // namespace hxmesh
