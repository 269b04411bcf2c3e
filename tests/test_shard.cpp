// Sharded engine tests (DESIGN.md §12): coordinator mechanics, the
// latency-aware partitioner, cross-shard packet semantics, and — the
// contract everything else rests on — byte-identical campaign results at
// every shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/gilbert.hpp"
#include "inet/shard_campaign.hpp"
#include "inet/shard_partition.hpp"
#include "net/sharded_network.hpp"
#include "sim/shard_coordinator.hpp"
#include "tcp/cbr.hpp"
#include "util/rng.hpp"

namespace lossburst {
namespace {

using namespace lossburst::util::literals;
using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------------------------
// Partitioner.

TEST(ShardPartition, ExactClusterCountAndBalance) {
  // 8 regions in two tight latency cliques joined by long edges.
  std::vector<inet::RegionEdge> edges;
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = a + 1; b < 8; ++b) {
      const bool same = (a < 4) == (b < 4);
      edges.push_back(inet::RegionEdge{a, b, same ? 1'000'000 : 50'000'000});
    }
  }
  const auto part = inet::partition_regions(8, edges, 2);
  ASSERT_EQ(part.size(), 8u);
  EXPECT_EQ(part[0], 0u);  // normalized: region 0's cluster is shard 0
  for (std::size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(part[r], r < 4 ? 0u : 1u) << "region " << r;
  }
}

TEST(ShardPartition, KEqualsRegionsIsIdentity) {
  std::vector<inet::RegionEdge> edges{{0, 1, 5}, {1, 2, 3}, {0, 2, 4}};
  const auto part = inet::partition_regions(3, edges, 3);
  EXPECT_EQ(part, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ShardPartition, CapStallFallsBackToSmallestMerge) {
  // Star of latencies that would greedily glue everything onto region 0;
  // the cap forces a balanced 2-way split regardless.
  std::vector<inet::RegionEdge> edges;
  for (std::size_t b = 1; b < 6; ++b) {
    edges.push_back(inet::RegionEdge{0, b, static_cast<std::int64_t>(b)});
  }
  const auto part = inet::partition_regions(6, edges, 2);
  std::vector<std::size_t> count(2, 0);
  for (const std::size_t s : part) {
    ASSERT_LT(s, 2u);
    ++count[s];
  }
  EXPECT_EQ(count[0] + count[1], 6u);
  EXPECT_GE(count[0], 1u);
  EXPECT_GE(count[1], 1u);
}

TEST(ShardPartition, RejectsBadShardCounts) {
  EXPECT_THROW(inet::partition_regions(4, {}, 0), std::invalid_argument);
  EXPECT_THROW(inet::partition_regions(4, {}, 5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Coordinator + sharded network mechanics.

TEST(ShardCoordinator, SinglePacketCrossesTheCut) {
  net::ShardedNetwork snet(2, 7);
  net::Link* cross = snet.add_link(0, "cross", 1'000'000'000ULL, 5_ms,
                                   net::make_queue(net::QueueKind::kDropTail, 16,
                                                   util::Rng(1)));
  snet.mark_boundary(cross, 1);
  const net::Route* route = snet.add_route(net::Route{cross});
  tcp::ProbeSink sink;
  sink.attach_clock(&snet.sim(1));
  tcp::CbrSource src(snet.sim(0), 1,
                     tcp::CbrSource::Params{400, 10_ms, 100_ms});
  src.connect(route, &sink);
  src.start(TimePoint::zero());
  snet.run_until(TimePoint::zero() + 1_s);
  EXPECT_EQ(src.packets_sent(), 10u);
  ASSERT_EQ(sink.count(), 10u);
  // Arrival = send + serialization (400 B at 1 Gbps = 3.2 us) + 5 ms.
  EXPECT_EQ(sink.arrivals()[0].arrived.ns(), 3'200 + Duration(5_ms).ns());
  EXPECT_GT(snet.coordinator().epochs(), 0u);
  EXPECT_EQ(snet.coordinator().lookahead().ns(), Duration(5_ms).ns());
}

TEST(ShardCoordinator, BoundaryNeedsPositiveDelay) {
  net::ShardedNetwork snet(2, 7);
  net::Link* zero = snet.add_link(0, "zero", 1'000'000'000ULL, Duration(0),
                                  net::make_queue(net::QueueKind::kDropTail, 16,
                                                  util::Rng(1)));
  EXPECT_THROW(snet.mark_boundary(zero, 1), std::invalid_argument);
}

TEST(ShardCoordinator, RouteAcrossUnmarkedCutIsRejected) {
  net::ShardedNetwork snet(2, 7);
  net::Link* a = snet.add_link(0, "a", 1'000'000'000ULL, 1_ms,
                               net::make_queue(net::QueueKind::kDropTail, 16,
                                               util::Rng(1)));
  net::Link* b = snet.add_link(1, "b", 1'000'000'000ULL, 1_ms,
                               net::make_queue(net::QueueKind::kDropTail, 16,
                                               util::Rng(2)));
  EXPECT_THROW(snet.add_route(net::Route{a, b}), std::logic_error);
}

TEST(ShardCoordinator, RepeatedSlicesMatchOneRun) {
  // Sliced run_until (the benchmark pattern) must agree with a single run.
  const auto run = [](bool sliced) {
    net::ShardedNetwork snet(2, 11);
    net::Link* cross = snet.add_link(0, "cross", 1'000'000'000ULL, 2_ms,
                                     net::make_queue(net::QueueKind::kDropTail, 16,
                                                     util::Rng(1)));
    snet.mark_boundary(cross, 1);
    const net::Route* route = snet.add_route(net::Route{cross});
    tcp::ProbeSink sink;
    sink.attach_clock(&snet.sim(1));
    tcp::CbrSource src(snet.sim(0), 1,
                       tcp::CbrSource::Params{400, 3_ms, 90_ms});
    src.connect(route, &sink);
    src.start(TimePoint::zero());
    if (sliced) {
      for (int i = 1; i <= 10; ++i) {
        snet.run_until(TimePoint::zero() + 20_ms * i);
      }
    } else {
      snet.run_until(TimePoint::zero() + 200_ms);
    }
    std::vector<std::int64_t> times;
    for (const auto& a : sink.arrivals()) times.push_back(a.arrived.ns());
    return times;
  };
  EXPECT_EQ(run(true), run(false));
}

// ---------------------------------------------------------------------------
// Campaign byte-identity across shard counts (the tentpole contract).

TEST(ShardCampaign, ByteIdenticalAcrossShardCounts) {
  inet::ShardCampaignConfig cfg;
  cfg.seed = 77;
  cfg.regions = 8;
  cfg.sites = 120;
  cfg.flows = 48;
  cfg.onoff_per_region = 2;
  cfg.probe_interval = 20_ms;
  cfg.duration = 2_s;
  cfg.fault_backbone = true;

  cfg.shards = 1;
  const auto base = inet::run_shard_campaign(cfg);
  EXPECT_GT(base.probes_sent, 0u);
  EXPECT_GT(base.probes_received, 0u);
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    cfg.shards = k;
    const auto run = inet::run_shard_campaign(cfg);
    EXPECT_EQ(run.digest, base.digest) << "shards = " << k;
    EXPECT_EQ(run.probes_sent, base.probes_sent) << "shards = " << k;
    EXPECT_EQ(run.probes_received, base.probes_received) << "shards = " << k;
    EXPECT_EQ(run.fault_totals.gilbert_drops, base.fault_totals.gilbert_drops)
        << "shards = " << k;
    ASSERT_EQ(run.flows.size(), base.flows.size());
    for (std::size_t f = 0; f < run.flows.size(); ++f) {
      EXPECT_EQ(run.flows[f].loss_indicator, base.flows[f].loss_indicator)
          << "shards = " << k << " flow " << f;
    }
    EXPECT_GT(run.epochs, 0u) << "shards = " << k;
  }
}

inet::ShardCampaignConfig small_observed_campaign(const std::filesystem::path& dir) {
  inet::ShardCampaignConfig cfg;
  cfg.seed = 5;
  cfg.shards = 2;
  cfg.regions = 4;
  cfg.sites = 16;
  cfg.flows = 8;
  cfg.onoff_per_region = 0;
  cfg.probe_interval = 20_ms;
  cfg.duration = 1_s;
  cfg.obs.dir = dir.string();
  cfg.obs.prefix = "c_";
  cfg.obs.interval = 100_ms;
  return cfg;
}

TEST(ShardCampaign, WritesPerShardArtifacts) {
  const auto dir = std::filesystem::temp_directory_path() / "lossburst_shard_obs";
  std::filesystem::remove_all(dir);
  const auto run = inet::run_shard_campaign(small_observed_campaign(dir));
  EXPECT_GT(run.probes_received, 0u);
  for (const char* name : {"c_s0_intervals.csv", "c_s1_intervals.csv"}) {
    std::ifstream csv(dir / name);
    std::string header;
    ASSERT_TRUE(std::getline(csv, header)) << name;
    EXPECT_EQ(header.rfind("time_s,", 0), 0u) << name;
  }
  std::ifstream trace(dir / "c_trace.json");
  const std::string json{std::istreambuf_iterator<char>(trace), {}};
  EXPECT_NE(json.find(R"("args":{"name":"shard 0"})"), std::string::npos);
  EXPECT_NE(json.find(R"("args":{"name":"shard 1"})"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ShardCampaign, RejectsNonPositiveObsInterval) {
  const auto dir = std::filesystem::temp_directory_path() / "lossburst_shard_obs_bad";
  std::filesystem::remove_all(dir);
  for (const Duration interval : {Duration::zero(), -1_ms}) {
    inet::ShardCampaignConfig cfg = small_observed_campaign(dir);
    cfg.obs.interval = interval;
    EXPECT_THROW(inet::run_shard_campaign(cfg), std::invalid_argument) << interval.ns();
  }
  EXPECT_FALSE(std::filesystem::exists(dir)) << "rejected before anything was written";
}

TEST(ShardCampaign, GilbertRecoveryIsShardCountIndependent) {
  // A faulted backbone that is a shard boundary at K > 1: the fitter must
  // recover the injected parameters from the probe loss sequence, and the
  // fit must not depend on the shard count (the loss indicators are
  // byte-identical, so the fits are literally equal).
  inet::ShardCampaignConfig cfg;
  cfg.seed = 99;
  cfg.regions = 4;
  cfg.sites = 64;
  cfg.flows = 64;
  cfg.onoff_per_region = 0;
  cfg.probe_interval = 5_ms;
  cfg.duration = 5_s;
  cfg.fault_backbone = true;
  cfg.gilbert_p = 0.05;
  cfg.gilbert_q = 0.4;

  analysis::GilbertFit fit_at[3];
  std::size_t i = 0;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    cfg.shards = k;
    const auto run = inet::run_shard_campaign(cfg);
    // Pool the loss sequences of every flow crossing the faulted link, in
    // flow order — an approximation of the chain's packet order that is
    // identical at every shard count.
    std::vector<bool> pooled;
    std::uint64_t crossing = 0;
    for (const auto& flow : run.flows) {
      if (!flow.crosses_fault_link) continue;
      ++crossing;
      pooled.insert(pooled.end(), flow.loss_indicator.begin(),
                    flow.loss_indicator.end());
    }
    ASSERT_GT(crossing, 0u) << "shards = " << k;
    ASSERT_GT(pooled.size(), 1000u) << "shards = " << k;
    fit_at[i++] = analysis::fit_gilbert(pooled);
  }
  EXPECT_DOUBLE_EQ(fit_at[0].p_good_to_bad, fit_at[1].p_good_to_bad);
  EXPECT_DOUBLE_EQ(fit_at[0].p_bad_to_good, fit_at[1].p_bad_to_good);
  EXPECT_DOUBLE_EQ(fit_at[0].p_good_to_bad, fit_at[2].p_good_to_bad);
  EXPECT_DOUBLE_EQ(fit_at[0].p_bad_to_good, fit_at[2].p_bad_to_good);
  // Loose recovery bounds: the probe stream subsamples the chain (background
  // packets also advance it), so expect the right order of magnitude, not
  // the exact parameters.
  EXPECT_GT(fit_at[0].loss_rate, 0.01);
  EXPECT_LT(fit_at[0].loss_rate, 0.5);
}

// ---------------------------------------------------------------------------
// Randomized-partition differential: a direct two-region topology built on
// ShardedNetwork with randomized shard assignments must reproduce the K=1
// run exactly, whatever the partition.

TEST(ShardDifferential, RandomPartitionsMatchSerial) {
  const auto run = [](std::size_t shards, std::uint64_t seed,
                      const std::vector<std::size_t>& region_shard) {
    net::ShardedNetwork snet(shards, 5);
    // Two regions, four sites each; full backbone mesh between regions.
    const Duration bb_delay = 12_ms;
    net::Link* ab = snet.add_link(region_shard[0], "bb.a.b", 1'000'000'000ULL,
                                  bb_delay,
                                  net::make_queue(net::QueueKind::kDropTail, 64,
                                                  util::Rng(2)));
    net::Link* ba = snet.add_link(region_shard[1], "bb.b.a", 1'000'000'000ULL,
                                  bb_delay,
                                  net::make_queue(net::QueueKind::kDropTail, 64,
                                                  util::Rng(3)));
    if (region_shard[0] != region_shard[1]) {
      snet.mark_boundary(ab, region_shard[1]);
      snet.mark_boundary(ba, region_shard[0]);
    }
    std::vector<net::Link*> up(8);
    std::vector<net::Link*> down(8);
    for (std::size_t s = 0; s < 8; ++s) {
      const std::size_t shard = region_shard[s % 2];
      up[s] = snet.add_link(shard, "up." + std::to_string(s), 1'000'000'000ULL,
                            Duration::micros(300 + 40 * static_cast<std::int64_t>(s)),
                            net::make_queue(net::QueueKind::kDropTail, 32,
                                            util::Rng(10 + s)));
      down[s] = snet.add_link(shard, "down." + std::to_string(s),
                              1'000'000'000ULL,
                              Duration::micros(500 + 60 * static_cast<std::int64_t>(s)),
                              net::make_queue(net::QueueKind::kDropTail, 32,
                                              util::Rng(20 + s)));
    }
    // Probe flows between random pairs, both directions across the cut.
    util::Rng rng(seed);
    std::vector<std::unique_ptr<tcp::CbrSource>> sources;
    std::vector<std::unique_ptr<tcp::ProbeSink>> sinks;
    for (std::size_t f = 0; f < 12; ++f) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, 7));
      std::size_t b = a;
      while (b == a || b % 2 == a % 2) {
        b = static_cast<std::size_t>(rng.uniform_int(0, 7));
      }
      net::Route hops{up[a], a % 2 == 0 ? ab : ba, down[b]};
      const net::Route* route = snet.add_route(std::move(hops));
      sinks.push_back(std::make_unique<tcp::ProbeSink>());
      sinks.back()->attach_clock(&snet.sim(region_shard[b % 2]));
      sources.push_back(std::make_unique<tcp::CbrSource>(
          snet.sim(region_shard[a % 2]), static_cast<net::FlowId>(f),
          tcp::CbrSource::Params{400, Duration::micros(700 + 90 * static_cast<std::int64_t>(f)),
                                 300_ms}));
      sources.back()->connect(route, sinks.back().get());
      sources.back()->start(TimePoint(static_cast<std::int64_t>(f) * 137'000));
    }
    snet.run_until(TimePoint::zero() + 1_s);
    std::vector<std::int64_t> log;
    for (const auto& sink : sinks) {
      for (const auto& a : sink->arrivals()) {
        log.push_back(a.arrived.ns());
        log.push_back(static_cast<std::int64_t>(a.seq));
      }
    }
    return log;
  };

  util::Rng meta(0xd1ff);
  const auto serial = run(1, 42, {0, 0});
  ASSERT_FALSE(serial.empty());
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t shards = 2 + static_cast<std::size_t>(meta.uniform_int(0, 1));
    std::vector<std::size_t> assign{
        static_cast<std::size_t>(meta.uniform_int(0, static_cast<std::int64_t>(shards) - 1)),
        0};
    assign[1] = (assign[0] + 1) % shards;  // regions always split
    EXPECT_EQ(run(shards, 42, assign), serial)
        << "trial " << trial << " shards " << shards << " assign {" << assign[0]
        << "," << assign[1] << "}";
  }
}

}  // namespace
}  // namespace lossburst
