#include "inet/shard_campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>

#include "fault/injector.hpp"
#include "inet/shard_partition.hpp"
#include "inet/sites.hpp"
#include "net/sharded_network.hpp"
#include "obs/export.hpp"
#include "obs/live/publisher.hpp"
#include "sim/process.hpp"
#include "tcp/cbr.hpp"
#include "tcp/onoff.hpp"
#include "util/rng.hpp"

namespace lossburst::inet {

using util::TimePoint;

namespace {

// Stream-id domains for (campaign seed, component id) RNG derivation. High
// byte keeps domains disjoint; ids stay far below 2^56.
enum : std::uint64_t {
  kDomSite = 1,
  kDomQueue = 2,
  kDomFlow = 3,
  kDomOnoff = 4,
  kDomFault = 5,
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t dom, std::uint64_t id) {
  return util::SplitMix64(seed ^ (dom << 56) ^ id).next();
}

util::Rng stream(std::uint64_t seed, std::uint64_t dom, std::uint64_t id) {
  return util::Rng(derive_seed(seed, dom, id));
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;
  }
}

}  // namespace

ShardCampaignResult run_shard_campaign(const ShardCampaignConfig& cfg) {
  const std::vector<Site>& hubs_src = planetlab_sites();
  if (cfg.regions == 0 || cfg.regions > hubs_src.size()) {
    throw std::invalid_argument("run_shard_campaign: regions must be in [1, " +
                                std::to_string(hubs_src.size()) + "]");
  }
  if (cfg.shards == 0 || cfg.shards > cfg.regions) {
    throw std::invalid_argument("run_shard_campaign: need 1 <= shards <= regions");
  }
  if (cfg.sites < cfg.regions || cfg.flows == 0) {
    throw std::invalid_argument("run_shard_campaign: need sites >= regions, flows >= 1");
  }
  if (cfg.fault_backbone && cfg.regions < 2) {
    throw std::invalid_argument("run_shard_campaign: the faulted backbone needs >= 2 regions");
  }
  const Duration tail = Duration::seconds(2);  // drain in-flight probes
  // Sized (and a non-positive interval rejected) before anything is built.
  const std::size_t obs_rows =
      cfg.obs.enabled() ? obs::series_rows(cfg.duration + tail, cfg.obs.interval) : 0;
  const std::size_t R = cfg.regions;

  // Regional hubs spread across the PlanetLab table; synthetic sites scatter
  // around their hub (round-robin region assignment keeps every region
  // populated at any site count).
  std::vector<Site> hubs(R);
  for (std::size_t r = 0; r < R; ++r) {
    hubs[r] = hubs_src[(r * hubs_src.size()) / R];
  }
  std::vector<Site> site_at(cfg.sites);
  for (std::size_t s = 0; s < cfg.sites; ++s) {
    util::Rng rng = stream(cfg.seed, kDomSite, s);
    const Site& hub = hubs[s % R];
    site_at[s] = Site{"site" + std::to_string(s), hub.location,
                      hub.lat_deg + rng.uniform(-3.0, 3.0),
                      hub.lon_deg + rng.uniform(-3.0, 3.0)};
  }

  // One-way backbone latencies feed both the links and the partitioner.
  std::vector<std::vector<Duration>> bb_delay(R, std::vector<Duration>(R, Duration(0)));
  std::vector<RegionEdge> edges;
  for (std::size_t r1 = 0; r1 < R; ++r1) {
    for (std::size_t r2 = 0; r2 < R; ++r2) {
      if (r1 == r2) continue;
      bb_delay[r1][r2] = estimate_rtt(hubs[r1], hubs[r2]) / 2;
      if (r1 < r2) edges.push_back(RegionEdge{r1, r2, bb_delay[r1][r2].ns()});
    }
  }
  const std::vector<std::size_t> shard_of =
      partition_regions(R, std::move(edges), cfg.shards);

  // Telemetry: one bundle per shard, attached before any link is created so
  // every component registers its metrics/tracks with its shard's bundle.
  // Declared before the network: links deregister their metrics in their
  // destructors, so the registries must outlive them.
  std::vector<std::unique_ptr<obs::Telemetry>> tel;

  net::ShardedNetwork snet(cfg.shards, cfg.seed);

  if (cfg.obs.enabled()) {
    tel.resize(cfg.shards);
    for (std::size_t k = 0; k < cfg.shards; ++k) {
      tel[k] = std::make_unique<obs::Telemetry>();
      tel[k]->recorder().configure(cfg.obs.trace_capacity, cfg.obs.trace_kinds);
      snet.sim(k).set_telemetry(tel[k].get());
      if (cfg.obs.live != nullptr) {
        cfg.obs.live->attach(*tel[k], "s" + std::to_string(k) + ".");
      }
    }
  }

  // Links in fixed global creation order — backbone pairs ascending, then
  // per-site access links — so cross-shard tie-break indices are identical
  // at every shard count.
  std::vector<std::vector<net::Link*>> bb(R, std::vector<net::Link*>(R, nullptr));
  std::size_t link_idx = 0;
  for (std::size_t r1 = 0; r1 < R; ++r1) {
    for (std::size_t r2 = 0; r2 < R; ++r2) {
      if (r1 == r2) continue;
      net::Link* l = snet.add_link(
          shard_of[r1], "bb." + std::to_string(r1) + "." + std::to_string(r2),
          10'000'000'000ULL, bb_delay[r1][r2],
          net::make_queue(net::QueueKind::kDropTail, 512,
                          stream(cfg.seed, kDomQueue, link_idx)));
      ++link_idx;
      if (shard_of[r2] != shard_of[r1]) snet.mark_boundary(l, shard_of[r2]);
      bb[r1][r2] = l;
    }
  }
  std::vector<net::Link*> up(cfg.sites);
  std::vector<net::Link*> down(cfg.sites);
  for (std::size_t s = 0; s < cfg.sites; ++s) {
    const std::size_t r = s % R;
    const Duration access = estimate_rtt(site_at[s], hubs[r]) / 2;
    up[s] = snet.add_link(shard_of[r], "up." + std::to_string(s), 1'000'000'000ULL,
                          access,
                          net::make_queue(net::QueueKind::kDropTail, 128,
                                          stream(cfg.seed, kDomQueue, link_idx)));
    ++link_idx;
    down[s] = snet.add_link(shard_of[r], "down." + std::to_string(s),
                            1'000'000'000ULL, access,
                            net::make_queue(net::QueueKind::kDropTail, 128,
                                            stream(cfg.seed, kDomQueue, link_idx)));
    ++link_idx;
  }

  // Probe flows between random site pairs; sources tick on the source
  // site's shard, sinks record on the destination's.
  struct Flow {
    std::unique_ptr<tcp::CbrSource> src;
    std::unique_ptr<tcp::ProbeSink> sink;
    std::size_t a = 0;
    std::size_t b = 0;
    bool crosses_fault = false;
  };
  const auto expected_probes =
      static_cast<std::size_t>(cfg.duration.ns() / cfg.probe_interval.ns()) + 2;
  std::vector<Flow> flows(cfg.flows);
  for (std::size_t f = 0; f < cfg.flows; ++f) {
    util::Rng rng = stream(cfg.seed, kDomFlow, f);
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(cfg.sites) - 1));
    std::size_t b = a;
    while (b == a) {
      b = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cfg.sites) - 1));
    }
    const std::size_t ra = a % R;
    const std::size_t rb = b % R;
    net::Route hops;
    hops.push_back(up[a]);
    if (ra != rb) hops.push_back(bb[ra][rb]);
    hops.push_back(down[b]);
    const net::Route* route = snet.add_route(std::move(hops));

    Flow& flow = flows[f];
    flow.a = a;
    flow.b = b;
    flow.crosses_fault = ra == 0 && rb == 1;
    flow.sink = std::make_unique<tcp::ProbeSink>();
    flow.sink->attach_clock(&snet.sim(shard_of[rb]));
    flow.sink->reserve(expected_probes);
    flow.src = std::make_unique<tcp::CbrSource>(
        snet.sim(shard_of[ra]), static_cast<net::FlowId>(f),
        tcp::CbrSource::Params{cfg.probe_bytes, cfg.probe_interval, cfg.duration});
    flow.src->connect(route, flow.sink.get());
    // Staggered starts decorrelate the probe grids across flows (and avoid
    // systematic same-instant event collisions at shard cuts).
    flow.src->start(TimePoint(
        rng.uniform_int(0, std::max<std::int64_t>(cfg.probe_interval.ns() - 1, 0))));
  }

  // Shard-local background noise: on-off UDP between sites of one region.
  struct Noise {
    std::unique_ptr<tcp::ExpOnOffSource> src;
    std::unique_ptr<tcp::NullSink> sink;
  };
  std::vector<Noise> noise;
  noise.reserve(R * cfg.onoff_per_region);
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t i = 0; i < cfg.onoff_per_region; ++i) {
      const std::size_t a = r + R * (2 * i);
      const std::size_t b = r + R * (2 * i + 1);
      if (b >= cfg.sites) break;
      const net::Route* route = snet.add_route(net::Route{up[a], down[b]});
      Noise n;
      n.sink = std::make_unique<tcp::NullSink>();
      n.src = std::make_unique<tcp::ExpOnOffSource>(
          snet.sim(shard_of[r]),
          static_cast<net::FlowId>((1u << 20) + r * 1024 + i),
          tcp::ExpOnOffSource::Params{2'000'000.0, Duration::millis(100),
                                      Duration::millis(300), 500},
          stream(cfg.seed, kDomOnoff, r * 1024 + i));
      n.src->connect(route, n.sink.get());
      n.src->start(TimePoint::zero());
      noise.push_back(std::move(n));
    }
  }

  // Optional Gilbert channel on the region 0 -> 1 backbone. The plan is
  // per-link with a seed derived from (campaign seed, the link's global
  // index), so the injector's streams are shard-count-independent; verdicts
  // resolve on the owning (source) side of any cut.
  std::unique_ptr<fault::FaultInjector> injector;
  if (cfg.fault_backbone) {
    net::Link* target = bb[0][1];
    fault::FaultPlan plan;
    plan.seed = derive_seed(cfg.seed, kDomFault, snet.index_of(target));
    fault::GilbertSpec spec;
    spec.link = target->name();
    spec.p_good_to_bad = cfg.gilbert_p;
    spec.p_bad_to_good = cfg.gilbert_q;
    plan.gilbert.push_back(spec);
    injector = std::make_unique<fault::FaultInjector>(
        snet.network(snet.shard_of(target)), plan);
  }

  snet.finalize();  // after fault attach: corruption routing needs the index
  const TimePoint end = TimePoint::zero() + cfg.duration + tail;

  // Sampling pump: per-shard interval series plus the optional live
  // publisher, advanced in lockstep over the global interval grid. For
  // K == 1 a PeriodicProcess drives it (exact sampling, the serial engine
  // bypasses the coordinator); for K > 1 the coordinator's epoch hook calls
  // catch_up(gmin) — the barrier's single-threaded point — so every closed
  // interval at or before gmin is sampled barrier-consistently without ever
  // racing a worker. Telemetry reads registries and rings only; the event
  // outcomes, and therefore the digest, are identical with obs on or off.
  struct Pump {
    std::vector<std::unique_ptr<obs::IntervalSeries>> series;
    obs::live::LivePublisher* live = nullptr;
    std::int64_t interval_ns = 0;
    std::int64_t next_ns = 0;
    void catch_up(std::int64_t upto_ns) {
      while (next_ns <= upto_ns) {
        for (auto& s : series) s->sample(TimePoint(next_ns));
        if (live != nullptr) live->publish(next_ns);
        next_ns += interval_ns;
      }
    }
  };
  Pump pump;
  std::unique_ptr<sim::PeriodicProcess> sampler;
  if (cfg.obs.enabled()) {
    pump.live = cfg.obs.live;
    pump.interval_ns = cfg.obs.interval.ns();
    pump.next_ns = pump.interval_ns;
    pump.series.reserve(cfg.shards);
    for (std::size_t k = 0; k < cfg.shards; ++k) {
      pump.series.push_back(
          std::make_unique<obs::IntervalSeries>(tel[k]->registry()));
      pump.series.back()->reserve(obs_rows);
    }
    if (cfg.obs.live != nullptr) cfg.obs.live->freeze(0, pump.interval_ns);
    if (cfg.shards > 1) {
      snet.coordinator().set_epoch_hook(
          [&pump](TimePoint gmin) { pump.catch_up(gmin.ns()); });
    } else {
      sampler = std::make_unique<sim::PeriodicProcess>(
          snet.sim(0), Duration(pump.interval_ns),
          [&pump, &snet] { pump.catch_up(snet.sim(0).now().ns()); });
      sampler->start(Duration(pump.interval_ns));
    }
  }

  snet.run_until(end);

  if (cfg.obs.enabled()) {
    if (sampler) sampler->stop();
    snet.coordinator().set_epoch_hook(nullptr);  // pump dies with this scope
    pump.catch_up(end.ns());
    if (cfg.obs.writes_artifacts()) {
      const std::filesystem::path dir = cfg.obs.dir;
      std::filesystem::create_directories(dir);
      for (std::size_t k = 0; k < cfg.shards; ++k) {
        obs::write_artifact(dir / (cfg.obs.prefix + "s" + std::to_string(k) + "_intervals.csv"),
                            [&](std::ostream& out) { pump.series[k]->write_csv(out); });
      }
      std::vector<const obs::FlightRecorder*> recs;
      recs.reserve(cfg.shards);
      for (const auto& t : tel) recs.push_back(&t->recorder());
      obs::write_artifact(dir / (cfg.obs.prefix + "trace.json"),
                          [&](std::ostream& out) { obs::write_chrome_trace(out, recs); });
    }
  }

  ShardCampaignResult result;
  result.shards = cfg.shards;
  result.events = snet.events_executed();
  result.epochs = snet.coordinator().epochs();
  result.lookahead = snet.coordinator().lookahead();
  std::uint64_t digest = 14695981039346656037ULL;  // FNV-1a offset basis
  result.flows.reserve(cfg.flows);
  for (std::size_t f = 0; f < cfg.flows; ++f) {
    const Flow& flow = flows[f];
    ShardFlowReport rep;
    rep.flow = static_cast<net::FlowId>(f);
    rep.src_site = flow.a;
    rep.dst_site = flow.b;
    rep.sent = flow.src->packets_sent();
    rep.received = flow.sink->count();
    rep.crosses_fault_link = flow.crosses_fault;
    rep.loss_indicator.assign(rep.sent, false);
    for (const net::SeqNum seq : flow.sink->missing(rep.sent)) {
      rep.loss_indicator[seq] = true;
    }
    fnv_mix(digest, f);
    fnv_mix(digest, rep.sent);
    for (const tcp::ProbeSink::Arrival& a : flow.sink->arrivals()) {
      fnv_mix(digest, a.seq);
      fnv_mix(digest, static_cast<std::uint64_t>(a.arrived.ns()));
      fnv_mix(digest, static_cast<std::uint64_t>(a.sent.ns()));
    }
    result.probes_sent += rep.sent;
    result.probes_received += rep.received;
    result.flows.push_back(std::move(rep));
  }
  result.digest = digest;
  if (injector) result.fault_totals = injector->total();
  return result;
}

}  // namespace lossburst::inet
