// Observability (DESIGN.md §8): metric registry, flight recorder, exporters,
// event-loop profiler, and the determinism contract — identically-seeded
// runs must produce byte-identical CSV/JSON artifacts, including when runs
// execute concurrently on the thread pool.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "core/dumbbell_experiment.hpp"
#include "core/obs_session.hpp"
#include "net/queue.hpp"
#include "net/trace.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/tags.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_ring.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lossburst;
using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, RegistersReadsAndPreservesOrder) {
  obs::Registry reg;
  std::uint64_t hits = 3;
  double level = 0.5;
  int owner_a = 0, owner_b = 0;
  reg.add_counter("a.hits", &hits, &owner_a);
  reg.add(obs::MetricKind::kGauge, "b.level",
          [](const void* c) { return *static_cast<const double*>(c); }, &level, &owner_b);

  ASSERT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.name(0), "a.hits");
  EXPECT_EQ(reg.kind(0), obs::MetricKind::kCounter);
  EXPECT_EQ(reg.read(0), 3.0);
  EXPECT_EQ(reg.name(1), "b.level");
  EXPECT_EQ(reg.kind(1), obs::MetricKind::kGauge);
  EXPECT_EQ(reg.read(1), 0.5);

  hits = 10;
  level = -1.25;
  EXPECT_EQ(reg.read(0), 10.0);
  EXPECT_EQ(reg.read(1), -1.25);
}

TEST(RegistryTest, ReleaseRemovesOnlyTheOwnersEntries) {
  obs::Registry reg;
  std::uint64_t a = 1, b = 2, c = 3;
  int owner_x = 0, owner_y = 0;
  reg.add_counter("x.first", &a, &owner_x);
  reg.add_counter("y.only", &b, &owner_y);
  reg.add_counter("x.second", &c, &owner_x);

  reg.release(&owner_x);
  ASSERT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.name(0), "y.only");
  EXPECT_EQ(reg.read(0), 2.0);

  reg.release(&owner_x);  // releasing again is a no-op
  EXPECT_EQ(reg.size(), 1u);
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorderTest, DisabledUntilConfiguredAndMaskGates) {
  obs::FlightRecorder rec;
  EXPECT_FALSE(rec.enabled());
  EXPECT_FALSE(rec.should(obs::RecordKind::kPktDrop));
  rec.set_enabled(true);  // no ring allocated: stays off
  EXPECT_FALSE(rec.enabled());

  rec.configure(8, obs::kind_bit(obs::RecordKind::kPktDrop));
  EXPECT_TRUE(rec.enabled());
  EXPECT_TRUE(rec.should(obs::RecordKind::kPktDrop));
  EXPECT_FALSE(rec.should(obs::RecordKind::kPktEnqueue));

  rec.set_enabled(false);
  EXPECT_FALSE(rec.should(obs::RecordKind::kPktDrop));
}

TEST(FlightRecorderTest, WrapDropsOldestKeepsNewest) {
  obs::FlightRecorder rec;
  rec.configure(4, obs::kAllKinds);
  for (std::int64_t i = 0; i < 10; ++i) {
    rec.record(obs::RecordKind::kPktEnqueue, i, 0, static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_records(), 10u);
  EXPECT_EQ(rec.dropped_records(), 6u);
  // Survivors are the newest four, oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.at(i).t_ns, static_cast<std::int64_t>(6 + i));
  }
}

TEST(FlightRecorderTest, PacketPackingRoundTrips) {
  const std::uint64_t a = obs::pack_packet(0xabcdu, 0x1234'5678u);
  EXPECT_EQ(obs::packet_flow(a), 0xabcdu);
  EXPECT_EQ(obs::packet_seq(a), 0x1234'5678u);
}

// ---------------------------------------------------------------------------
// Interval series / CSV

TEST(IntervalSeriesTest, CountersExportAsDeltasGaugesRaw) {
  obs::Registry reg;
  std::uint64_t events = 5;
  double depth = 2.5;
  int owner = 0;
  reg.add_counter("events", &events, &owner);
  reg.add(obs::MetricKind::kGauge, "depth",
          [](const void* c) { return *static_cast<const double*>(c); }, &depth, &owner);

  obs::IntervalSeries series(reg);
  series.reserve(4);
  series.sample(TimePoint(100'000'000));
  events = 12;
  depth = 1.0;
  series.sample(TimePoint(200'000'000));

  EXPECT_EQ(series.rows(), 2u);
  EXPECT_EQ(series.columns(), 2u);
  EXPECT_EQ(series.last_time(), TimePoint(200'000'000));
  EXPECT_EQ(series.value(1, 0), 12.0);  // raw accessor is undifferenced

  std::ostringstream out;
  series.write_csv(out);
  EXPECT_EQ(out.str(),
            "time_s,events,depth\n"
            "0.100000000,5,2.5\n"
            "0.200000000,7,1\n");  // counter delta 12-5, gauge raw
}

// ---------------------------------------------------------------------------
// The exporters' formatter: same bytes as the printf formats it replaced

// Each value on its own line, printed by printf and by one ChunkWriter.
template <typename T, typename Put>
void expect_lines_match(const std::vector<T>& values, const char* fmt_name, Put put_printf,
                        void (*put_chunk)(obs::ChunkWriter&, T)) {
  std::string want;
  char buf[64];
  for (const T v : values) {
    want.append(buf, static_cast<std::size_t>(put_printf(buf, sizeof(buf), v)));
    want += '\n';
  }
  std::ostringstream out;
  obs::ChunkWriter w(out);
  for (const T v : values) {
    put_chunk(w, v);
    w << '\n';
  }
  w.flush();
  const std::string got = out.str();
  if (got == want) return;
  // Name the first value that differs.
  std::istringstream g(got), e(want);
  std::string gl, el;
  for (const T v : values) {
    std::getline(g, gl);
    std::getline(e, el);
    if (gl != el) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(v));
      ADD_FAILURE() << fmt_name << " of bits 0x" << std::hex << bits << ": printf \"" << el
                    << "\", ChunkWriter \"" << gl << '"';
      return;
    }
  }
  ADD_FAILURE() << fmt_name << ": outputs differ in length";
}

TEST(ExportFormatTest, ValueMatchesPrintfG10) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, kInf, -kInf, kNan, -kNan, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MAX, -DBL_MAX, DBL_MIN, 1e10 - 1, 1e10,
      1e10 + 1, 9999999999.5, 99999999995.0, 1e-4, 1e-5, 0.1, 1.0 / 3.0, 2.5, 12.0, -7.0};
  util::Rng rng(0x5eed);
  // Random bit patterns reach every exponent, subnormals and NaN payloads.
  for (int i = 0; i < (1 << 20); ++i) {
    const std::uint64_t bits = rng.next();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);
  }
  // Counter deltas and gauges: integers and values of modest magnitude.
  for (int i = 0; i < (1 << 16); ++i) {
    values.push_back(static_cast<double>(rng.uniform_int(0, 1'000'000'000)));
    values.push_back(rng.uniform(-1e6, 1e6));
  }
  expect_lines_match<double>(
      values, "%.10g",
      [](char* buf, std::size_t n, double v) { return std::snprintf(buf, n, "%.10g", v); },
      [](obs::ChunkWriter& w, double v) { w.put_value(v); });
}

TEST(ExportFormatTest, TimeColumnsMatchPrintf) {
  std::vector<std::int64_t> ns;
  for (std::int64_t v = 0; v < 3000; ++v) ns.push_back(v);
  for (std::int64_t p = 10; p <= 1'000'000'000'000'000; p *= 10) {
    ns.push_back(p - 1);
    ns.push_back(p);
    ns.push_back(p + 1);
  }
  util::Rng rng(0x71e);
  for (int i = 0; i < (1 << 18); ++i) ns.push_back(rng.uniform_int(0, 1'000'000'000'000'000));
  // The interval CSV's time column: seconds with nanosecond digits.
  expect_lines_match<std::int64_t>(
      ns, "%lld.%09lld",
      [](char* buf, std::size_t n, std::int64_t v) {
        return std::snprintf(buf, n, "%lld.%09lld", static_cast<long long>(v / 1'000'000'000),
                             static_cast<long long>(v % 1'000'000'000));
      },
      [](obs::ChunkWriter& w, std::int64_t v) { w.put_fixed<9>(v); });
  // The Chrome trace's ts: microseconds with nanosecond digits.
  expect_lines_match<std::int64_t>(
      ns, "%lld.%03lld",
      [](char* buf, std::size_t n, std::int64_t v) {
        return std::snprintf(buf, n, "%lld.%03lld", static_cast<long long>(v / 1000),
                             static_cast<long long>(v % 1000));
      },
      [](obs::ChunkWriter& w, std::int64_t v) { w.put_fixed<3>(v); });
}

TEST(ExportFormatTest, StringsLongerThanAChunkPassThroughWhole) {
  const std::string big(3 * obs::ChunkWriter::kChunkBytes + 7, 'n');
  std::ostringstream out;
  obs::ChunkWriter w(out);
  w << "ab" << big << 'c' << std::string_view(big).substr(5) << std::uint16_t{42};
  w.flush();
  EXPECT_EQ(out.str(), "ab" + big + "c" + big.substr(5) + "42");
}

// Records every write the formatter hands to its stream.
class CountingBuf : public std::streambuf {
 public:
  std::string bytes;
  std::size_t writes = 0;
  std::size_t largest = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    ++writes;
    largest = std::max(largest, static_cast<std::size_t>(n));
    bytes.append(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }
};

TEST(IntervalSeriesTest, WriteCsvHandsTheStreamWholeChunks) {
  obs::Registry reg;
  std::vector<double> gauges(48, 0.0);
  int owner = 0;
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    reg.add(obs::MetricKind::kGauge, "link.bottleneck.fwd.gauge" + std::to_string(i),
            [](const void* c) { return *static_cast<const double*>(c); }, &gauges[i], &owner);
  }
  obs::IntervalSeries series(reg);
  util::Rng rng(3);
  series.reserve(2000);
  for (std::int64_t r = 0; r < 2000; ++r) {
    for (double& g : gauges) g = rng.uniform(-1e9, 1e9);
    series.sample(TimePoint(r * 100'000'000));
  }
  std::ostringstream plain;
  series.write_csv(plain);
  ASSERT_GT(plain.str().size(), 16 * obs::ChunkWriter::kChunkBytes);

  CountingBuf buf;
  std::ostream out(&buf);
  series.write_csv(out);
  EXPECT_EQ(buf.bytes, plain.str());
  // No write exceeds a chunk plus one field (a field is at most a 20-digit
  // integer, a '.' and 9 digits), and the text goes out in whole chunks,
  // not one write per field.
  EXPECT_LE(buf.largest, obs::ChunkWriter::kChunkBytes + 32);
  EXPECT_LE(buf.writes, buf.bytes.size() / (obs::ChunkWriter::kChunkBytes - 32) + 1);
}

// ---------------------------------------------------------------------------
// Chrome trace exporter

struct ChromeEvent {
  std::string ph;
  std::string id;
  double ts = 0.0;
};

// Line-oriented parse of the exporter's output (one event object per line).
std::vector<ChromeEvent> parse_chrome_trace(const std::string& json) {
  std::vector<ChromeEvent> events;
  std::istringstream in(json);
  std::string line;
  auto field = [](const std::string& l, const std::string& key) -> std::string {
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = l.find(needle);
    if (at == std::string::npos) return {};
    std::size_t begin = at + needle.size();
    std::size_t end = begin;
    if (l[begin] == '"') {
      ++begin;
      end = l.find('"', begin);
    } else {
      end = l.find_first_of(",}", begin);
    }
    return l.substr(begin, end - begin);
  };
  while (std::getline(in, line)) {
    if (line.find("\"ph\"") == std::string::npos) continue;
    ChromeEvent e;
    e.ph = field(line, "ph");
    e.id = field(line, "id");
    const std::string ts = field(line, "ts");
    if (!ts.empty()) e.ts = std::stod(ts);
    events.push_back(std::move(e));
  }
  return events;
}

// Every async begin must have exactly one matching end, later or equal in
// time; nothing may remain open.
void expect_spans_paired(const std::vector<ChromeEvent>& events) {
  std::map<std::string, double> open;
  for (const auto& e : events) {
    if (e.ph == "b") {
      ASSERT_FALSE(e.id.empty());
      ASSERT_EQ(open.count(e.id), 0u) << "duplicate open id " << e.id;
      open.emplace(e.id, e.ts);
    } else if (e.ph == "e") {
      auto it = open.find(e.id);
      ASSERT_NE(it, open.end()) << "end without begin, id " << e.id;
      EXPECT_GE(e.ts, it->second) << "negative span duration, id " << e.id;
      open.erase(it);
    }
  }
  EXPECT_TRUE(open.empty()) << open.size() << " spans left open";
}

TEST(ChromeTraceTest, EmitsSpansInstantsAndMetadata) {
  obs::FlightRecorder rec;
  rec.configure(16, obs::kAllKinds);
  const std::uint16_t tq = rec.register_track("q0");
  rec.record(obs::RecordKind::kPktEnqueue, 1'000, tq, obs::pack_packet(1, 5), 1);
  rec.record(obs::RecordKind::kPktDequeue, 2'500, tq, obs::pack_packet(1, 5), 0);
  rec.record(obs::RecordKind::kPktDrop, 3'000, tq, obs::pack_packet(2, 9), 1);

  std::ostringstream out;
  obs::write_chrome_trace(out, rec);
  const std::string json = out.str();

  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"q0\""), std::string::npos);
  EXPECT_NE(json.find("\"drop f2#9\""), std::string::npos);
  // Timestamps are microseconds with fixed sub-us digits: 1000 ns -> 1.000.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.500"), std::string::npos);

  const auto events = parse_chrome_trace(json);
  expect_spans_paired(events);
}

TEST(ChromeTraceTest, UnmatchedOpensAreClosedAtEnd) {
  obs::FlightRecorder rec;
  rec.configure(16, obs::kAllKinds);
  const std::uint16_t tq = rec.register_track("q0");
  rec.record(obs::RecordKind::kPktEnqueue, 1'000, tq, obs::pack_packet(1, 1), 1);
  rec.record(obs::RecordKind::kPktEnqueue, 2'000, tq, obs::pack_packet(1, 2), 2);
  rec.record(obs::RecordKind::kPktDequeue, 3'000, tq, obs::pack_packet(1, 1), 1);
  // seq 2 never dequeues (still queued when the run ended).

  std::ostringstream out;
  obs::write_chrome_trace(out, rec);
  expect_spans_paired(parse_chrome_trace(out.str()));
}

TEST(ChromeTraceTest, EmitsFecRepairAndDecodeInstants) {
  obs::FlightRecorder rec;
  rec.configure(16, obs::kAllKinds);
  const std::uint16_t tf = rec.register_track("fec.src");
  rec.record(obs::RecordKind::kFecRepair, 4'000, tf, obs::pack_packet(3, 17), 8);
  rec.record(obs::RecordKind::kFecDecode, 5'250, tf, obs::pack_packet(3, 18), 2);

  std::ostringstream out;
  obs::write_chrome_trace(out, rec);
  const std::string json = out.str();
  EXPECT_NE(json.find(R"({"cat":"pkt","name":"fec.repair f3#17","ph":"i","s":"t","pid":1,)"
                      R"("tid":1,"ts":4.000})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"({"cat":"pkt","name":"fec.decode f3#18","ph":"i","s":"t","pid":1,)"
                      R"("tid":1,"ts":5.250})"),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Profiler

TEST(LoopProfilerTest, AccumulatesPerTag) {
  obs::LoopProfiler prof;
  prof.record(obs::EventTag::kLinkTx, 100);
  prof.record(obs::EventTag::kLinkTx, 300);
  prof.record(obs::EventTag::kTcpRto, 50);

  EXPECT_EQ(prof.count(obs::EventTag::kLinkTx), 2u);
  EXPECT_EQ(prof.total_ns(obs::EventTag::kLinkTx), 400u);
  EXPECT_EQ(prof.count(obs::EventTag::kTcpRto), 1u);
  EXPECT_EQ(prof.total_count(), 3u);
  EXPECT_EQ(prof.histogram(obs::EventTag::kLinkTx).total(), 2u);

  std::ostringstream out;
  prof.report(out);
  EXPECT_NE(out.str().find("link.tx"), std::string::npos);
  EXPECT_NE(out.str().find("tcp.rto"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine counters + dispatch tags

TEST(EventQueueObsTest, CountsScheduledFiredCancelledAndHighWater) {
  sim::EventQueue q;
  auto h1 = q.schedule(TimePoint(10), [] {});
  auto h2 = q.schedule(TimePoint(20), [] {});
  q.schedule(TimePoint(30), [] {}, obs::EventTag::kLinkTx);
  (void)h1;
  EXPECT_EQ(q.scheduled_count(), 3u);
  EXPECT_EQ(q.heap_high_water(), 3u);

  h2.cancel();
  EXPECT_EQ(q.cancelled_count(), 1u);

  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(q.fired_count(), 2u);
  EXPECT_EQ(q.last_dispatch_tag(), obs::EventTag::kLinkTx);
  EXPECT_EQ(q.heap_high_water(), 3u);
}

TEST(SimulatorObsTest, TelemetryRegistersEngineMetricsAndProfiles) {
  sim::Simulator sim(1);
  obs::Telemetry telemetry;
  telemetry.enable_profiler();
  sim.set_telemetry(&telemetry);

  ASSERT_GT(telemetry.registry().size(), 0u);
  EXPECT_EQ(telemetry.registry().name(0), "engine.scheduled");

  int fired = 0;
  sim.in(Duration::millis(1), [&] { ++fired; }, obs::EventTag::kTcpRto);
  sim.in(Duration::millis(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(telemetry.profiler()->count(obs::EventTag::kTcpRto), 1u);
  EXPECT_EQ(telemetry.profiler()->count(obs::EventTag::kGeneric), 1u);

  sim.set_telemetry(nullptr);
  EXPECT_EQ(telemetry.registry().size(), 0u);
}

// ---------------------------------------------------------------------------
// Queue tracer mark occupancy (the LossTrace::on_mark fix)

TEST(QueueTracerTest, MarkRecordsRealQueueOccupancy) {
  sim::Simulator sim(2);
  net::PacketPool pool;
  net::PersistentEcnQueue q(2, Duration::millis(10));
  q.attach(&sim, &pool);
  net::LossTrace trace;
  q.set_tracer(&trace);

  net::Packet pkt;
  pkt.size_bytes = 1000;
  pkt.ecn_capable = true;
  pkt.flow = 1;
  // Fill to capacity, then overflow: the drop opens the marking window.
  ASSERT_TRUE(q.enqueue(pool.materialize(pkt)));
  ASSERT_TRUE(q.enqueue(pool.materialize(pkt)));
  ASSERT_FALSE(q.enqueue(pool.materialize(pkt)));
  ASSERT_EQ(trace.drops().size(), 1u);
  EXPECT_EQ(trace.drops()[0].queue_len, 2u);

  // Drain one, then enqueue inside the window: the packet is CE-marked and
  // the tracer must see the occupancy the arriving packet found (one packet
  // already queued), not zero.
  pool.release(q.dequeue());
  ASSERT_TRUE(q.enqueue(pool.materialize(pkt)));
  ASSERT_EQ(trace.marks().size(), 1u);
  EXPECT_EQ(trace.marks()[0].queue_len, 1u);
}

// ---------------------------------------------------------------------------
// Logger gating

TEST(LogMacroTest, DisabledLevelSkipsArgumentEvaluation) {
  const util::LogLevel saved = util::global_log_level();
  std::ostringstream out;
  util::Logger log("obs", out);

  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("payload");
  };

  util::set_global_log_level(util::LogLevel::kWarn);
  LOSSBURST_LOG_DEBUG(log, "dropped ", expensive());
  EXPECT_EQ(evaluations, 0);  // the macro guard short-circuits the call
  EXPECT_TRUE(out.str().empty());

  util::set_global_log_level(util::LogLevel::kDebug);
  LOSSBURST_LOG_DEBUG(log, "kept ", expensive());
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(out.str().find("kept payload"), std::string::npos);

  util::set_global_log_level(saved);
}

// ---------------------------------------------------------------------------
// End-to-end artifact export + determinism

core::DumbbellExperimentConfig small_obs_config(const std::string& dir) {
  core::DumbbellExperimentConfig cfg;
  cfg.seed = 21;
  cfg.tcp_flows = 2;
  cfg.noise_flows = 5;
  cfg.duration = Duration::seconds(2);
  cfg.warmup = Duration::millis(500);
  cfg.obs.dir = dir;
  cfg.obs.prefix = "t_";
  cfg.obs.interval = Duration::millis(100);
  cfg.obs.trace_capacity = 4096;
  return cfg;
}

std::string slurp(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << p;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ObsExportTest, RunWritesWellFormedArtifacts) {
  const auto dir = std::filesystem::temp_directory_path() / "lossburst_obs_export";
  std::filesystem::remove_all(dir);
  const auto result = core::run_dumbbell_experiment(small_obs_config(dir.string()));
  EXPECT_GT(result.bottleneck_packets, 0u);

  const std::string csv = slurp(dir / "t_intervals.csv");
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(csv.rfind("time_s,engine.scheduled", 0), 0u);  // header leads
  // ~25 sample rows for 2.5 s at 100 ms plus the final sample.
  const auto rows = std::count(csv.begin(), csv.end(), '\n') - 1;
  EXPECT_GE(rows, 25);

  const std::string json = slurp(dir / "t_trace.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  const auto events = parse_chrome_trace(json);
  if (obs::kTraceCompiledIn) {
    EXPECT_GT(events.size(), 100u);  // under LOSSBURST_TRACE=0 only metadata remains
  }
  expect_spans_paired(events);
  std::filesystem::remove_all(dir);
}

TEST(ObsExportTest, ReexportLandsInAFreshFileHoldingOnlyTheNewBytes) {
  const auto dir = std::filesystem::temp_directory_path() / "lossburst_obs_fresh";
  std::filesystem::remove_all(dir);
  obs::ObsConfig cfg;
  cfg.dir = dir.string();
  cfg.prefix = "x_";
  obs::Telemetry telemetry;
  std::uint64_t events = 0;
  int owner = 0;
  telemetry.registry().add_counter("events", &events, &owner);

  // The shorter series is the longer one's first rows, so an in-place
  // rewrite that kept the old tail would show.
  obs::IntervalSeries longer(telemetry.registry());
  obs::IntervalSeries shorter(telemetry.registry());
  for (std::int64_t r = 0; r < 5000; ++r) {
    events += static_cast<std::uint64_t>(r);
    longer.sample(TimePoint(r * 1'000'000));
    if (r < 100) shorter.sample(TimePoint(r * 1'000'000));
  }
  std::ostringstream long_csv, short_csv;
  longer.write_csv(long_csv);
  shorter.write_csv(short_csv);

  obs::export_artifacts(cfg, telemetry, longer);
  const auto csv = dir / "x_intervals.csv";
  ASSERT_EQ(slurp(csv), long_csv.str());
  struct stat before {};
  ASSERT_EQ(::stat(csv.c_str(), &before), 0);
  std::ifstream held(csv, std::ios::binary);  // keeps the old file's inode alive

  obs::export_artifacts(cfg, telemetry, shorter);
  EXPECT_EQ(slurp(csv), short_csv.str());
  struct stat after {};
  ASSERT_EQ(::stat(csv.c_str(), &after), 0);
  EXPECT_NE(after.st_ino, before.st_ino);
  // The reader of the old file still sees all of it: it was replaced, not
  // truncated.
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(held), {}), long_csv.str());
  std::filesystem::remove_all(dir);
}

TEST(ObsExportTest, WriteArtifactThrowsNamingThePath) {
  const auto dir = std::filesystem::temp_directory_path() / "lossburst_obs_fail";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "busy" / "inside");
  auto write_x = [](std::ostream& out) { out << "x\n"; };
  auto expect_throw_naming = [&](const std::filesystem::path& path,
                                 const std::function<void(std::ostream&)>& write) {
    try {
      obs::write_artifact(path, write);
      ADD_FAILURE() << "no exception for " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path.string()), std::string::npos) << e.what();
    }
  };
  // The old "file" cannot be removed: it is a non-empty directory.
  expect_throw_naming(dir / "busy", write_x);
  // The new file cannot be created: a path ending in '/' names a directory.
  expect_throw_naming(dir / "new" / "", write_x);
  // The content cannot be written.
  expect_throw_naming(dir / "bad.csv",
                      [](std::ostream& out) { out.setstate(std::ios::badbit); });
  // A good write replaces nothing else.
  obs::write_artifact(dir / "ok.csv", write_x);
  EXPECT_EQ(slurp(dir / "ok.csv"), "x\n");
  std::filesystem::remove_all(dir);
}

TEST(ObsSessionTest, RejectsNonPositiveSamplingInterval) {
  for (const Duration interval : {Duration::zero(), Duration::millis(-100)}) {
    sim::Simulator sim(5);
    obs::ObsConfig cfg;
    cfg.dir = (std::filesystem::temp_directory_path() / "lossburst_obs_unused").string();
    cfg.interval = interval;
    core::ObsSession session(sim, cfg);
    EXPECT_THROW(session.start_sampling(Duration::seconds(60)), std::invalid_argument)
        << interval.ns();
    EXPECT_EQ(session.series(), nullptr) << "nothing may be reserved first";
  }
  // The experiments surface it before running anything.
  core::DumbbellExperimentConfig cfg = small_obs_config(
      (std::filesystem::temp_directory_path() / "lossburst_obs_unused").string());
  cfg.obs.interval = Duration::zero();
  EXPECT_THROW(core::run_dumbbell_experiment(cfg), std::invalid_argument);
}

TEST(ObsExportTest, SameSeedRunsAreByteIdenticalEvenOnThreadPool) {
  const auto base = std::filesystem::temp_directory_path() / "lossburst_obs_det";
  std::filesystem::remove_all(base);

  // Reference run, serial.
  core::run_dumbbell_experiment(small_obs_config((base / "serial").string()));

  // Two more identically-seeded runs, concurrently on the pool.
  util::ThreadPool tp;
  tp.parallel_for(2, [&](std::size_t i) {
    core::run_dumbbell_experiment(
        small_obs_config((base / ("pool" + std::to_string(i))).string()));
  });

  const std::string ref_csv = slurp(base / "serial" / "t_intervals.csv");
  const std::string ref_json = slurp(base / "serial" / "t_trace.json");
  ASSERT_FALSE(ref_csv.empty());
  ASSERT_FALSE(ref_json.empty());
  for (int i = 0; i < 2; ++i) {
    const auto dir = base / ("pool" + std::to_string(i));
    EXPECT_EQ(slurp(dir / "t_intervals.csv"), ref_csv) << dir;
    EXPECT_EQ(slurp(dir / "t_trace.json"), ref_json) << dir;
  }
  std::filesystem::remove_all(base);
}

}  // namespace
