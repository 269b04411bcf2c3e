#include "obs/export.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "obs/tags.hpp"
#include "util/csv.hpp"

namespace lossburst::obs {

namespace {

void put_json_string(ChunkWriter& w, std::string_view s) {
  w << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') w << '\\';
    w << c;
  }
  w << '"';
}

// The packet a record names, as `f<flow>#<seq>`.
void put_packet(ChunkWriter& w, std::uint64_t a) {
  w << 'f' << packet_flow(a) << '#' << packet_seq(a);
}

}  // namespace

IntervalSeries::IntervalSeries(const Registry& registry) : registry_(&registry) {
  names_.reserve(registry.size());
  kinds_.reserve(registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    names_.push_back(registry.name(i));
    kinds_.push_back(registry.kind(i));
  }
}

void IntervalSeries::reserve(std::size_t rows) {
  times_.reserve(rows);
  values_.reserve(rows * names_.size());
}

void IntervalSeries::sample(util::TimePoint t) {
  times_.push_back(t);
  for (std::size_t i = 0; i < names_.size(); ++i) values_.push_back(registry_->read(i));
}

void IntervalSeries::write_csv(std::ostream& out) const {
  ChunkWriter w(out);
  w << "time_s";
  for (const std::string& name : names_) {
    w << ',';
    util::write_csv_field(w, name);
  }
  w << '\n';
  const std::size_t n = names_.size();
  for (std::size_t r = 0; r < times_.size(); ++r) {
    w.put_fixed<9>(times_[r].ns());
    for (std::size_t c = 0; c < n; ++c) {
      double v = values_[r * n + c];
      if (kinds_[c] == MetricKind::kCounter && r > 0) v -= values_[(r - 1) * n + c];
      w << ',';
      w.put_value(v);
    }
    w << '\n';
  }
  w.flush();
}

std::size_t series_rows(util::Duration horizon, util::Duration interval) {
  if (interval <= util::Duration::zero()) {
    throw std::invalid_argument("obs: the sampling interval must be positive, got " +
                                std::to_string(interval.ns()) + " ns");
  }
  return static_cast<std::size_t>(horizon.ns() / interval.ns()) + 2;
}

namespace {

// One recorder's events under one trace_event pid. `first` and `next_id`
// are shared across shards so the comma framing and span ids stay globally
// unique in the multi-recorder output.
void write_trace_process(ChunkWriter& w, const FlightRecorder& rec, int pid,
                         std::string_view process_name, bool& first,
                         std::uint64_t& next_id) {
  auto sep = [&] {
    if (!first) w << ",\n";
    first = false;
  };

  sep();
  w << R"({"name":"process_name","ph":"M","pid":)" << pid << R"(,"tid":0,"args":{"name":)";
  put_json_string(w, process_name);
  w << "}}";
  const std::vector<std::string>& tracks = rec.track_names();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    sep();
    w << R"({"name":"thread_name","ph":"M","pid":)" << pid << R"(,"tid":)" << i
      << R"(,"args":{"name":)";
    put_json_string(w, tracks[i]);
    w << "}}";
  }

  // Open async spans: (track, packet id) -> span id and open time. std::map
  // so that the end-of-trace close pass iterates in a deterministic order.
  struct Span {
    std::uint64_t id;
    std::int64_t t_ns;
  };
  std::map<std::pair<std::uint16_t, std::uint64_t>, Span> open;
  std::int64_t last_ns = 0;

  auto put_async = [&](char ph, std::uint16_t track, std::uint64_t a, std::uint64_t id,
                       std::int64_t ns) {
    sep();
    w << R"({"cat":"q","name":")";
    put_packet(w, a);
    w << R"(","ph":")" << ph << R"(","id":)" << id << R"(,"pid":)" << pid << R"(,"tid":)"
      << track << R"(,"ts":)";
    w.put_fixed<3>(ns);
    w << '}';
  };
  // An instant on the record's track, its name followed by the record's
  // packet when `names_packet`.
  auto put_instant = [&](std::string_view name, const TraceRecord& r, bool names_packet) {
    sep();
    w << R"({"cat":"pkt","name":")" << name;
    if (names_packet) {
      w << ' ';
      put_packet(w, r.a);
    }
    w << R"(","ph":"i","s":"t","pid":)" << pid << R"(,"tid":)" << r.track << R"(,"ts":)";
    w.put_fixed<3>(r.t_ns);
    w << '}';
  };

  for (std::size_t i = 0; i < rec.size(); ++i) {
    const TraceRecord& r = rec.at(i);
    last_ns = r.t_ns;
    switch (static_cast<RecordKind>(r.kind)) {
      case RecordKind::kPktEnqueue: {
        const std::uint64_t id = next_id++;
        open[{r.track, r.a}] = Span{id, r.t_ns};
        put_async('b', r.track, r.a, id, r.t_ns);
        break;
      }
      case RecordKind::kPktDequeue: {
        auto it = open.find({r.track, r.a});
        if (it != open.end()) {
          put_async('e', r.track, r.a, it->second.id, r.t_ns);
          open.erase(it);
        }
        break;
      }
      case RecordKind::kPktDrop:
        put_instant("drop", r, true);
        break;
      case RecordKind::kPktMark:
        put_instant("mark", r, true);
        break;
      case RecordKind::kPktDeliver:
        put_instant("deliver", r, true);
        break;
      case RecordKind::kCwnd: {
        double v;
        static_assert(sizeof(v) == sizeof(r.a));
        std::memcpy(&v, &r.a, sizeof(v));
        sep();
        w << R"({"cat":"cwnd","name":")" << tracks[r.track] << R"( cwnd","ph":"C","pid":)"
          << pid << R"(,"ts":)";
        w.put_fixed<3>(r.t_ns);
        w << R"(,"args":{"cwnd":)";
        w.put_value(v);
        w << "}}";
        break;
      }
      case RecordKind::kFaultDrop:
        put_instant("fault.drop", r, true);
        break;
      case RecordKind::kFaultEvent:
        put_instant("fault.event", r, false);
        break;
      case RecordKind::kFecRepair:
        put_instant("fec.repair", r, true);
        break;
      case RecordKind::kFecDecode:
        put_instant("fec.decode", r, true);
        break;
      case RecordKind::kEventDispatch:
        put_instant(tag_name(static_cast<EventTag>(r.a)), r, false);
        break;
      case RecordKind::kKindCount:
        break;
    }
  }

  // Packets still queued when the run ended: close their spans at the last
  // timestamp so every "b" has a matching "e".
  for (const auto& [key, span] : open) {
    put_async('e', key.first, key.second, span.id, std::max(last_ns, span.t_ns));
  }
}

}  // namespace

void write_chrome_trace(std::ostream& out, const FlightRecorder& rec) {
  ChunkWriter w(out);
  w << "[\n";
  bool first = true;
  std::uint64_t next_id = 1;
  write_trace_process(w, rec, 1, "lossburst", first, next_id);
  w << "\n]\n";
  w.flush();
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<const FlightRecorder*>& shards) {
  ChunkWriter w(out);
  w << "[\n";
  bool first = true;
  std::uint64_t next_id = 1;
  for (std::size_t k = 0; k < shards.size(); ++k) {
    write_trace_process(w, *shards[k], static_cast<int>(k) + 1,
                        "shard " + std::to_string(k), first, next_id);
  }
  w << "\n]\n";
  w.flush();
}

void write_artifact(const std::filesystem::path& path,
                    const std::function<void(std::ostream&)>& write) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    throw std::runtime_error("obs: cannot replace " + path.string() + ": " + ec.message());
  }
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("obs: cannot create " + path.string() + ": " +
                             std::generic_category().message(errno));
  }
  write(f);
  f.close();
  if (!f) throw std::runtime_error("obs: cannot write " + path.string());
}

void export_artifacts(const ObsConfig& cfg, const Telemetry& telemetry,
                      const IntervalSeries& series) {
  if (!cfg.writes_artifacts()) return;
  const std::filesystem::path dir = cfg.dir;
  std::filesystem::create_directories(dir);
  write_artifact(dir / (cfg.prefix + "intervals.csv"),
                 [&](std::ostream& out) { series.write_csv(out); });
  write_artifact(dir / (cfg.prefix + "trace.json"),
                 [&](std::ostream& out) { write_chrome_trace(out, telemetry.recorder()); });
  if (const LoopProfiler* prof = telemetry.profiler()) {
    write_artifact(dir / (cfg.prefix + "profile.txt"),
                   [&](std::ostream& out) { prof->report(out); });
  }
}

}  // namespace lossburst::obs
