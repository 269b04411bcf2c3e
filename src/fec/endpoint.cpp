#include "fec/endpoint.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "net/link.hpp"
#include "util/invariant.hpp"

namespace lossburst::fec {

namespace {

/// Bound on the sink's per-feedback NACK scan (symbols examined, not
/// requested) — keeps the feedback tick O(1) even mid-outage.
constexpr SeqNum kNackScanLimit = 512;
/// Tail-loss kicker width: symbols re-sent per tick when the stream has
/// ended but the frontier is stuck on losses the sink cannot see.
constexpr SeqNum kTailKick = 8;

std::string metric_prefix(FlowId flow) {
  return "fec." + std::to_string(flow);
}

}  // namespace

FecSource::FecSource(sim::Simulator& sim, FlowId flow, FecParams params)
    : sim_(sim),
      flow_(flow),
      params_(params),
      rng_(params.seed ^ (0x9e3779b97f4a7c15ULL * (flow + 1))),
      controller_(params.policy,
                  std::max(params.window_cap, params.block_k),
                  params.repair_rate, params.window_depth),
      repair_rate_(params.repair_rate),
      repair_group_(std::max(1u, params.repair_group)),
      window_depth_(params.window_depth) {
  params_.window_cap = std::max(params_.window_cap, params_.block_k);
  // lossburst-lint: allow(datapath-alloc): one-time per-symbol gate pre-size
  last_retx_.assign(params_.symbols, TimePoint::zero());
  if (obs::Telemetry* t = sim_.telemetry()) {
    telemetry_ = t;
    track_ = t->recorder().register_track(metric_prefix(flow_) + ".src");
    const std::string p = metric_prefix(flow_);
    obs::Registry& r = t->registry();
    r.add_counter(p + ".src.source", &source_sent_, this);
    r.add_counter(p + ".src.repairs", &repairs_sent_, this);
    r.add_counter(p + ".src.retx", &retx_sent_, this);
    r.add_counter(p + ".src.feedback", &feedback_rcvd_, this);
    r.add(obs::MetricKind::kGauge, p + ".src.repair_rate",
          [](const void* c) { return static_cast<const FecSource*>(c)->repair_rate_; },
          this, this);
    r.add(obs::MetricKind::kGauge, p + ".src.window",
          [](const void* c) {
            return static_cast<double>(static_cast<const FecSource*>(c)->window_depth_);
          },
          this, this);
    r.add(obs::MetricKind::kGauge, p + ".src.degraded",
          [](const void* c) {
            return static_cast<const FecSource*>(c)->controller_.degraded() ? 1.0 : 0.0;
          },
          this, this);
    r.add(obs::MetricKind::kGauge, p + ".src.frontier",
          [](const void* c) {
            return static_cast<double>(static_cast<const FecSource*>(c)->ack_frontier_);
          },
          this, this);
    t->flows().add(
        flow_,
        [](const void* c) {
          const auto* s = static_cast<const FecSource*>(c);
          obs::FlowSample f;
          f.bytes = (s->source_sent_ + s->repairs_sent_ + s->retx_sent_) *
                    s->params_.packet_bytes;
          f.retransmits = s->retx_sent_;
          return f;
        },
        this, this);
  }
}

FecSource::~FecSource() {
  if (telemetry_ != nullptr) {
    telemetry_->registry().release(this);
    telemetry_->flows().release(this);
  }
}

void FecSource::start(TimePoint at) {
  assert(route_ != nullptr && sink_ != nullptr);
  sim_.at(at, [this, at] {
    running_ = true;
    start_time_ = at;
    tick();
  }, obs::EventTag::kAppStart);
}

void FecSource::stop() {
  running_ = false;
  timer_.cancel();
}

void FecSource::finish() {
  finished_ = true;
  running_ = false;
  timer_.cancel();
}

void FecSource::tick() {
  if (!running_) return;
  if (next_seq_ < params_.symbols) {
    send_source(next_seq_, false);
    ++next_seq_;
    switch (params_.mode) {
      case FecMode::kArq:
        break;
      case FecMode::kBlock:
        if (next_seq_ % params_.block_k == 0 || next_seq_ == params_.symbols) {
          const std::uint64_t gen_base =
              ((next_seq_ - 1) / params_.block_k) * params_.block_k;
          const auto len = static_cast<std::uint32_t>(next_seq_ - gen_base);
          for (std::uint32_t i = 0; i < params_.block_r; ++i) {
            send_repair(gen_base, len);
          }
        }
        break;
      case FecMode::kSliding:
        emit_sliding_repairs();
        break;
    }
  } else {
    // Tail phase: the stream is out but the sink's frontier has not caught
    // up. Sliding mode keeps trickling repairs over the unacked suffix;
    // ARQ (and any mode with the fallback enabled) re-kicks the stall head
    // — losses at the very end of the stream are invisible to the sink's
    // gap detector, so the source must volunteer them.
    if (params_.mode == FecMode::kSliding) emit_sliding_repairs();
    if (params_.mode == FecMode::kArq || params_.arq_fallback) {
      const SeqNum end = std::min(params_.symbols, ack_frontier_ + kTailKick);
      for (SeqNum s = ack_frontier_; s < end; ++s) maybe_retransmit(s);
    }
  }
  if (!finished_ && running_) {
    timer_ = sim_.in(params_.interval, [this] { tick(); }, obs::EventTag::kFecSource);
  }
}

void FecSource::send_source(SeqNum seq, bool retransmit) {
  Packet pkt;
  pkt.flow = flow_;
  pkt.seq = seq;
  pkt.size_bytes = params_.packet_bytes;
  pkt.sent = sim_.now();
  pkt.route = route_;
  pkt.sink = sink_;
  if (retransmit) {
    ++retx_sent_;
    if (obs::FlightRecorder* rec =
            obs::trace_recorder(telemetry_, obs::RecordKind::kFecRepair)) {
      rec->record(obs::RecordKind::kFecRepair, sim_.now().ns(), track_,
                  obs::pack_packet(flow_, seq), 0);
    }
  } else {
    ++source_sent_;
  }
  net::inject(std::move(pkt));
}

void FecSource::send_repair(std::uint64_t window_base, std::uint32_t len) {
  LOSSBURST_INVARIANT(len > 0 && len <= params_.window_cap,
                      "fec: source repair window out of range");
  Packet pkt;
  pkt.flow = flow_;
  pkt.seq = window_base + len - 1;  // last covered symbol, for traces
  pkt.size_bytes = params_.packet_bytes;
  pkt.sent = sim_.now();
  pkt.route = route_;
  pkt.sink = sink_;
  net::PacketOptions opt{};
  opt.fec.kind = static_cast<std::uint8_t>(FecPacketKind::kRepair);
  opt.fec.window_base = window_base;
  opt.fec.window_len = len;
  opt.fec.coeff_seed = rng_.next();
  ++repairs_sent_;
  if (obs::FlightRecorder* rec =
          obs::trace_recorder(telemetry_, obs::RecordKind::kFecRepair)) {
    rec->record(obs::RecordKind::kFecRepair, sim_.now().ns(), track_,
                obs::pack_packet(flow_, window_base + len - 1), len);
  }
  net::inject(std::move(pkt), &opt);
}

void FecSource::emit_sliding_repairs() {
  repair_acc_ += repair_rate_;
  const auto group = std::max<std::uint32_t>(1, repair_group_);
  while (repair_acc_ >= static_cast<double>(group)) {
    repair_acc_ -= static_cast<double>(group);
    for (std::uint32_t i = 0; i < group; ++i) {
      const SeqNum hi = next_seq_;
      SeqNum lo = ack_frontier_;
      if (hi - lo > window_depth_) lo = hi - window_depth_;
      if (hi - lo > params_.window_cap) lo = hi - params_.window_cap;
      if (lo >= hi) return;
      send_repair(lo, static_cast<std::uint32_t>(hi - lo));
    }
  }
}

void FecSource::maybe_retransmit(SeqNum seq) {
  if (seq >= next_seq_ || seq >= params_.symbols) return;  // never sent
  const TimePoint last = last_retx_[static_cast<std::size_t>(seq)];
  if (last != TimePoint::zero() && sim_.now() - last < params_.retx_backoff) return;
  last_retx_[static_cast<std::size_t>(seq)] = sim_.now();
  send_source(seq, true);
}

void FecSource::receive(const Packet& pkt, const net::PacketOptions* opt) {
  if (opt == nullptr ||
      opt->fec.kind != static_cast<std::uint8_t>(FecPacketKind::kFeedback)) {
    return;
  }
  ++feedback_rcvd_;
  if (pkt.ack_seq > ack_frontier_) ack_frontier_ = pkt.ack_seq;
  if (params_.mode == FecMode::kSliding && params_.adaptive) {
    analysis::GilbertFit fit;
    fit.p_good_to_bad = opt->fec.fit_p;
    fit.p_bad_to_good = opt->fec.fit_q;
    fit.loss_rate = opt->fec.fit_loss;
    fit.state_changes = 2;  // confidence is conveyed by the flag below
    fit.low_confidence = (opt->fec.fit_flags & 1u) != 0;
    controller_.update(fit, fit.low_confidence);
    repair_rate_ = controller_.repair_rate();
    repair_group_ = controller_.repair_group();
    window_depth_ = controller_.window_depth();
  }
  if (params_.mode == FecMode::kArq || params_.arq_fallback) {
    for (std::uint8_t i = 0; i < opt->fec.nack_count; ++i) {
      maybe_retransmit(opt->fec.nacks[i]);
    }
  }
  if (ack_frontier_ >= params_.symbols) finish();
}

FecSink::FecSink(sim::Simulator& sim, FlowId flow, FecParams params)
    : sim_(sim),
      flow_(flow),
      params_(params),
      decoder_(std::max(params.window_cap, params.block_k)) {
  params_.window_cap = std::max(params_.window_cap, params_.block_k);
  if (params_.mode == FecMode::kBlock) decoder_.set_generation(params_.block_k);
  // lossburst-lint: allow(datapath-alloc): one-time per-symbol log pre-size
  received_.assign(params_.symbols, 0);
  deliver_at_.assign(params_.symbols, TimePoint::max());
  last_nack_.assign(params_.symbols, TimePoint::zero());
  if (obs::Telemetry* t = sim_.telemetry()) {
    telemetry_ = t;
    track_ = t->recorder().register_track(metric_prefix(flow_) + ".rcv");
    const std::string p = metric_prefix(flow_);
    obs::Registry& r = t->registry();
    r.add_counter(p + ".rcv.delivered", &delivered_, this);
    r.add_counter(p + ".rcv.decoded", &decoded_, this);
    r.add_counter(p + ".rcv.redundant", &decoder_.stats().redundant, this);
    r.add_counter(p + ".rcv.overflow", &decoder_.stats().overflow, this);
    r.add_counter(p + ".rcv.feedback", &feedback_sent_, this);
    r.add(obs::MetricKind::kGauge, p + ".rcv.rank",
          [](const void* c) {
            return static_cast<double>(static_cast<const FecSink*>(c)->decoder_.rank());
          },
          this, this);
    r.add(obs::MetricKind::kGauge, p + ".rcv.fit_p",
          [](const void* c) { return static_cast<const FecSink*>(c)->fit_p_gauge_; },
          this, this);
    r.add(obs::MetricKind::kGauge, p + ".rcv.fit_q",
          [](const void* c) { return static_cast<const FecSink*>(c)->fit_q_gauge_; },
          this, this);
    r.add(obs::MetricKind::kGauge, p + ".rcv.fit_held",
          [](const void* c) { return static_cast<const FecSink*>(c)->fit_held_gauge_; },
          this, this);
  }
}

FecSink::~FecSink() {
  if (telemetry_ != nullptr) telemetry_->registry().release(this);
}

void FecSink::start(TimePoint at) {
  assert(rev_route_ != nullptr && source_ != nullptr);
  sim_.at(at, [this] {
    running_ = true;
    feedback_tick();
  }, obs::EventTag::kAppStart);
}

void FecSink::stop() {
  running_ = false;
  timer_.cancel();
}

void FecSink::record_stream_gap(SeqNum seq) {
  // Gap-based first-transmission loss record, against the deterministic
  // CBR symbol schedule: arriving above the highest-seen systematic seq
  // marks the skipped symbols lost (late repairs may still recover them —
  // the record captures the *channel*, not the final outcome).
  if (seq < highest_seen_) {
    // Refill of an already-recorded gap (retransmission or duplicate).
    // Still a fresh delivery observation: after an outage the stream may be
    // over, and retransmissions are then the only evidence the channel
    // recovered — without this the fitted loss stays pinned at the outage
    // level and the controller never leaves the degraded state.
    fitter_.push(false);
    return;
  }
  for (SeqNum g = highest_seen_; g < seq; ++g) fitter_.push(true);
  fitter_.push(false);
  highest_seen_ = seq + 1;
}

void FecSink::drain_releases() {
  for (;;) {
    const std::uint64_t old_base = decoder_.base();
    const std::uint32_t f = decoder_.take_released();
    for (std::uint32_t i = 0; i < f; ++i) {
      const SeqNum s = old_base + i;
      if (s >= params_.symbols) continue;
      deliver_at_[static_cast<std::size_t>(s)] = sim_.now();
      ++delivered_;
      if (received_[static_cast<std::size_t>(s)] == 0) {
        ++decoded_;
        if (obs::FlightRecorder* rec =
                obs::trace_recorder(telemetry_, obs::RecordKind::kFecDecode)) {
          rec->record(obs::RecordKind::kFecDecode, sim_.now().ns(), track_,
                      obs::pack_packet(flow_, s), decoder_.rank());
        }
      }
    }
    if (f == 0) return;
    // The base advanced: replay systematic copies that arrived while the
    // head was stalled and overflowed the window (a stall of one NACK round
    // trip outruns the window capacity at this symbol rate). The endpoint
    // decodes in coefficient-only mode — arrival alone re-creates the
    // pivot — so replaying from the received_ bitmap loses nothing. The
    // replay can unlock further releases, hence the outer loop.
    const SeqNum lo = decoder_.base();
    const SeqNum hi =
        std::min({static_cast<SeqNum>(params_.symbols), highest_known_,
                  lo + static_cast<SeqNum>(decoder_.capacity())});
    for (SeqNum s = lo; s < hi; ++s) {
      if (received_[static_cast<std::size_t>(s)] != 0 && !decoder_.has_pivot(s)) {
        decoder_.add_systematic(s);
      }
    }
  }
}

void FecSink::receive(const Packet& pkt, const net::PacketOptions* opt) {
  if (opt != nullptr &&
      opt->fec.kind == static_cast<std::uint8_t>(FecPacketKind::kRepair)) {
    const std::uint64_t wend = opt->fec.window_base + opt->fec.window_len;
    if (wend > highest_known_) highest_known_ = wend;
    decoder_.add_coded(opt->fec.window_base, opt->fec.window_len,
                       opt->fec.coeff_seed);
    drain_releases();
    return;
  }
  if (pkt.is_ack) return;
  const SeqNum s = pkt.seq;
  if (s >= params_.symbols) return;
  record_stream_gap(s);
  if (s + 1 > highest_known_) highest_known_ = s + 1;
  // Mark arrival unconditionally: an overflowed copy (window still parked
  // on a stalled head) is replayed from this bitmap by drain_releases()
  // once the window slides forward, instead of being re-requested.
  decoder_.add_systematic(s);
  received_[static_cast<std::size_t>(s)] = 1;
  drain_releases();
}

void FecSink::feedback_tick() {
  if (!running_) return;
  const analysis::GilbertFit& fit = fitter_.refresh();
  const bool held = fitter_.held() || fit.low_confidence;
  fit_p_gauge_ = fit.p_good_to_bad;
  fit_q_gauge_ = fit.p_bad_to_good;
  fit_held_gauge_ = held ? 1.0 : 0.0;

  Packet fb;
  fb.flow = flow_;
  fb.is_ack = true;
  fb.size_bytes = net::kAckPacketBytes + 24;  // frontier + fit + NACK list
  fb.sent = sim_.now();
  fb.ack_seq = decoder_.base();
  fb.route = rev_route_;
  fb.sink = source_;
  net::PacketOptions opt{};
  opt.fec.kind = static_cast<std::uint8_t>(FecPacketKind::kFeedback);
  opt.fec.fit_p = static_cast<float>(fit.p_good_to_bad);
  opt.fec.fit_q = static_cast<float>(fit.p_bad_to_good);
  opt.fec.fit_loss = static_cast<float>(fit.loss_rate);
  opt.fec.fit_flags = held ? 1 : 0;
  std::uint8_t n = 0;
  const SeqNum lo = decoder_.base();
  // Never request beyond what the decoder can store: a retransmission that
  // lands past base + capacity is dropped as overflow and the request was
  // wasted. The frontier advances as earlier retransmissions arrive, which
  // exposes the next capacity-sized span to the scan.
  const SeqNum span = std::min<SeqNum>(kNackScanLimit, decoder_.capacity());
  const SeqNum hi = std::min<SeqNum>(highest_known_, lo + span);
  for (SeqNum s = lo; s < hi && n < net::FecInfo::kMaxNacks; ++s) {
    if (s >= params_.symbols || received_[static_cast<std::size_t>(s)] != 0 ||
        decoder_.has_pivot(s)) {
      continue;
    }
    TimePoint& last = last_nack_[static_cast<std::size_t>(s)];
    if (last != TimePoint::zero() && sim_.now() - last < params_.nack_backoff) {
      continue;
    }
    last = sim_.now();
    opt.fec.nacks[n++] = s;
  }
  opt.fec.nack_count = n;
  ++feedback_sent_;
  net::inject(std::move(fb), &opt);

  if (complete()) {
    // This report already carries the final frontier; fall silent.
    final_report_sent_ = true;
    running_ = false;
    return;
  }
  timer_ = sim_.in(params_.feedback_interval, [this] { feedback_tick(); },
                   obs::EventTag::kFecFeedback);
}

}  // namespace lossburst::fec
