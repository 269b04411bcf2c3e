// Streaming-FEC endpoints (DESIGN.md §15): a source that emits a CBR-paced
// symbol stream with configurable repair (none/ARQ, block, adaptive
// sliding-window RLC) and a sink that decodes, releases in order, and
// closes the adaptation loop with periodic feedback.
//
// Wire model, mirroring the SACK/TFRC options split:
//  - source symbols and retransmissions are plain option-free data packets
//    (seq = symbol number);
//  - repair packets attach a FecInfo options record carrying the encoding
//    window and coefficient seed — never the coefficients themselves;
//  - feedback packets flow on the reverse route (is_ack) with ack_seq = the
//    sink's in-order release frontier and a FecInfo carrying the fitted
//    Gilbert (p, q), its confidence flag, and up to FecInfo::kMaxNacks
//    repair requests.
//
// Determinism: the source's coefficient-seed stream is a util::Rng derived
// from (params.seed, flow) only — never from any simulator RNG — so runs
// are byte-identical serial vs ThreadPool and across shard counts, and an
// endpoint pair can sit on either side of a shard cut.
#pragma once

#include <cstdint>
#include <vector>

#include "fec/adapt.hpp"
#include "fec/codec.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace lossburst::fec {

using net::FlowId;
using net::Packet;
using net::Route;
using net::SeqNum;
using util::Duration;
using util::TimePoint;

/// Repair discipline of a FecSource/FecSink pair.
enum class FecMode : std::uint8_t {
  kArq = 0,   ///< no coding: NACK-driven retransmission only
  kBlock,     ///< k data + r repair per generation, fixed rate
  kSliding,   ///< sliding-window RLC, optionally burst-adaptive
};

/// FecInfo::kind values (source/retransmit packets carry no options).
enum class FecPacketKind : std::uint8_t { kRepair = 1, kFeedback = 2 };

struct FecParams {
  FecMode mode = FecMode::kSliding;
  std::uint32_t packet_bytes = net::kDataPacketBytes;
  Duration interval = Duration::millis(2);   ///< source symbol pacing
  std::uint64_t symbols = 5000;              ///< stream length
  // Block mode: r repairs over each k-symbol generation.
  std::uint32_t block_k = 16;
  std::uint32_t block_r = 2;
  // Sliding mode initial knobs (retuned online when adaptive).
  double repair_rate = 0.125;     ///< repairs per source symbol
  std::uint32_t repair_group = 1; ///< repairs emitted back-to-back
  std::uint32_t window_depth = 64;
  std::uint32_t window_cap = 128; ///< decoder capacity (columns/rows)
  bool adaptive = true;           ///< consume fitted p/q from feedback
  bool arq_fallback = true;       ///< serve NACK retransmissions
  Duration feedback_interval = Duration::millis(20);
  Duration retx_backoff = Duration::millis(60);  ///< per-seq NACK re-service
  /// Sink-side per-seq NACK pacing: a missing symbol is not re-requested
  /// while a prior request may still be in flight (roughly one RTT). The
  /// feedback interval is much shorter than the path RTT, so without this
  /// every report would re-NACK the same head-of-line symbols and the
  /// retransmission traffic multiplies by RTT / feedback_interval.
  Duration nack_backoff = Duration::millis(250);
  RepairPolicy policy{};          ///< adaptive controller policy
  std::uint64_t seed = 0x5eedfecULL;  ///< coefficient-stream seed base
};

class FecSink;

/// The sender half; also a net::Endpoint so it terminates feedback packets.
class FecSource final : public net::Endpoint {
 public:
  FecSource(sim::Simulator& sim, FlowId flow, FecParams params);
  ~FecSource() override;
  FecSource(const FecSource&) = delete;
  FecSource& operator=(const FecSource&) = delete;

  void connect(const Route* route, net::Endpoint* sink) {
    route_ = route;
    sink_ = sink;
  }

  void start(TimePoint at);
  void stop();

  void receive(const Packet& pkt, const net::PacketOptions* opt) override;

  /// Deterministic send time of source symbol `seq` (the in-order delivery
  /// delay baseline), valid whether or not the symbol survived the path.
  [[nodiscard]] TimePoint send_time_of(SeqNum seq) const {
    return start_time_ + params_.interval * static_cast<std::int64_t>(seq);
  }

  [[nodiscard]] const FecParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t source_sent() const { return source_sent_; }
  [[nodiscard]] std::uint64_t repairs_sent() const { return repairs_sent_; }
  [[nodiscard]] std::uint64_t retx_sent() const { return retx_sent_; }
  [[nodiscard]] std::uint64_t feedback_received() const { return feedback_rcvd_; }
  [[nodiscard]] SeqNum ack_frontier() const { return ack_frontier_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const RepairController& controller() const { return controller_; }
  /// Repair + retransmission bytes over source bytes: the redundancy spent.
  [[nodiscard]] double overhead() const {
    return source_sent_ > 0
               ? static_cast<double>(repairs_sent_ + retx_sent_) /
                     static_cast<double>(source_sent_)
               : 0.0;
  }

 private:
  void tick();
  void send_source(SeqNum seq, bool retransmit);
  void send_repair(std::uint64_t window_base, std::uint32_t len);
  void emit_sliding_repairs();
  void maybe_retransmit(SeqNum seq);
  void finish();

  sim::Simulator& sim_;
  FlowId flow_;
  FecParams params_;
  obs::Telemetry* telemetry_ = nullptr;
  std::uint16_t track_ = 0;
  const Route* route_ = nullptr;
  net::Endpoint* sink_ = nullptr;
  util::Rng rng_;                 ///< coefficient-seed stream, per-flow
  RepairController controller_;
  double repair_rate_;
  std::uint32_t repair_group_;
  std::uint32_t window_depth_;
  double repair_acc_ = 0.0;
  SeqNum next_seq_ = 0;
  SeqNum ack_frontier_ = 0;
  std::uint64_t source_sent_ = 0;
  std::uint64_t repairs_sent_ = 0;
  std::uint64_t retx_sent_ = 0;
  std::uint64_t feedback_rcvd_ = 0;
  std::vector<TimePoint> last_retx_;  ///< per-symbol NACK re-service gate
  TimePoint start_time_ = TimePoint::zero();
  bool running_ = false;
  bool finished_ = false;
  sim::EventHandle timer_;
};

/// The receiver half: decodes, releases in order, reports back.
class FecSink final : public net::Endpoint {
 public:
  FecSink(sim::Simulator& sim, FlowId flow, FecParams params);
  ~FecSink() override;
  FecSink(const FecSink&) = delete;
  FecSink& operator=(const FecSink&) = delete;

  /// Reverse route for feedback; `source` is the FecSource endpoint.
  void connect(const Route* rev_route, net::Endpoint* source) {
    rev_route_ = rev_route;
    source_ = source;
  }

  /// Arms the periodic feedback timer.
  void start(TimePoint at);
  void stop();

  void receive(const Packet& pkt, const net::PacketOptions* opt) override;

  [[nodiscard]] const WindowDecoder& decoder() const { return decoder_; }
  [[nodiscard]] const AdaptiveFitter& fitter() const { return fitter_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t decoded() const { return decoded_; }
  [[nodiscard]] bool complete() const { return delivered_ >= params_.symbols; }
  /// In-order delivery time of symbol `seq`; TimePoint::max() if undelivered.
  [[nodiscard]] TimePoint delivered_at(SeqNum seq) const {
    return deliver_at_[static_cast<std::size_t>(seq)];
  }

 private:
  void feedback_tick();
  void drain_releases();
  void record_stream_gap(SeqNum seq);

  sim::Simulator& sim_;
  FlowId flow_;
  FecParams params_;
  obs::Telemetry* telemetry_ = nullptr;
  std::uint16_t track_ = 0;
  const Route* rev_route_ = nullptr;
  net::Endpoint* source_ = nullptr;
  WindowDecoder decoder_;
  AdaptiveFitter fitter_;                ///< kDefaultWindow-deep loss record
  std::vector<std::uint8_t> received_;   ///< systematic copy present / spanned
  std::vector<TimePoint> deliver_at_;    ///< in-order release times
  std::vector<TimePoint> last_nack_;     ///< per-symbol NACK pacing gate
  std::uint64_t delivered_ = 0;
  std::uint64_t decoded_ = 0;            ///< released without a systematic copy
  std::uint64_t feedback_sent_ = 0;
  SeqNum highest_known_ = 0;  ///< 1 + highest symbol known to have been sent
  SeqNum highest_seen_ = 0;   ///< 1 + highest systematic seq actually seen
  bool running_ = false;
  bool final_report_sent_ = false;
  double fit_p_gauge_ = 0.0;  ///< registry mirrors (refreshed on feedback)
  double fit_q_gauge_ = 0.0;
  double fit_held_gauge_ = 0.0;
  sim::EventHandle timer_;
};

}  // namespace lossburst::fec
