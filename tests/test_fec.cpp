// Streaming-FEC tests (DESIGN.md §15): GF(256) field axioms, the
// sliding-window decoder's rank/frontier invariants, payload round-trips,
// the burst-adaptive controller, packet-pool conservation under faulted FEC
// runs, and byte-identity serial vs thread-pooled and across shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/fec_experiment.hpp"
#include "fault/channel.hpp"
#include "fec/adapt.hpp"
#include "fec/codec.hpp"
#include "fec/endpoint.hpp"
#include "fec/gf256.hpp"
#include "net/network.hpp"
#include "net/sharded_network.hpp"
#include "sim/simulator.hpp"
#include "util/invariant.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lossburst {
namespace {

using util::Duration;
using util::TimePoint;

#define SKIP_UNLESS_INSTRUMENTED()                                        \
  if (!util::kInvariantsEnabled)                                          \
  GTEST_SKIP() << "invariants compiled out in this build type "           \
               << "(LOSSBURST_INVARIANTS_ENABLED=0)"

// ---------------------------------------------------------------------------
// GF(256) arithmetic.

TEST(Gf256Test, MultiplicationIsCommutativeWithIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(fec::gf_mul(ua, 1), ua);
    EXPECT_EQ(fec::gf_mul(ua, 0), 0);
    for (int b = a; b < 256; ++b) {
      const auto ub = static_cast<std::uint8_t>(b);
      EXPECT_EQ(fec::gf_mul(ua, ub), fec::gf_mul(ub, ua));
    }
  }
}

TEST(Gf256Test, SampledAssociativityAndDistributivity) {
  for (int a = 1; a < 256; a += 7) {
    for (int b = 1; b < 256; b += 5) {
      for (int c = 1; c < 256; c += 3) {
        const auto ua = static_cast<std::uint8_t>(a);
        const auto ub = static_cast<std::uint8_t>(b);
        const auto uc = static_cast<std::uint8_t>(c);
        EXPECT_EQ(fec::gf_mul(fec::gf_mul(ua, ub), uc),
                  fec::gf_mul(ua, fec::gf_mul(ub, uc)));
        // Addition is XOR: distributivity ties the two operations together.
        EXPECT_EQ(fec::gf_mul(static_cast<std::uint8_t>(ua ^ ub), uc),
                  fec::gf_mul(ua, uc) ^ fec::gf_mul(ub, uc));
      }
    }
  }
}

TEST(Gf256Test, EveryNonZeroElementHasAnInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    const std::uint8_t inv = fec::gf_inv(ua);
    EXPECT_NE(inv, 0);
    EXPECT_EQ(fec::gf_mul(ua, inv), 1) << "a=" << a;
    EXPECT_EQ(fec::gf_div(ua, ua), 1);
  }
}

TEST(Gf256Test, LogExpTablesRoundTrip) {
  const fec::detail::GfTables& t = fec::detail::kGf;
  for (int a = 1; a < 256; ++a) {
    EXPECT_EQ(t.exp[t.log[a]], a);
  }
  // exp is the generator's power sequence with period 255: the first 255
  // entries enumerate every non-zero element exactly once.
  std::vector<bool> seen(256, false);
  for (int i = 0; i < 255; ++i) {
    EXPECT_FALSE(seen[t.exp[i]]) << "exp repeats before the period at " << i;
    seen[t.exp[i]] = true;
  }
  EXPECT_FALSE(seen[0]);  // zero is not a power of the generator
}

TEST(Gf256Test, AddmulMatchesScalarReference) {
  util::Rng rng(99);
  for (const std::size_t n : {1UL, 7UL, 8UL, 17UL, 64UL, 100UL}) {
    for (const int c : {0, 1, 2, 91, 255}) {
      std::vector<std::uint8_t> dst(n);
      std::vector<std::uint8_t> src(n);
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<std::uint8_t>(rng.next());
        src[i] = static_cast<std::uint8_t>(rng.next());
      }
      std::vector<std::uint8_t> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = static_cast<std::uint8_t>(
            dst[i] ^ fec::gf_mul(src[i], static_cast<std::uint8_t>(c)));
      }
      fec::gf_addmul(dst.data(), src.data(), n, static_cast<std::uint8_t>(c));
      EXPECT_EQ(dst, want) << "n=" << n << " c=" << c;
    }
  }
}

TEST(Gf256Test, CoefficientExpansionIsDeterministicAndNonZero) {
  std::vector<std::uint8_t> a(64);
  std::vector<std::uint8_t> b(64);
  fec::gf_coeffs_from_seed(0x1234, a.size(), a.data());
  fec::gf_coeffs_from_seed(0x1234, b.size(), b.data());
  EXPECT_EQ(a, b);
  fec::gf_coeffs_from_seed(0x1235, b.size(), b.data());
  EXPECT_NE(a, b);
  // The all-zero vector is redrawn: a repair packet always carries
  // information about at least one symbol in its window.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    fec::gf_coeffs_from_seed(seed, 4, a.data());
    EXPECT_TRUE(std::any_of(a.begin(), a.begin() + 4,
                            [](std::uint8_t v) { return v != 0; }));
  }
}

// ---------------------------------------------------------------------------
// Sliding-window decoder.

TEST(WindowDecoderTest, PayloadRoundTripThroughBurstLoss) {
  constexpr std::uint32_t kSymBytes = 32;
  constexpr std::uint64_t kSymbols = 40;
  constexpr std::uint32_t kCap = 16;
  util::Rng rng(7);
  std::vector<std::uint8_t> data(kSymbols * kSymBytes);
  for (auto& v : data) v = static_cast<std::uint8_t>(rng.next());

  fec::WindowDecoder dec(kCap, kSymBytes);
  std::vector<std::uint8_t> coeff_scratch(kCap);
  std::vector<std::uint8_t> coded(kSymBytes);

  std::uint64_t next = 0;  // expected next released seq
  const auto drain = [&] {
    const std::uint32_t n = dec.ready();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint8_t* p = dec.ready_payload(i);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(0, std::memcmp(p, data.data() + (next + i) * kSymBytes, kSymBytes))
          << "payload mismatch at seq " << next + i;
    }
    EXPECT_EQ(dec.take_released(), n);
    next += n;
    EXPECT_EQ(dec.base(), next);
  };

  // A burst of 3 and two isolated losses; repairs every 8 symbols over the
  // trailing 12-symbol window.
  const auto lost = [](std::uint64_t s) {
    return s == 3 || s == 4 || s == 5 || s == 17 || s == 30;
  };
  std::uint64_t repair_seed = 0xabc;
  for (std::uint64_t s = 0; s < kSymbols; ++s) {
    if (!lost(s)) {
      dec.add_systematic(s, data.data() + s * kSymBytes);
      drain();
    }
    if ((s + 1) % 8 == 0) {
      const std::uint64_t lo = (s + 1 > 12) ? s + 1 - 12 : 0;
      const auto len = static_cast<std::uint32_t>(s + 1 - lo);
      for (int r = 0; r < 4; ++r) {
        const std::uint64_t seed = ++repair_seed;
        fec::encode_window(data.data() + lo * kSymBytes, kSymBytes, len, seed,
                           coeff_scratch.data(), coded.data(), kSymBytes);
        dec.add_coded(lo, len, seed, coded.data());
        drain();
      }
    }
  }
  EXPECT_EQ(next, kSymbols) << "every symbol must be released in order";
  EXPECT_GT(dec.stats().innovative, 0u);
  EXPECT_EQ(dec.stats().released, kSymbols);
}

TEST(WindowDecoderTest, RankAndFrontierInvariants) {
  fec::WindowDecoder dec(8);
  EXPECT_EQ(dec.add_systematic(0), fec::AddResult::kInnovative);
  EXPECT_EQ(dec.add_systematic(0), fec::AddResult::kRedundant);
  EXPECT_LE(dec.rank(), dec.width());
  EXPECT_LE(dec.width(), dec.capacity());
  EXPECT_EQ(dec.take_released(), 1u);
  EXPECT_EQ(dec.base(), 1u);

  // Behind the frontier: already delivered.
  EXPECT_EQ(dec.add_systematic(0), fec::AddResult::kStale);
  // Beyond base + capacity: not storable.
  EXPECT_EQ(dec.add_systematic(9), fec::AddResult::kOverflow);
  EXPECT_EQ(dec.add_coded(5, 8, 0x1), fec::AddResult::kOverflow);

  // A gap holds the frontier; filling it releases the whole prefix.
  EXPECT_EQ(dec.add_systematic(2), fec::AddResult::kInnovative);
  EXPECT_EQ(dec.add_systematic(3), fec::AddResult::kInnovative);
  EXPECT_EQ(dec.ready(), 0u);
  EXPECT_EQ(dec.take_released(), 0u);
  EXPECT_EQ(dec.base(), 1u);
  EXPECT_EQ(dec.add_systematic(1), fec::AddResult::kInnovative);
  EXPECT_EQ(dec.ready(), 3u);
  EXPECT_EQ(dec.take_released(), 3u);
  EXPECT_EQ(dec.base(), 4u);
  EXPECT_EQ(dec.rank(), 0u);
}

TEST(WindowDecoderTest, CodedPacketsRecoverAnErasureWithoutPayloads) {
  // Coefficient-only mode: the endpoints' bookkeeping path. Two coded
  // packets with independent seeds over a window with two erasures.
  fec::WindowDecoder dec(8);
  dec.add_systematic(0);
  dec.add_systematic(3);  // 1 and 2 missing
  EXPECT_EQ(dec.take_released(), 1u);
  EXPECT_EQ(dec.rank(), 1u);
  std::uint64_t seed = 1;
  std::uint32_t innovative = 0;
  while (innovative < 2 && seed < 64) {
    if (dec.add_coded(0, 4, seed++) == fec::AddResult::kInnovative) ++innovative;
  }
  ASSERT_EQ(innovative, 2u) << "two independent combinations must exist";
  EXPECT_EQ(dec.ready(), 3u);
  EXPECT_EQ(dec.take_released(), 3u);
  EXPECT_EQ(dec.base(), 4u);
}

TEST(WindowDecoderTest, WindowsReachingBehindBaseAreClipped) {
  constexpr std::uint32_t kSymBytes = 16;
  util::Rng rng(11);
  std::vector<std::uint8_t> data(8 * kSymBytes);
  for (auto& v : data) v = static_cast<std::uint8_t>(rng.next());

  fec::WindowDecoder dec(4, kSymBytes);
  dec.add_systematic(0, data.data());
  dec.add_systematic(1, data.data() + kSymBytes);
  EXPECT_EQ(dec.take_released(), 2u);

  // Symbol 2 lost; a repair whose window spans the two *released* symbols
  // must subtract their contribution from the payload and still recover 2.
  std::vector<std::uint8_t> coeff_scratch(4);
  std::vector<std::uint8_t> coded(kSymBytes);
  // A seed whose expanded coefficient for column 2 is zero yields a clipped
  // all-zero vector (kRedundant); scan a few until one is innovative.
  fec::AddResult res = fec::AddResult::kRedundant;
  for (std::uint64_t seed = 0x70; seed < 0x90; ++seed) {
    fec::encode_window(data.data(), kSymBytes, 3, seed, coeff_scratch.data(),
                       coded.data(), kSymBytes);
    res = dec.add_coded(0, 3, seed, coded.data());
    if (res == fec::AddResult::kInnovative) break;
  }
  ASSERT_EQ(res, fec::AddResult::kInnovative);
  ASSERT_EQ(dec.ready(), 1u);
  EXPECT_EQ(0, std::memcmp(dec.ready_payload(0), data.data() + 2 * kSymBytes,
                           kSymBytes));
  EXPECT_EQ(dec.take_released(), 1u);
  EXPECT_EQ(dec.base(), 3u);
}

TEST(WindowDecoderDeathTest, GenerationConfinementIsEnforced) {
  SKIP_UNLESS_INSTRUMENTED();
  fec::WindowDecoder dec(16);
  dec.set_generation(8);
  EXPECT_EQ(dec.add_coded(0, 8, 0x9), fec::AddResult::kInnovative);
  // [4, 12) spans generations 0 and 1: block-FEC repairs must never do that.
  EXPECT_DEATH((void)dec.add_coded(4, 8, 0x9), "generation");
}

// ---------------------------------------------------------------------------
// Burst-adaptive control.

analysis::GilbertFit make_fit(double loss, double q) {
  analysis::GilbertFit fit;
  fit.loss_rate = loss;
  fit.p_bad_to_good = q;  // mean burst = 1/q
  fit.p_good_to_bad = loss * q / std::max(1e-9, 1.0 - loss);
  fit.state_changes = 10;
  fit.low_confidence = false;
  return fit;
}

TEST(AdaptiveFitterTest, HoldsLastTrustworthyEstimateOverDegenerateRecords) {
  fec::AdaptiveFitter fitter(64);
  // Bursty record: pairs of losses with gaps — plenty of state changes.
  for (int i = 0; i < 48; ++i) fitter.push(i % 8 < 2);
  const analysis::GilbertFit first = fitter.refresh();
  EXPECT_FALSE(fitter.held());
  EXPECT_FALSE(first.low_confidence);
  EXPECT_GT(first.loss_rate, 0.0);

  // Flush the ring with an all-good record: zero state changes, which
  // fit_gilbert flags as low-confidence. The fitter must hold, not slew.
  for (int i = 0; i < 64; ++i) fitter.push(false);
  const analysis::GilbertFit& held = fitter.refresh();
  EXPECT_TRUE(fitter.held());
  EXPECT_EQ(held.p_bad_to_good, first.p_bad_to_good);
  EXPECT_EQ(held.loss_rate, first.loss_rate);
}

TEST(AdaptiveFitterTest, RejectsWindowsBelowTwo) {
  // A zero-entry ring has no slot to write, and a one-entry record holds no
  // transition, so it could never produce a fit.
  EXPECT_THROW(fec::AdaptiveFitter(0), std::invalid_argument);
  EXPECT_THROW(fec::AdaptiveFitter(1), std::invalid_argument);
  fec::AdaptiveFitter two(2);
  two.push(true);
  two.push(false);
  two.push(true);
  EXPECT_EQ(two.counts().length, 2u);
  EXPECT_EQ(two.counts().bg, 0u);
  EXPECT_EQ(two.counts().gb, 1u);
}

// The fitter slides its transition counts instead of re-scanning the ring.
// After every push, its candidate fit must equal the batch fit over the
// record it holds, unrolled oldest to newest, bit for bit. Every stream is
// 8192 indicators long: each window fills and then wraps at least 3 times.
TEST(AdaptiveFitterTest, SlidingCountsMatchBatchFitAfterEveryPush) {
  constexpr std::size_t kStream = 4 * fec::AdaptiveFitter::kDefaultWindow;
  struct Record {
    const char* name;
    std::vector<bool> (*make)();
  };
  const Record records[] = {
      {"bernoulli",
       [] {
         util::Rng rng(5);
         std::vector<bool> v(kStream);
         for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.chance(0.1);
         return v;
       }},
      {"gilbert",
       [] {
         fault::GilbertChannel ch(0.005, 0.25, 1.0, util::Rng(7));
         std::vector<bool> v(kStream);
         for (std::size_t i = 0; i < v.size(); ++i) v[i] = ch.next_lost();
         return v;
       }},
      {"alternating",
       [] {
         std::vector<bool> v(kStream);
         for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 2 == 1;
         return v;
       }},
      {"all-lost", [] { return std::vector<bool>(kStream, true); }},
      {"all-good", [] { return std::vector<bool>(kStream, false); }},
  };
  for (const std::size_t window : {std::size_t{2}, std::size_t{3}, std::size_t{64},
                                   fec::AdaptiveFitter::kDefaultWindow}) {
    for (const Record& rec : records) {
      const std::vector<bool> stream = rec.make();
      fec::AdaptiveFitter fitter(window);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        fitter.push(stream[i]);
        const std::size_t first = i + 1 > window ? i + 1 - window : 0;
        const std::vector<bool> record(stream.begin() + static_cast<std::ptrdiff_t>(first),
                                            stream.begin() + static_cast<std::ptrdiff_t>(i + 1));
        const analysis::GilbertFit batch = analysis::fit_gilbert(record);
        const analysis::GilbertFit online = fitter.counts().fit();
        SCOPED_TRACE(testing::Message() << rec.name << " window " << window << " push " << i);
        EXPECT_EQ(online.p_good_to_bad, batch.p_good_to_bad);
        EXPECT_EQ(online.p_bad_to_good, batch.p_bad_to_good);
        EXPECT_EQ(online.loss_rate, batch.loss_rate);
        EXPECT_EQ(online.state_changes, batch.state_changes);
        EXPECT_EQ(online.low_confidence, batch.low_confidence);
        // A confident candidate passes through refresh() unchanged.
        const analysis::GilbertFit& live = fitter.refresh();
        if (!batch.low_confidence) {
          EXPECT_EQ(live.p_good_to_bad, batch.p_good_to_bad);
        }
        // One diverging push is enough; don't report the thousands after it.
        if (HasFailure()) return;
      }
    }
  }
}

TEST(RepairControllerTest, BurstScaledProvisioningAndClustering) {
  fec::RepairPolicy pol;  // margin 2, budget 0.125, group mult 1.5
  fec::RepairController ctl(pol, 128, 0.125, 64);
  // loss 2%, mean burst 4: rate = 2 x 0.02 x 4 = 0.16, clamped to budget.
  ctl.update(make_fit(0.02, 0.25), /*held=*/false);
  EXPECT_DOUBLE_EQ(ctl.repair_rate(), pol.budget);
  EXPECT_EQ(ctl.repair_group(), 6u);  // ceil(1.5 x 4)
  EXPECT_EQ(ctl.window_depth(), 64u); // 16 x 4 burst mult
  EXPECT_FALSE(ctl.degraded());

  // Bernoulli at the same loss (burst 1): the rate drops below the budget.
  ctl.update(make_fit(0.02, 1.0), false);
  EXPECT_DOUBLE_EQ(ctl.repair_rate(), 2.0 * 0.02);
  EXPECT_EQ(ctl.repair_group(), 2u);  // ceil(1.5)
}

TEST(RepairControllerTest, HeldUpdatesChangeNothing) {
  fec::RepairController ctl(fec::RepairPolicy{}, 128, 0.125, 64);
  ctl.update(make_fit(0.02, 0.25), false);
  const double rate = ctl.repair_rate();
  const std::uint32_t group = ctl.repair_group();
  analysis::GilbertFit degenerate = make_fit(0.9, 1.0);
  degenerate.low_confidence = true;
  ctl.update(degenerate, true);
  ctl.update(make_fit(0.9, 0.1), true);  // relayed held flag alone suffices
  EXPECT_DOUBLE_EQ(ctl.repair_rate(), rate);
  EXPECT_EQ(ctl.repair_group(), group);
  EXPECT_FALSE(ctl.degraded());
  EXPECT_EQ(ctl.updates_held(), 2u);
  EXPECT_EQ(ctl.updates_applied(), 1u);
}

TEST(RepairControllerTest, DegradesToArqWithHysteresis) {
  fec::RepairPolicy pol;  // degrade > 0.35, recover < 0.15
  fec::RepairController ctl(pol, 128, 0.125, 64);
  ctl.update(make_fit(0.5, 0.1), false);
  EXPECT_TRUE(ctl.degraded());
  EXPECT_DOUBLE_EQ(ctl.repair_rate(), pol.min_rate);
  EXPECT_EQ(ctl.repair_group(), 1u);
  // In the hysteresis band: still degraded.
  ctl.update(make_fit(0.2, 0.2), false);
  EXPECT_TRUE(ctl.degraded());
  // Below the recover edge: coding resumes with burst-scaled knobs.
  ctl.update(make_fit(0.02, 0.25), false);
  EXPECT_FALSE(ctl.degraded());
  EXPECT_DOUBLE_EQ(ctl.repair_rate(), pol.budget);
}

// ---------------------------------------------------------------------------
// Endpoints: pool conservation under faulted runs.

void run_fec_flap_conservation(fault::DownPolicy policy) {
  sim::Simulator sim(17);
  net::Network network(sim);
  net::Link* fwd = network.add_link("f", 8'000'000, Duration::millis(50),
                                    std::make_unique<net::DropTailQueue>(64));
  net::Link* rev = network.add_link("r", 8'000'000, Duration::millis(20),
                                    std::make_unique<net::DropTailQueue>(64));
  const net::Route* fwd_route = network.add_route({fwd});
  const net::Route* rev_route = network.add_route({rev});

  fec::FecParams fp;
  fp.interval = Duration::millis(1);
  fp.symbols = 300;
  fp.repair_rate = 0.25;  // plenty of option-carrying repair packets
  fp.repair_group = 2;
  fp.adaptive = false;
  fec::FecSource src(sim, 5, fp);
  fec::FecSink sink(sim, 5, fp);
  src.connect(fwd_route, &sink);
  sink.connect(rev_route, &src);
  src.start(TimePoint::zero() + Duration::millis(1));
  sink.start(TimePoint::zero() + Duration::millis(1) + fp.feedback_interval);

  fault::LinkFaultState st;
  st.policy = policy;
  fwd->attach_fault(&st);
  // The outage catches source symbols, repairs (with their FecInfo options
  // records), and retransmissions — queued, serializing, and in flight.
  sim.in(Duration::millis(40), [&] { fwd->fault_set_down(true); });
  sim.in(Duration::millis(80), [&] { network.debug_check_conservation(); });
  sim.in(Duration::millis(150), [&] { fwd->fault_set_down(false); });
  sim.run();

  EXPECT_EQ(network.pool().live(), 0u);
  network.debug_check_conservation();
  EXPECT_TRUE(sink.complete()) << "NACK recovery must finish the stream";
  EXPECT_TRUE(src.finished());
  if (policy == fault::DownPolicy::kDrop) {
    EXPECT_GT(st.counters.flap_drops, 0u);
  } else {
    EXPECT_GT(st.counters.parked, 0u);
  }
  fwd->attach_fault(nullptr);
}

TEST(FecEndpointTest, PoolConservedAcrossFlapDrop) {
  run_fec_flap_conservation(fault::DownPolicy::kDrop);
}

TEST(FecEndpointTest, PoolConservedAcrossFlapPark) {
  run_fec_flap_conservation(fault::DownPolicy::kPark);
}

// ---------------------------------------------------------------------------
// Experiment harness: determinism.

core::FecRunConfig faulted_config(fec::FecMode mode) {
  core::FecRunConfig cfg;
  cfg.seed = 33;
  cfg.fec.mode = mode;
  cfg.fec.interval = Duration::millis(1);
  cfg.fec.symbols = 800;
  cfg.horizon = Duration::seconds(30);
  fault::GilbertSpec g;
  g.link = "path.fwd";
  g.p_good_to_bad = 0.01;
  g.p_bad_to_good = 0.25;
  cfg.plan.gilbert.push_back(g);
  fault::FlapSpec f;
  f.link = "path.fwd";
  f.at_s = 0.3;
  f.down_s = 0.2;
  f.up_s = 0.3;
  f.cycles = 1;
  cfg.plan.flaps.push_back(f);
  return cfg;
}

TEST(FecDeterminismTest, AllModesCompleteUnderTheFaultedPlan) {
  for (const fec::FecMode mode :
       {fec::FecMode::kArq, fec::FecMode::kBlock, fec::FecMode::kSliding}) {
    const core::FecRunResult r = core::run_fec_stream(faulted_config(mode));
    EXPECT_TRUE(r.completed) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(r.delivered, r.symbols);
    EXPECT_NE(r.digest, 0u);
  }
}

TEST(FecDeterminismTest, ByteIdenticalSerialVsThreadPool) {
  const core::FecRunResult solo = core::run_fec_stream(faulted_config(fec::FecMode::kSliding));
  ASSERT_TRUE(solo.completed);
  std::vector<std::uint64_t> pooled(4, 0);
  util::ThreadPool pool(4);
  pool.parallel_for(pooled.size(), [&pooled](std::size_t i) {
    pooled[i] = core::run_fec_stream(faulted_config(fec::FecMode::kSliding)).digest;
  });
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_EQ(pooled[i], solo.digest) << "pooled run " << i;
  }
  // Digest sensitivity: a different repair discipline moves it.
  EXPECT_NE(core::run_fec_stream(faulted_config(fec::FecMode::kArq)).digest,
            solo.digest);
}

// Pinned end-to-end outputs. The sink fits over its last 2048 loss
// indicators; 8192 symbols fill that ring and wrap it three more times, so
// a slip in how old entries leave the fit moves these values: the digest
// through the adaptive controller, and every row through the sink's final
// fit. The constants were recorded with a fitter that re-scanned its whole
// ring on every report; the loss rates are losses over the final
// 2048-entry record.
core::FecRunConfig pinned_config(fec::FecMode mode, bool flap) {
  core::FecRunConfig cfg;
  cfg.seed = 21;
  cfg.fec.mode = mode;
  cfg.fec.symbols = 8192;
  cfg.fec.interval = Duration::millis(1);
  cfg.horizon = Duration::seconds(60);
  if (flap) {
    fault::FlapSpec f;
    f.link = "path.fwd";
    f.at_s = 2.0;
    f.down_s = 0.8;
    f.up_s = 1.6;
    f.cycles = 2;
    f.policy = fault::DownPolicy::kDrop;
    cfg.plan.flaps.push_back(f);
  } else {
    fault::GilbertSpec g;
    g.link = "path.fwd";
    g.p_good_to_bad = 0.005;
    g.p_bad_to_good = 0.25;
    cfg.plan.gilbert.push_back(g);
  }
  return cfg;
}

TEST(FecDeterminismTest, PinnedOutputsAcrossFitRingWraps) {
  struct Case {
    const char* label;
    fec::FecMode mode;
    bool flap;
    std::uint64_t digest;
    std::size_t state_changes;
    double loss_rate;
  };
  const Case cases[] = {
      {"arq", fec::FecMode::kArq, false, 0x54ceb9068e112650ULL, 12, 15.0 / 2048},
      {"block", fec::FecMode::kBlock, false, 0x060a0fcfe941b705ULL, 12, 8.0 / 2048},
      {"adaptive", fec::FecMode::kSliding, false, 0x3280c625b2aeab20ULL, 8, 8.0 / 2048},
      {"flap.adaptive", fec::FecMode::kSliding, true, 0xf97178f1608151c4ULL, 2, 796.0 / 2048},
  };
  for (const Case& c : cases) {
    const core::FecRunResult r = core::run_fec_stream(pinned_config(c.mode, c.flap));
    EXPECT_TRUE(r.completed) << c.label;
    EXPECT_EQ(r.digest, c.digest) << c.label;
    EXPECT_EQ(r.receiver_fit.state_changes, c.state_changes) << c.label;
    EXPECT_EQ(r.receiver_fit.loss_rate, c.loss_rate) << c.label;
  }
}

// ---------------------------------------------------------------------------
// Sharded byte-identity: the FEC pair split across a shard cut.

std::uint64_t fnv1a64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t run_sharded_fec(std::size_t shards) {
  net::ShardedNetwork snet(shards, 29);
  const std::size_t src_shard = 0;
  const std::size_t sink_shard = shards - 1;
  // Misaligned delays so no cross-shard arrival collides with a local
  // same-instant event; both directions cross the cut.
  net::Link* fwd = snet.add_link(src_shard, "cut.fwd", 10'000'000ULL,
                                 Duration::micros(3100),
                                 net::make_queue(net::QueueKind::kDropTail, 64,
                                                 util::Rng(41)));
  net::Link* rev = snet.add_link(sink_shard, "cut.rev", 10'000'000ULL,
                                 Duration::micros(2700),
                                 net::make_queue(net::QueueKind::kDropTail, 64,
                                                 util::Rng(42)));
  if (src_shard != sink_shard) {
    snet.mark_boundary(fwd, sink_shard);
    snet.mark_boundary(rev, src_shard);
  }
  const net::Route* fwd_route = snet.add_route({fwd});
  const net::Route* rev_route = snet.add_route({rev});

  // Bursty loss on the boundary link itself: the Gilbert chain advances per
  // serialized packet, so its decisions are shard-count independent.
  fault::LinkFaultState st;
  st.gilbert = fault::GilbertChannel(0.02, 0.3, 1.0, util::Rng(77));
  st.gilbert_enabled = true;
  fwd->attach_fault(&st);

  fec::FecParams fp;
  fp.interval = Duration::millis(1);
  fp.symbols = 600;
  fec::FecSource src(snet.sim(src_shard), 9, fp);
  fec::FecSink sink(snet.sim(sink_shard), 9, fp);
  src.connect(fwd_route, &sink);
  sink.connect(rev_route, &src);
  src.start(TimePoint::zero() + Duration::millis(1));
  sink.start(TimePoint::zero() + Duration::millis(1) + fp.feedback_interval);

  snet.run_until(TimePoint::zero() + Duration::seconds(10));

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::uint64_t s = 0; s < fp.symbols; ++s) {
    const TimePoint at = sink.delivered_at(s);
    digest = fnv1a64(digest, at == TimePoint::max()
                                 ? ~0ULL
                                 : static_cast<std::uint64_t>(at.ns()));
  }
  digest = fnv1a64(digest, sink.delivered());
  digest = fnv1a64(digest, sink.decoded());
  digest = fnv1a64(digest, src.repairs_sent());
  digest = fnv1a64(digest, src.retx_sent());
  EXPECT_EQ(sink.delivered(), fp.symbols) << "shards=" << shards;
  fwd->attach_fault(nullptr);
  return digest;
}

TEST(FecShardTest, ByteIdenticalAcrossShardCounts) {
  const std::uint64_t k1 = run_sharded_fec(1);
  const std::uint64_t k2 = run_sharded_fec(2);
  const std::uint64_t k4 = run_sharded_fec(4);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(k1, k4);
}

}  // namespace
}  // namespace lossburst
