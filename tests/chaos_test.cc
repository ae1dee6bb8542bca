// Chaos soak for the hardened transport/session stack: randomized fault
// schedules (drop, delay, duplicate, truncate, bit-flip, stall) injected on
// both endpoints of the harness's socketpair, swept across both backends. The
// contract under chaos is DESIGN.md §13's headline property: every run
// terminates with a typed per-instance verdict — the batch never hangs
// (ci.sh wraps every ctest invocation in a watchdog), never crashes, and a
// corrupted proof is never ACCEPTed.
//
// The sweep size is ZAATAR_CHAOS_SEEDS per backend (default 12 for local
// ctest; scripts/ci.sh raises it so the CI soak crosses 200 schedules total).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/harness.h"
#include "src/testing/chaos_transport.h"

namespace zaatar {
namespace {

using Millis = std::chrono::milliseconds;

int SeedsPerCombo() {
  const char* env = std::getenv("ZAATAR_CHAOS_SEEDS");
  if (env != nullptr) {
    int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  return 12;
}

// Tight-but-honest deadlines: generous enough that a clean local exchange
// never trips them, small enough that a dropped or stalled frame converts
// into a retry within the test's lifetime.
MeasureOptions ChaosMeasureOptions(uint64_t seed) {
  MeasureOptions opt;
  opt.measure_native = false;
  opt.transport.recv_deadline = Millis(400);
  opt.transport.send_deadline = Millis(400);
  opt.transport.handshake_deadline = Millis(400);
  opt.backoff.max_retries = 2;
  opt.backoff.initial = Millis(1);
  opt.backoff.cap = Millis(4);
  opt.backoff.jitter_seed = seed;
  // Four prover threads even on a small host, so reconnects land while the
  // pool holds instances in flight.
  opt.prover_threads = 4;
  opt.wrap_transport = [seed](std::unique_ptr<protocol::Transport> inner,
                              bool verifier_side, uint32_t connection) {
    // Each endpoint of each connection gets its own deterministic fault
    // stream, derived from the schedule seed.
    ChaosOptions chaos = ChaosOptions::Mixed(
        seed * 1000 + connection * 2 + (verifier_side ? 1 : 0));
    return std::unique_ptr<protocol::Transport>(
        std::make_unique<FaultyTransport>(std::move(inner), chaos));
  };
  return opt;
}

// Every instance slot must carry a verdict from the typed taxonomy, and the
// summary bookkeeping must be consistent with the per-instance results.
void ExpectTypedVerdicts(const BatchMeasurement& m, size_t beta,
                         const std::string& label) {
  ASSERT_EQ(m.instance_results.size(), beta) << label;
  size_t accepts = 0;
  for (size_t i = 0; i < beta; i++) {
    const auto v = m.instance_results[i].verdict;
    ASSERT_LT(static_cast<size_t>(v), kNumVerifyVerdicts)
        << label << " instance " << i;
    accepts += m.instance_results[i].accepted() ? 1 : 0;
  }
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kAccept)],
            accepts)
      << label;
  EXPECT_EQ(m.all_accepted, accepts == beta) << label;
  EXPECT_GE(m.transport_connections, 1u) << label;
}

template <typename F, typename Backend>
void SoakOneCombo(const char* label) {
  auto app = MakeLcsApp(3);
  auto program = CompileZlang<F>(app.source);
  const size_t beta = 2;
  const int seeds = SeedsPerCombo();
  for (int s = 0; s < seeds; s++) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(s);
    MeasureOptions opt = ChaosMeasureOptions(seed);
    BatchMeasurement m;
    ASSERT_NO_THROW(m = (MeasureBatch<F, Backend>(app, program, beta,
                                                  PcpParams::Light(), seed,
                                                  opt)))
        << label << " seed " << seed;
    ExpectTypedVerdicts(m, beta,
                        std::string(label) + " seed " + std::to_string(seed));
  }
}

TEST(ChaosSoakTest, SocketpairZaatar) {
  SoakOneCombo<F128, ZaatarHarnessBackend<F128>>("socketpair/zaatar");
}

TEST(ChaosSoakTest, SocketpairGinger) {
  SoakOneCombo<F128, GingerHarnessBackend<F128>>("socketpair/ginger");
}

// A corrupted proof frame must never be ACCEPTed: with the prover->verifier
// direction set to flip one bit in EVERY frame, each decided instance is
// kMalformed / kRejectCommit / kRejectPcp / kTransportFailed — anything in
// the taxonomy except kAccept.
TEST(ChaosSoakTest, CorruptedProofNeverAccepts) {
  auto app = MakeLcsApp(3);
  auto program = CompileZlang<F128>(app.source);
  for (uint64_t seed = 0; seed < 8; seed++) {
    MeasureOptions opt;
    opt.measure_native = false;
    opt.transport.recv_deadline = Millis(400);
    opt.transport.send_deadline = Millis(400);
    opt.backoff.max_retries = 1;
    opt.backoff.initial = Millis(1);
    opt.backoff.jitter_seed = seed + 1;
    opt.wrap_transport = [seed](std::unique_ptr<protocol::Transport> inner,
                                bool verifier_side, uint32_t connection) {
      if (verifier_side) {
        return inner;  // setup and verdict frames stay clean
      }
      ChaosOptions chaos;
      chaos.seed = seed * 100 + connection;
      chaos.bitflip_per_mille = 1000;  // every proof frame is corrupted
      return std::unique_ptr<protocol::Transport>(
          std::make_unique<FaultyTransport>(std::move(inner), chaos));
    };
    auto m = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
        app, program, /*beta=*/2, PcpParams::Light(), seed, opt);
    ASSERT_EQ(m.instance_results.size(), 2u);
    for (const auto& r : m.instance_results) {
      EXPECT_NE(r.verdict, VerifyVerdict::kAccept)
          << "seed " << seed << ": corrupted proof accepted";
    }
    EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kAccept)],
              0u);
  }
}

// Pure channel loss (no corruption) with a retry budget: the batch degrades
// to TRANSPORT_FAILED verdicts at worst, and recovery accounting shows the
// reconnects.
TEST(ChaosSoakTest, StallDegradesToTransportFailed) {
  auto app = MakeLcsApp(3);
  auto program = CompileZlang<F128>(app.source);
  MeasureOptions opt;
  opt.measure_native = false;
  opt.transport.recv_deadline = Millis(150);
  opt.transport.send_deadline = Millis(150);
  opt.backoff.max_retries = 1;
  opt.backoff.initial = Millis(1);
  opt.backoff.jitter_seed = 3;
  opt.wrap_transport = [](std::unique_ptr<protocol::Transport> inner,
                          bool verifier_side, uint32_t connection) {
    // The prover's first connection stalls from the very first frame; later
    // connections are clean, so the batch recovers by reconnecting.
    if (verifier_side || connection > 0) {
      return inner;
    }
    ChaosOptions chaos;
    chaos.seed = 7;
    chaos.stall_per_mille = 1000;
    return std::unique_ptr<protocol::Transport>(
        std::make_unique<FaultyTransport>(std::move(inner), chaos));
  };
  auto m = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, /*beta=*/2, PcpParams::Light(), /*seed=*/17, opt);
  ASSERT_EQ(m.instance_results.size(), 2u);
  EXPECT_TRUE(m.all_accepted)
      << "clean reconnect should recover the whole batch";
  EXPECT_GE(m.transport_connections, 2u);
  EXPECT_GE(m.transport_retries, 1u);
}

}  // namespace
}  // namespace zaatar
