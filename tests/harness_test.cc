// End-to-end: full batched arguments over compiled benchmark programs, plus
// validation that the Figure 3 cost model tracks reality, and the pooled
// prover's contract: the same bytes in the same order for every
// MeasureOptions::prover_threads.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/harness.h"

namespace zaatar {
namespace {

// One instance at a time, without timing the native run: the span sums
// below then read as sequential per-instance costs.
MeasureOptions Sequential() {
  MeasureOptions opt;
  opt.measure_native = false;
  opt.prover_threads = 1;
  return opt;
}

TEST(HarnessTest, ZaatarBatchOverLcsAccepts) {
  auto app = MakeLcsApp(6);
  auto program = CompileZlang<F128>(app.source);
  auto m = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, /*beta=*/2, PcpParams::Light(), /*seed=*/7, Sequential());
  EXPECT_TRUE(m.all_accepted);
  EXPECT_GT(m.prover.construct_proof_s, 0.0);
  EXPECT_GT(m.prover.crypto_s, 0.0);
  EXPECT_GT(m.prover.answer_queries_s, 0.0);
  EXPECT_GT(m.verifier_per_instance_s, 0.0);
  EXPECT_EQ(m.proof_len, program.UZaatar());

  // Per-instance verdicts, not just the conjunction.
  ASSERT_EQ(m.instance_results.size(), 2u);
  for (const auto& r : m.instance_results) {
    EXPECT_TRUE(r.accepted()) << r.detail;
  }
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kAccept)], 2u);
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kMalformed)],
            0u);
  EXPECT_EQ(m.first_failing_index, -1);

  // The batch really crossed a serialized transport.
  EXPECT_GT(m.setup_message_bytes, 0u);
  EXPECT_GT(m.proof_message_bytes, 0u);
}

TEST(HarnessTest, ZaatarBatchOverRootFindAccepts) {
  auto app = MakeRootFindApp(2, 4);
  auto program = CompileZlang<F220>(app.source);
  auto m = MeasureBatch<F220, ZaatarHarnessBackend<F220>>(
      app, program, /*beta=*/1, PcpParams::Light(), /*seed=*/8, Sequential());
  EXPECT_TRUE(m.all_accepted);
}

TEST(HarnessTest, GingerBatchOverSmallLcsAccepts) {
  auto app = MakeLcsApp(3);
  auto program = CompileZlang<F128>(app.source);
  auto m = MeasureBatch<F128, GingerHarnessBackend<F128>>(
      app, program, /*beta=*/1, PcpParams::Light(), /*seed=*/9, Sequential());
  EXPECT_TRUE(m.all_accepted);
  size_t n = program.ginger.layout.Total();
  EXPECT_EQ(m.proof_len, n + n * n);
  ASSERT_EQ(m.instance_results.size(), 1u);
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kAccept)], 1u);
  EXPECT_EQ(m.first_failing_index, -1);
}

TEST(HarnessTest, RecordVerdictTracksTaxonomy) {
  BatchMeasurement m;
  RecordVerdict(&m, 0, VerifyInstanceResult::Accept());
  RecordVerdict(&m, 1,
                VerifyInstanceResult::Reject(VerifyVerdict::kRejectPcp,
                                             "decision polynomial nonzero"));
  RecordVerdict(&m, 2, VerifyInstanceResult::Accept());
  RecordVerdict(&m, 3,
                VerifyInstanceResult::Reject(VerifyVerdict::kMalformed,
                                             "bad shape"));

  ASSERT_EQ(m.instance_results.size(), 4u);
  EXPECT_FALSE(m.all_accepted);
  EXPECT_EQ(m.first_failing_index, 1);  // the first reject, not the last
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kAccept)], 2u);
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kRejectPcp)],
            1u);
  EXPECT_EQ(m.verdict_counts[static_cast<size_t>(VerifyVerdict::kMalformed)],
            1u);
  EXPECT_EQ(
      m.verdict_counts[static_cast<size_t>(VerifyVerdict::kRejectCommit)], 0u);
  EXPECT_EQ(m.instance_results[1].detail, "decision polynomial nonzero");
}

// The session-and-transport harness must produce the same verdicts as a
// path that serializes nothing: same seed, same Prg consumption order
// (queries -> keys -> commit setup -> instances), proving and verifying
// drawing no randomness. The reference below calls the layers directly, as
// vcbench's stage walk does: Commit and Answer build each proof,
// VerifyInstanceDetailed decides it.
TEST(HarnessTest, SessionOutcomesMatchInProcessReference) {
  auto app = MakeLcsApp(4);
  auto program = CompileZlang<F128>(app.source);
  const size_t beta = 3;
  const uint64_t seed = 21;
  PcpParams params = PcpParams::Light();

  auto m = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, beta, params, seed, Sequential());
  ASSERT_EQ(m.instance_results.size(), beta);

  using Backend = ZaatarHarnessBackend<F128>;
  using Adapter = Backend::Adapter;
  using Arg = Argument<F128, Adapter>;
  Prg prg(seed);
  Backend::Prepared prep(program);
  auto queries = Backend::GenerateQueries(prep, params, prg);
  auto setup = Arg::Setup(std::move(queries), prg);
  std::vector<AppInstance<F128>> instances;
  for (size_t i = 0; i < beta; i++) {
    instances.push_back(app.make_instance(prg));
  }
  for (size_t i = 0; i < beta; i++) {
    std::vector<F128> gw = program.SolveGinger(instances[i].inputs);
    auto vectors = Backend::BuildProofVectors(prep, program, gw);
    const std::vector<F128>* u[2] = {&vectors.first, &vectors.second};
    Arg::InstanceProof proof;
    for (size_t o = 0; o < 2; o++) {
      auto commitment =
          LinearCommitment<F128>::Commit(*u[o], setup.shared[o].enc_r);
      ASSERT_TRUE(commitment.ok()) << commitment.status().ToString();
      proof.parts[o].commitment = *commitment;
      ASSERT_TRUE(LinearCommitment<F128>::Answer(
                      *u[o], Adapter::OracleQueries(setup.queries, o),
                      setup.shared[o].t, &proof.parts[o])
                      .ok());
    }
    std::vector<F128> bound = program.BoundValues(
        instances[i].inputs, instances[i].expected_outputs);
    auto ref = Arg::VerifyInstanceDetailed(setup, proof, bound);
    EXPECT_EQ(ref.verdict, m.instance_results[i].verdict)
        << "instance " << i << " diverged from the in-process path";
    EXPECT_TRUE(ref.accepted()) << ref.detail;
  }
}

// Every frame either endpoint sends, in the order the Send calls happen.
// The protocol is strict ping-pong (each side sends only after receiving
// the other's previous frame), so this order is deterministic.
struct WireLog {
  std::mutex mu;
  std::vector<std::pair<bool, std::vector<uint8_t>>> frames;  // (verifier?)
};

class RecordingTransport final : public protocol::Transport {
 public:
  RecordingTransport(std::unique_ptr<protocol::Transport> inner,
                     bool verifier_side, WireLog* log)
      : inner_(std::move(inner)), verifier_side_(verifier_side), log_(log) {}
  Status Send(const std::vector<uint8_t>& frame) override {
    {
      std::lock_guard<std::mutex> lock(log_->mu);
      log_->frames.emplace_back(verifier_side_, frame);
    }
    return inner_->Send(frame);
  }
  StatusOr<std::vector<uint8_t>> Receive() override {
    return inner_->Receive();
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<protocol::Transport> inner_;
  bool verifier_side_;
  WireLog* log_;
};

struct RecordedBatch {
  BatchMeasurement m;
  WireLog wire;
};

template <typename F>
std::unique_ptr<RecordedBatch> RunRecorded(const App<F>& app, size_t beta,
                                           uint64_t seed,
                                           size_t prover_threads) {
  auto out = std::make_unique<RecordedBatch>();
  auto program = CompileZlang<F>(app.source);
  MeasureOptions opt;
  opt.measure_native = false;
  opt.prover_threads = prover_threads;
  WireLog* log = &out->wire;
  opt.wrap_transport = [log](std::unique_ptr<protocol::Transport> inner,
                             bool verifier_side, uint32_t) {
    return std::unique_ptr<protocol::Transport>(
        std::make_unique<RecordingTransport>(std::move(inner), verifier_side,
                                             log));
  };
  out->m = MeasureBatch<F, ZaatarHarnessBackend<F>>(
      app, program, beta, PcpParams::Light(), seed, opt);
  return out;
}

// The pooled prover's contract: whatever the thread count, the verifier and
// the prover exchange exactly the bytes of the one-instance-at-a-time
// prover, in exactly its order, and every verdict is the same.
template <typename F>
void ExpectTheSameWire(const App<F>& app, size_t beta, uint64_t seed) {
  auto reference = RunRecorded(app, beta, seed, /*prover_threads=*/1);
  ASSERT_TRUE(reference->m.all_accepted) << app.name;
  ASSERT_EQ(reference->wire.frames.size(), 1 + 2 * beta) << app.name;
  for (size_t threads : {2, 4, 8}) {
    auto pooled = RunRecorded(app, beta, seed, threads);
    EXPECT_TRUE(pooled->m.all_accepted) << app.name << " threads=" << threads;
    EXPECT_EQ(pooled->wire.frames, reference->wire.frames)
        << app.name << " threads=" << threads;
  }
}

TEST(HarnessPoolTest, WireIsByteIdenticalForEveryProverThreadCount) {
  ExpectTheSameWire(MakeLcsApp(4), /*beta=*/6, /*seed=*/33);
  ExpectTheSameWire(MakeRootFindApp(2, 4), /*beta=*/3, /*seed=*/34);
}

#if ZAATAR_TRACE
// Pool threads stitch their spans under the batch root like the sequential
// prover's, so the per-phase cost fields keep their meaning (per-instance
// sums, now measured on whichever thread proved the instance).
TEST(HarnessPoolTest, PooledSpansStitchUnderTheBatchRoot) {
  auto app = MakeLcsApp(4);
  const size_t kBeta = 5;
  auto run = RunRecorded(app, kBeta, /*seed=*/35, /*prover_threads=*/4);
  ASSERT_TRUE(run->m.all_accepted);
  const obs::Tracer& t = *run->m.trace;
  EXPECT_EQ(t.CountSpans("prover.commit"), kBeta);
  EXPECT_EQ(t.CountSpans("prover.answer"), kBeta);
  EXPECT_EQ(t.CountSpans("prover.construct_proof"), kBeta);
  EXPECT_EQ(t.CountSpans("prover.solve"), 2 * kBeta);
  auto nodes = t.Snapshot();
  uint32_t root_id = obs::kNoSpan;
  for (uint32_t id = 0; id < nodes.size(); id++) {
    if (nodes[id].name == "harness.batch") {
      root_id = id;
    }
  }
  ASSERT_NE(root_id, obs::kNoSpan);
  for (const auto& n : nodes) {
    if (n.name == "prover.commit" || n.name == "prover.answer" ||
        n.name == "prover.construct_proof") {
      EXPECT_EQ(n.parent, root_id) << n.name;
    }
  }
  EXPECT_GT(run->m.prover.crypto_s, 0.0);
  EXPECT_GE(run->m.metrics->CounterValue("multiexp.calls"), 2 * kBeta);
}
#endif  // ZAATAR_TRACE

TEST(HarnessTest, ZaatarProofIsShorterThanGingerAtEqualSize) {
  auto app = MakeLcsApp(4);
  auto program = CompileZlang<F128>(app.source);
  auto z = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, 1, PcpParams::Light(), 10, Sequential());
  auto g = MeasureBatch<F128, GingerHarnessBackend<F128>>(
      app, program, 1, PcpParams::Light(), 11, Sequential());
  EXPECT_LT(z.proof_len, g.proof_len);
  // Prover work follows the proof length.
  EXPECT_LT(z.prover.crypto_s, g.prover.crypto_s);
}

TEST(CostModelValidationTest, ZaatarModelTracksMeasurement) {
  // The paper reports empirical costs within 5-15% of the model; our
  // primitives and constants differ, so we only require the model to land
  // within a factor of 4 on the dominant prover phases.
  auto app = MakeLcsApp(8);
  auto program = CompileZlang<F128>(app.source);
  PcpParams params = PcpParams::Light();
  auto m = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, 2, params, 12, Sequential());

  // The calibration every bench uses: answering is priced at f_lazy, timed
  // per term as the best of five rounds (MeasureInnerProductTerm), and the
  // commitment at the amortized multiexp fold cost.
  CostModel model(bench::MeasureMicroCosts<F128>(), params);
  ComputationStats stats = ComputeStats(program, 1e-6);
  // "Issue responses" covers the homomorphic commitment (h·|u|) plus the
  // per-query dot products — i.e. the crypto + answer phases.
  double predicted = model.ZaatarIssueResponses(stats);
  double measured = m.prover.crypto_s + m.prover.answer_queries_s;
  EXPECT_GT(predicted, measured / 4.0);
  EXPECT_LT(predicted, measured * 4.0);
}

}  // namespace
}  // namespace zaatar
