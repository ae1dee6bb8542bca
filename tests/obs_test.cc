// The observability layer: span trees, cross-thread stitching, counters and
// histograms, deterministic export, and the end-to-end guarantees the
// harness's cost fields rely on (the span-sum partition of the batch root).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/harness.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/multiexp.h"
#include "src/crypto/prg.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace zaatar {
namespace {

// ----- Tracer / Span unit tests -----

TEST(TraceTest, NestedSpansFormATree) {
  obs::Tracer tracer;
  {
    obs::ScopedThreadTracer install(&tracer);
    obs::Span a("a");
    {
      obs::Span b("b");
      { obs::Span c("c"); }
    }
    { obs::Span b2("b"); }
  }
  auto nodes = tracer.Snapshot();
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0].name, "a");
  EXPECT_EQ(nodes[0].parent, obs::kNoSpan);
  EXPECT_EQ(nodes[1].name, "b");
  EXPECT_EQ(nodes[1].parent, 0u);
  EXPECT_EQ(nodes[2].name, "c");
  EXPECT_EQ(nodes[2].parent, 1u);
  EXPECT_EQ(nodes[3].name, "b");
  EXPECT_EQ(nodes[3].parent, 0u);
  for (const auto& n : nodes) {
    EXPECT_NE(n.end_ns, 0u) << n.name << " was never closed";
    EXPECT_GE(n.end_ns, n.start_ns);
  }
  EXPECT_EQ(tracer.CountSpans("b"), 2u);
  EXPECT_EQ(tracer.CountSpans("missing"), 0u);
  EXPECT_GE(tracer.SumSeconds("a"), tracer.SumSeconds("c"));
}

TEST(TraceTest, SpanIsNoOpWithoutInstalledTracer) {
  obs::Span orphan("orphan");
  EXPECT_EQ(orphan.id(), obs::kNoSpan);
}

TEST(TraceTest, ScopedThreadTracerRestoresPriorState) {
  obs::Tracer outer_tracer;
  obs::Tracer inner_tracer;
  obs::ScopedThreadTracer outer(&outer_tracer);
  obs::Span a("outer.a");
  {
    obs::ScopedThreadTracer inner(&inner_tracer);
    obs::Span b("inner.b");
  }
  // Back on the outer tracer: new spans nest under the still-open "outer.a".
  { obs::Span c("outer.c"); }
  EXPECT_EQ(outer_tracer.CountSpans("outer.a"), 1u);
  EXPECT_EQ(outer_tracer.CountSpans("outer.c"), 1u);
  EXPECT_EQ(outer_tracer.CountSpans("inner.b"), 0u);
  EXPECT_EQ(inner_tracer.CountSpans("inner.b"), 1u);
  auto nodes = outer_tracer.Snapshot();
  EXPECT_EQ(nodes[1].name, "outer.c");
  EXPECT_EQ(nodes[1].parent, 0u);
}

TEST(TraceTest, DefaultParentStitchesWorkerThreadUnderSpawningSpan) {
  obs::Tracer tracer;
  obs::ScopedThreadTracer install(&tracer);
  uint32_t root_id;
  {
    obs::Span root("root");
    root_id = root.id();
    std::thread worker([&] {
      obs::ScopedThreadTracer stitch(&tracer, root_id);
      obs::Span child("worker.child");
      { obs::Span grandchild("worker.grandchild"); }
    });
    worker.join();
  }
  auto nodes = tracer.Snapshot();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[1].name, "worker.child");
  EXPECT_EQ(nodes[1].parent, root_id);
  EXPECT_EQ(nodes[2].name, "worker.grandchild");
  EXPECT_EQ(nodes[2].parent, 1u);
}

// ----- Metrics unit tests -----

TEST(MetricsTest, BucketIndexPowerOfTwoBoundaries) {
  EXPECT_EQ(obs::Metrics::BucketIndex(0), 0u);
  EXPECT_EQ(obs::Metrics::BucketIndex(1), 1u);
  EXPECT_EQ(obs::Metrics::BucketIndex(2), 2u);
  EXPECT_EQ(obs::Metrics::BucketIndex(3), 2u);
  EXPECT_EQ(obs::Metrics::BucketIndex(4), 3u);
  EXPECT_EQ(obs::Metrics::BucketIndex(7), 3u);
  EXPECT_EQ(obs::Metrics::BucketIndex(8), 4u);
  EXPECT_EQ(obs::Metrics::BucketIndex((uint64_t{1} << 62)), 63u);
  // The top bucket absorbs values >= 2^63 instead of overflowing the array.
  EXPECT_EQ(obs::Metrics::BucketIndex(uint64_t{1} << 63), 63u);
  EXPECT_EQ(obs::Metrics::BucketIndex(UINT64_MAX), 63u);
}

TEST(MetricsTest, CountersAndHistograms) {
  obs::Metrics m;
  m.Add("calls");
  m.Add("calls", 4);
  m.Observe("bytes", 0);
  m.Observe("bytes", 5);
  m.Observe("bytes", 5);
  EXPECT_EQ(m.CounterValue("calls"), 5u);
  EXPECT_EQ(m.CounterValue("missing"), 0u);
  auto h = m.HistogramValue("bytes");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 10u);
  EXPECT_EQ(h.buckets[0], 1u);                          // the value 0
  EXPECT_EQ(h.buckets[obs::Metrics::BucketIndex(5)], 2u);  // [4, 8)
  EXPECT_EQ(m.HistogramValue("missing").count, 0u);
}

// multiexp.window_bits must record the window width the bucket kernel
// actually chose — plumbed out of the kernel, not re-derived at the metrics
// site — once per kernel invocation that did real work.
TEST(MetricsTest, MultiExpWindowBitsReflectKernelChoice) {
  using EG = ElGamal<F128>;
  using Zp = EG::Zp;
  Prg prg(77);
  const Zp g = EG::Generator();
  const size_t n = 30;
  std::vector<Zp> bases(n);
  Zp cur = g;
  for (size_t i = 0; i < n; i++) {
    bases[i] = cur;
    cur *= g;
  }
  auto scalars = prg.NextFieldVector<F128>(n);

  obs::Metrics m;
  {
    obs::ScopedThreadMetrics install(&m);
    MultiExp(bases.data(), scalars.data(), n);       // serial: one kernel
    MultiExp(bases.data(), scalars.data(), n, 3);    // parallel: 3 chunks
    std::vector<F128> zeros(n, F128::Zero());
    MultiExp(bases.data(), zeros.data(), n);         // degenerate: no kernel
  }

  EXPECT_EQ(m.CounterValue("multiexp.calls"), 3u);
  EXPECT_EQ(m.HistogramValue("multiexp.terms").count, 3u);
  auto wb = m.HistogramValue("multiexp.window_bits");
  // One observation per kernel that ran: 1 serial + 3 parallel chunks; the
  // all-zero call contributes none (its kernel never picks a window).
  EXPECT_EQ(wb.count, 4u);
  // Every recorded width is a real kernel choice in the model's range, and
  // the parallel chunks (10 terms each) must not report the full-size call's
  // width: expected widths are PippengerWindowBits of the actual shapes.
  const uint64_t serial_c = PippengerWindowBits(n, F128::kModulusBits);
  const uint64_t chunk_c = PippengerWindowBits(10, F128::kModulusBits);
  EXPECT_EQ(wb.sum, serial_c + 3 * chunk_c);
  for (size_t b = 0; b < 64; b++) {
    if (wb.buckets[b] != 0) {
      EXPECT_GE(b, obs::Metrics::BucketIndex(1));
      EXPECT_LE(b, obs::Metrics::BucketIndex(16));
    }
  }
}

TEST(MetricsTest, FreeFunctionsAreNoOpsWithoutInstalledRegistry) {
  EXPECT_EQ(obs::ThreadMetrics(), nullptr);
  obs::MetricAdd("ignored");  // must not crash
  obs::MetricObserve("ignored", 7);
  obs::Metrics m;
  {
    obs::ScopedThreadMetrics install(&m);
    obs::MetricAdd("seen", 2);
    obs::MetricObserve("seen.hist", 3);
  }
  obs::MetricAdd("seen", 100);  // after uninstall: dropped
  EXPECT_EQ(m.CounterValue("seen"), 2u);
  EXPECT_EQ(m.HistogramValue("seen.hist").count, 1u);
}

// ----- Concurrency (exercised under TSan in CI) -----

TEST(ObsConcurrencyTest, ManyThreadsRecordIntoSharedCollectors) {
  obs::Tracer tracer;
  obs::Metrics metrics;
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      obs::ScopedThreadTracer install_t(&tracer);
      obs::ScopedThreadMetrics install_m(&metrics);
      for (int i = 0; i < kIters; i++) {
        obs::Span outer("stress.outer");
        obs::Span inner("stress.inner");
        obs::MetricAdd("stress.count");
        obs::MetricObserve("stress.value",
                           static_cast<uint64_t>(t * kIters + i));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(tracer.CountSpans("stress.outer"), size_t{kThreads * kIters});
  EXPECT_EQ(tracer.CountSpans("stress.inner"), size_t{kThreads * kIters});
  EXPECT_EQ(metrics.CounterValue("stress.count"), uint64_t{kThreads * kIters});
  EXPECT_EQ(metrics.HistogramValue("stress.value").count,
            uint64_t{kThreads * kIters});
  // Every span closed; parents all within range.
  for (const auto& n : tracer.Snapshot()) {
    EXPECT_NE(n.end_ns, 0u);
  }
}

// ----- Export -----

TEST(ExportTest, JsonIsDeterministicAndWellFormed) {
  obs::Tracer tracer;
  obs::Metrics metrics;
  {
    obs::ScopedThreadTracer install(&tracer);
    obs::Span a("phase \"one\"");  // exercises string escaping
    { obs::Span b("phase.two"); }
  }
  metrics.Add("z.counter", 3);
  metrics.Add("a.counter", 1);
  metrics.Observe("hist", 0);
  metrics.Observe("hist", 6);

  std::string once = obs::ExportJson(&tracer, &metrics);
  std::string twice = obs::ExportJson(&tracer, &metrics);
  EXPECT_EQ(once, twice) << "export must be a pure function of the data";

  EXPECT_NE(once.find("\"phase \\\"one\\\"\""), std::string::npos);
  EXPECT_NE(once.find("\"phase.two\""), std::string::npos);
  // Counters come out in name order (a before z).
  EXPECT_LT(once.find("\"a.counter\": 1"), once.find("\"z.counter\": 3"));
  // Histogram: zero bucket keyed "0", the value 6 lands in [4, 8) keyed "8";
  // zero buckets are omitted entirely.
  EXPECT_NE(once.find("\"0\": 1"), std::string::npos);
  EXPECT_NE(once.find("\"8\": 1"), std::string::npos);
  EXPECT_EQ(once.find("\"2\": "), std::string::npos);
  EXPECT_NE(once.find("\"count\": 2, \"sum\": 6"), std::string::npos);
}

TEST(ExportTest, NullCollectorsExportEmptyObjects) {
  std::string json = obs::ExportJson(nullptr, nullptr);
  EXPECT_NE(json.find("\"spans\": []"), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
}

// ----- End to end: the harness's span tree -----

class HarnessTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto app = MakeLcsApp(8);
    auto program = CompileZlang<F128>(app.source);
    MeasureOptions opt;
    opt.measure_native = false;
    opt.prover_threads = 1;
    measurement_ = new BatchMeasurement(
        MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
            app, program, kBeta, PcpParams::Light(), /*seed=*/42, opt));
    ASSERT_TRUE(measurement_->all_accepted);
  }
  static void TearDownTestSuite() {
    delete measurement_;
    measurement_ = nullptr;
  }

  static constexpr size_t kBeta = 3;
  static BatchMeasurement* measurement_;
};

BatchMeasurement* HarnessTraceTest::measurement_ = nullptr;

TEST_F(HarnessTraceTest, SpanTreeHasTheDocumentedShape) {
  const obs::Tracer& t = *measurement_->trace;
  EXPECT_EQ(t.CountSpans("harness.batch"), 1u);
  EXPECT_EQ(t.CountSpans("harness.prepare"), 1u);
  EXPECT_EQ(t.CountSpans("verifier.query_gen"), 1u);
  EXPECT_EQ(t.CountSpans("verifier.commit_setup"), 1u);
  EXPECT_EQ(t.CountSpans("harness.draw_instances"), 1u);
  EXPECT_EQ(t.CountSpans("harness.send_setup"), 1u);
  EXPECT_EQ(t.CountSpans("verifier.encode_setup"), 1u);
  EXPECT_EQ(t.CountSpans("prover.ingest_setup"), 1u);
  EXPECT_EQ(t.CountSpans("verifier.verify"), kBeta);
  EXPECT_EQ(t.CountSpans("prover.commit"), kBeta);
  EXPECT_EQ(t.CountSpans("prover.answer"), kBeta);
  // Zaatar solves twice per instance: the harness's SolveGinger plus the
  // backend's SolveZaatar inside BuildProofVectors.
  EXPECT_EQ(t.CountSpans("prover.solve"), 2 * kBeta);
  EXPECT_EQ(t.CountSpans("prover.construct_proof"), kBeta);
  EXPECT_EQ(t.CountSpans("qap.compute_h"), kBeta);
  EXPECT_GE(t.CountSpans("qap.evaluate_at_tau"), 1u);
  // One setup frame plus, per instance, one proof frame and one verdict
  // frame — in each direction of the transport.
  EXPECT_EQ(t.CountSpans("transport.send"), 1 + 2 * kBeta);
  EXPECT_EQ(t.CountSpans("transport.recv"), 1 + 2 * kBeta);

  // Parent relationships: everything hangs off the single root, including
  // the prover thread's spans (cross-thread stitching), and the nested
  // spans sit under their documented parents.
  auto nodes = t.Snapshot();
  uint32_t root_id = obs::kNoSpan;
  for (uint32_t id = 0; id < nodes.size(); id++) {
    if (nodes[id].name == "harness.batch") {
      root_id = id;
    }
  }
  ASSERT_NE(root_id, obs::kNoSpan);
  EXPECT_EQ(nodes[root_id].parent, obs::kNoSpan);
  for (uint32_t id = 0; id < nodes.size(); id++) {
    const auto& n = nodes[id];
    EXPECT_NE(n.end_ns, 0u) << n.name << " never closed";
    if (id != root_id) {
      ASSERT_LT(n.parent, nodes.size()) << n.name << " is an orphan";
    }
    if (n.name == "qap.compute_h") {
      EXPECT_EQ(nodes[n.parent].name, "prover.construct_proof");
    }
    if (n.name == "qap.evaluate_at_tau") {
      EXPECT_EQ(nodes[n.parent].name, "verifier.query_gen");
    }
    if (n.name == "verifier.encode_setup") {
      EXPECT_EQ(nodes[n.parent].name, "harness.send_setup");
    }
    if (n.name == "prover.commit" || n.name == "prover.answer" ||
        n.name == "prover.solve" || n.name == "prover.construct_proof" ||
        n.name == "prover.ingest_setup" || n.name == "verifier.verify") {
      EXPECT_EQ(n.parent, root_id) << n.name;
    }
  }
}

// The strict ping-pong protocol means exactly one side works at any moment
// (the other blocks in transport.recv), so the root's direct children —
// minus the blocking recv spans — partition the batch wall time.
TEST_F(HarnessTraceTest, DirectChildrenPartitionTheRootDuration) {
  auto nodes = measurement_->trace->Snapshot();
  uint32_t root_id = obs::kNoSpan;
  for (uint32_t id = 0; id < nodes.size(); id++) {
    if (nodes[id].name == "harness.batch") {
      root_id = id;
    }
  }
  ASSERT_NE(root_id, obs::kNoSpan);
  const double root_s =
      static_cast<double>(nodes[root_id].end_ns - nodes[root_id].start_ns) *
      1e-9;
  double children_s = 0;
  for (const auto& n : nodes) {
    if (n.parent == root_id && n.name != "transport.recv") {
      children_s += static_cast<double>(n.end_ns - n.start_ns) * 1e-9;
    }
  }
  EXPECT_GT(root_s, 0.0);
  EXPECT_NEAR(children_s, root_s, 0.05 * root_s)
      << "unspanned work inside the batch exceeds 5% of the wall time";
}

TEST_F(HarnessTraceTest, CostFieldsAreViewsOverTheSpanTree) {
  const obs::Tracer& t = *measurement_->trace;
  const double b = static_cast<double>(kBeta);
  const BatchMeasurement& m = *measurement_;
  EXPECT_DOUBLE_EQ(m.query_generation_s, t.SumSeconds("verifier.query_gen"));
  EXPECT_DOUBLE_EQ(m.commit_setup_s, t.SumSeconds("verifier.commit_setup"));
  EXPECT_DOUBLE_EQ(m.prover.solve_constraints_s,
                   t.SumSeconds("prover.solve") / b);
  EXPECT_DOUBLE_EQ(m.prover.construct_proof_s,
                   t.SumSeconds("prover.construct_proof") / b);
  EXPECT_DOUBLE_EQ(m.prover.crypto_s, t.SumSeconds("prover.commit") / b);
  EXPECT_DOUBLE_EQ(m.prover.answer_queries_s,
                   t.SumSeconds("prover.answer") / b);
  EXPECT_DOUBLE_EQ(m.verifier_per_instance_s,
                   t.SumSeconds("verifier.verify") / b);
  EXPECT_GT(m.prover.crypto_s, 0.0);
  EXPECT_GT(m.verifier_per_instance_s, 0.0);
}

TEST_F(HarnessTraceTest, MetricsCountTheProtocolTraffic) {
  const obs::Metrics& m = *measurement_->metrics;
  EXPECT_EQ(m.CounterValue("transport.frames_sent"), 1 + 2 * kBeta);
  EXPECT_EQ(m.CounterValue("transport.frames_received"), 1 + 2 * kBeta);
  // The two endpoints share this registry, so each direction's histogram
  // saw every frame once: setup + proofs + the (empty-detail) accept
  // verdicts.
  const size_t verdict_bytes =
      protocol::VerdictMessage::FromResult(0, VerifyInstanceResult::Accept())
          .Serialize()
          .size();
  for (const char* name :
       {"transport.frame_bytes_sent", "transport.frame_bytes_received"}) {
    auto frame_bytes = m.HistogramValue(name);
    EXPECT_EQ(frame_bytes.count, 1 + 2 * kBeta) << name;
    EXPECT_EQ(frame_bytes.sum, measurement_->setup_message_bytes +
                                   measurement_->proof_message_bytes +
                                   kBeta * verdict_bytes)
        << name;
  }
  EXPECT_EQ(m.CounterValue("verdict.ACCEPT"), kBeta);
  EXPECT_EQ(m.CounterValue("verdict.MALFORMED"), 0u);
  // Each instance commits two oracles through the Pippenger kernel.
  EXPECT_GE(m.CounterValue("multiexp.calls"), 2 * kBeta);
  EXPECT_GE(m.HistogramValue("multiexp.terms").count,
            m.CounterValue("multiexp.calls"));
}

TEST_F(HarnessTraceTest, BatchExportsAsJson) {
  std::string json =
      obs::ExportJson(measurement_->trace.get(), measurement_->metrics.get());
  EXPECT_NE(json.find("\"harness.batch\""), std::string::npos);
  EXPECT_NE(json.find("\"transport.frames_sent\""), std::string::npos);
  EXPECT_NE(json.find("\"transport.frame_bytes_sent\""), std::string::npos);
  EXPECT_EQ(json, obs::ExportJson(measurement_->trace.get(),
                                  measurement_->metrics.get()));
}

}  // namespace
}  // namespace zaatar
