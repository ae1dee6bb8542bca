// The §4 degenerate-case analysis: dense degree-2 polynomial evaluation
// maximizes K2, collapsing Zaatar's proof-length advantage; the encoding
// chooser must detect it. Also covers the matrix-multiplication app.

#include <gtest/gtest.h>

#include "src/apps/degenerate.h"
#include "src/apps/harness.h"
#include "src/apps/suite.h"
#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/pcp/zaatar_pcp.h"

namespace zaatar {
namespace {

using F = F128;

MicroCosts PaperMicro() {
  MicroCosts m;
  m.e = 65e-6;
  m.d = 170e-6;
  m.h = 91e-6;
  m.f_lazy = 68e-9;
  m.f = 210e-9;
  m.f_div = 2e-6;
  m.c = 160e-9;
  return m;
}

TEST(DegenerateTest, HandEncodingIsSatisfiable) {
  Prg prg(200);
  auto d = BuildDegenerateQuadForm<F>(10, prg);
  auto x = prg.NextFieldVector<F>(10);
  auto w = d.MakeAssignment(x);
  EXPECT_TRUE(d.ginger.IsSatisfied(w));
  auto bad = w;
  bad.back() += F::One();  // wrong output value
  EXPECT_FALSE(d.ginger.IsSatisfied(bad));
}

TEST(DegenerateTest, K2IsMaximal) {
  Prg prg(201);
  size_t m = 12;
  auto d = BuildDegenerateQuadForm<F>(m, prg);
  EXPECT_EQ(d.ginger.DistinctQuadTermCount(), m * (m + 1) / 2);
  // |Z_ginger| = m, so K2* = (m^2 - m)/2 and K2 = K2* + m (the diagonal).
  ComputationStats s;
  s.z_ginger = d.ginger.layout.num_unbound;
  EXPECT_EQ(CostModel::K2Star(s), (m * m - m) / 2.0);
}

TEST(DegenerateTest, ZaatarProofNoLongerWinsButStaysWithinBound) {
  Prg prg(202);
  for (size_t m : {8u, 20u, 40u}) {
    auto d = BuildDegenerateQuadForm<F>(m, prg);
    auto t = GingerToZaatar(d.ginger, TransformOptions{false});
    size_t ug = d.ginger.layout.num_unbound +
                d.ginger.layout.num_unbound * d.ginger.layout.num_unbound;
    size_t uz = t.r1cs.layout.num_unbound + t.r1cs.NumConstraints() + 1;
    // Worst case of §4: |u_z| <= |u_g| (1 + 2/(|Z|+1)) (+O(1) from our
    // binding constraints and the +1 h-coefficient).
    double bound =
        ug * (1.0 + 2.0 / (d.ginger.layout.num_unbound + 1)) + 2 * m + 4;
    EXPECT_LE(static_cast<double>(uz), bound) << "m=" << m;
    // And it genuinely is the degenerate regime: no big win either way.
    EXPECT_GT(static_cast<double>(uz) / ug, 0.5) << "m=" << m;
  }
}

TEST(DegenerateTest, TransformedSystemStillProves) {
  // The degenerate encoding still runs through the full Zaatar PCP.
  Prg prg(203);
  auto d = BuildDegenerateQuadForm<F>(6, prg);
  auto t = GingerToZaatar(d.ginger, TransformOptions{false});
  auto x = prg.NextFieldVector<F>(6);
  auto w = t.ExtendAssignment(d.MakeAssignment(x));
  ASSERT_TRUE(t.r1cs.IsSatisfied(w));
  Qap<F> qap(t.r1cs);
  auto proof = BuildZaatarProof(qap, w);
  auto q = ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(), prg);
  VectorOracle<F> oz(proof.z), oh(proof.h);
  std::vector<F> bound(w.begin() + t.r1cs.layout.num_unbound, w.end());
  EXPECT_TRUE(ZaatarPcp<F>::Decide(q, oz.QueryAll(q.z_queries),
                                   oh.QueryAll(q.h_queries), bound));
}

TEST(EncodingChooserTest, PicksGingerForDegenerateZaatarOtherwise) {
  CostModel model(PaperMicro(), PcpParams{});
  Prg prg(204);

  // Degenerate: K2 maximal.
  auto d = BuildDegenerateQuadForm<F>(64, prg);
  auto t = GingerToZaatar(d.ginger, TransformOptions{false});
  ComputationStats deg;
  deg.z_ginger = d.ginger.layout.num_unbound;
  deg.c_ginger = d.ginger.NumConstraints();
  deg.k = d.ginger.AdditiveTermCount();
  deg.k2 = d.ginger.DistinctQuadTermCount();
  deg.z_zaatar = t.r1cs.layout.num_unbound;
  deg.c_zaatar = t.r1cs.NumConstraints();
  EXPECT_EQ(model.ChooseEncoding(deg), CostModel::Encoding::kGinger);

  // A normal compiled benchmark: Zaatar by a mile.
  auto p = CompileZlang<F>(LcsSource(12));
  ComputationStats lcs = ComputeStats(p, 1e-6);
  EXPECT_EQ(model.ChooseEncoding(lcs), CostModel::Encoding::kZaatar);
}

TEST(MatMulAppTest, MatchesNativeAndSatisfies) {
  auto app = MakeMatMulApp(4);
  auto p = CompileZlang<F>(app.source);
  Prg prg(205);
  for (int k = 0; k < 3; k++) {
    auto inst = app.make_instance(prg);
    auto gw = p.SolveGinger(inst.inputs);
    ASSERT_TRUE(p.ginger.IsSatisfied(gw));
    ASSERT_TRUE(p.zaatar.r1cs.IsSatisfied(p.SolveZaatar(gw)));
    EXPECT_EQ(p.ExtractOutputs(gw), inst.expected_outputs);
  }
  // m^2 outputs, 2m^2 inputs.
  EXPECT_EQ(p.ginger.layout.num_outputs, 16u);
  EXPECT_EQ(p.ginger.layout.num_inputs, 32u);
}

TEST(MatMulAppTest, ConstraintCountIsCubic) {
  auto p3 = CompileZlang<F>(MatMulSource(3));
  auto p6 = CompileZlang<F>(MatMulSource(6));
  double ratio = static_cast<double>(p6.CGinger()) /
                 static_cast<double>(p3.CGinger());
  EXPECT_GT(ratio, 6.0);  // ~8x for doubling m
  EXPECT_LT(ratio, 10.0);
}

TEST(MatMulAppTest, EndToEndArgument) {
  auto app = MakeMatMulApp(3);
  auto program = CompileZlang<F>(app.source);
  MeasureOptions opt;
  opt.measure_native = false;
  opt.prover_threads = 1;
  auto m = MeasureBatch<F, ZaatarHarnessBackend<F>>(
      app, program, 1, PcpParams::Light(), 206, opt);
  EXPECT_TRUE(m.all_accepted);
}

}  // namespace
}  // namespace zaatar
