// Figure 7: break-even batch sizes under Zaatar and Ginger — the minimum
// number of instances beta at which the verifier's total cost (amortized
// setup + per-instance work) drops below executing the batch locally.
//
// Zaatar numbers come from measured setup/per-instance/native costs; Ginger
// from the cost model (as in the paper). Expected shape: Zaatar's break-even
// sizes are orders of magnitude smaller, because its query setup is
// proportional to a linear- rather than quadratic-length proof.
//
// Besides the human tables, the bench emits a JSON baseline (default
// BENCH_fig7_breakeven.json): the measured micro costs, each ElGamal term
// beside its frozen PowNaive reference timed in the same run (scripts/ci.sh
// floors every kernel's speedup over its reference), the per-byte cost of
// the ChaCha20 keystream behind c beside its one-block-at-a-time NextBlock
// (floored too where the AVX-512 kernel runs), and the
// "paper_scale_measured_micro" rows, which evaluate beta* at the paper's
// reported computation sizes and local (GMP) baselines with THIS machine's
// measured verifier primitive costs.
//
// Usage: bench_fig7_breakeven [--out <path>]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace zaatar {
namespace {

std::string HumanBatch(double b) {
  if (b < 0) {
    return "never";
  }
  char buf[32];
  if (b < 1e6) {
    snprintf(buf, sizeof(buf), "%.0f", b);
  } else {
    snprintf(buf, sizeof(buf), "%.1e", b);
  }
  return buf;
}

// One emitted JSON record: a computation evaluated under one costing regime.
struct JsonRow {
  std::string app;
  std::string field;
  std::string regime;  // bench_measured | paper_scale_measured_micro |
                       // paper_constants
  double t_local_s = 0;
  double setup_s = -1;         // measured verifier setup (bench_measured only)
  double per_instance_s = -1;  // modeled verifier per-instance cost
  double zaatar_beta = -1;     // measured break-even (bench_measured only)
  double zaatar_model_beta = -1;
  double ginger_model_beta = -1;
};

void JsonNumber(FILE* f, const char* key, double v, const char* suffix) {
  if (v < 0) {
    fprintf(f, "\"%s\": null%s", key, suffix);
  } else {
    fprintf(f, "\"%s\": %.9g%s", key, v, suffix);
  }
}

// `naive_term_s` is the per-term time of the reference inner-product loop,
// measured beside each field's f_lazy, `naive` the PowNaive references for
// e, d and h, and `keystream_byte_s` the per-byte keystream cost of
// NextBlocks and of NextBlock.
void WriteJson(const std::string& path, const MicroCosts& m128,
               const MicroCosts& m220, const double naive_term_s[2],
               const bench::NaiveCryptoCosts naive[2],
               const double keystream_byte_s[2],
               const std::vector<JsonRow>& rows) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    exit(1);
  }
  fprintf(f, "{\n  \"bench\": \"fig7_breakeven\",\n");
  fprintf(f, "  \"schema\": \"fig7.breakeven.v3\",\n");
  fprintf(f,
          "  \"keystream\": {\"kernel\": \"%s\", \"byte_s\": %.9g, "
          "\"byte_naive_s\": %.9g},\n",
          ChaCha20::Kernel(), keystream_byte_s[0], keystream_byte_s[1]);
  fprintf(f, "  \"micro\": {\n");
  const MicroCosts* micros[2] = {&m128, &m220};
  const char* names[2] = {"F128", "F220"};
  for (int i = 0; i < 2; i++) {
    const MicroCosts& m = *micros[i];
    fprintf(f,
            "    \"%s\": {\"e_s\": %.9g, \"d_s\": %.9g, \"h_s\": %.9g, "
            "\"h_amortized_s\": %.9g, \"f_s\": %.9g, \"f_lazy_s\": %.9g, "
            "\"f_lazy_naive_s\": %.9g, \"f_div_s\": %.9g, \"c_s\": %.9g, "
            "\"e_naive_s\": %.9g, \"d_naive_s\": %.9g, "
            "\"h_naive_s\": %.9g}%s\n",
            names[i], m.e, m.d, m.h, m.h_amortized, m.f, m.f_lazy,
            naive_term_s[i], m.f_div, m.c, naive[i].e, naive[i].d, naive[i].h,
            i == 0 ? "," : "");
  }
  fprintf(f, "  },\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); i++) {
    const JsonRow& r = rows[i];
    fprintf(f, "    {\"app\": \"%s\", \"field\": \"%s\", \"regime\": \"%s\", ",
            r.app.c_str(), r.field.c_str(), r.regime.c_str());
    fprintf(f, "\"t_local_s\": %.9g, ", r.t_local_s);
    JsonNumber(f, "setup_s", r.setup_s, ", ");
    JsonNumber(f, "per_instance_s", r.per_instance_s, ", ");
    JsonNumber(f, "zaatar_beta_star", r.zaatar_beta, ", ");
    JsonNumber(f, "zaatar_model_beta_star", r.zaatar_model_beta, ", ");
    JsonNumber(f, "ginger_model_beta_star", r.ginger_model_beta, "");
    fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  printf("\nwrote %s\n", path.c_str());
}

template <typename F>
void Row(const App<F>& app, const PcpParams& params, const MicroCosts& micro,
         std::vector<JsonRow>* out) {
  auto program = CompileZlang<F>(app.source);
  MeasureOptions opt;
  opt.prover_threads = 1;
  auto m = MeasureBatch<F, ZaatarHarnessBackend<F>>(app, program, 2, params,
                                                    /*seed=*/21, opt);
  double setup = m.query_generation_s + m.commit_setup_s;
  double zaatar_measured = CostModel::BreakevenBatch(
      setup, m.verifier_per_instance_s, m.stats.t_local_s);
  CostModel model(micro, params);
  double zaatar_model = model.ZaatarBreakeven(m.stats);
  double ginger_model = model.GingerBreakeven(m.stats);
  printf("%-38s %10s %12s %12s %12s %12s\n", app.name.c_str(),
         bench::HumanSeconds(m.stats.t_local_s).c_str(),
         bench::HumanSeconds(setup).c_str(),
         HumanBatch(zaatar_measured).c_str(), HumanBatch(zaatar_model).c_str(),
         HumanBatch(ginger_model).c_str());
  JsonRow r;
  r.app = app.name;
  r.field = F::kLimbs == 2 ? "F128" : "F220";
  r.regime = "bench_measured";
  r.t_local_s = m.stats.t_local_s;
  r.setup_s = setup;
  r.per_instance_s = m.verifier_per_instance_s;
  r.zaatar_beta = zaatar_measured;
  r.zaatar_model_beta = zaatar_model;
  r.ginger_model_beta = ginger_model;
  out->push_back(r);
}

// Scales the measured constraint statistics of a bench-sized app by its
// complexity polynomial to the paper's input size, with the given local
// baseline time.
template <typename F>
ComputationStats ScaledStats(const App<F>& bench_app, double count_factor,
                             double io_factor, double t_local) {
  auto program = CompileZlang<F>(bench_app.source);
  ComputationStats s = ComputeStats(program, t_local);
  s.z_ginger = static_cast<size_t>(s.z_ginger * count_factor);
  s.c_ginger = static_cast<size_t>(s.c_ginger * count_factor);
  s.k = static_cast<size_t>(s.k * count_factor);
  s.k2 = static_cast<size_t>(s.k2 * count_factor);
  s.z_zaatar = static_cast<size_t>(s.z_zaatar * count_factor);
  s.c_zaatar = static_cast<size_t>(s.c_zaatar * count_factor);
  s.num_inputs = static_cast<size_t>(s.num_inputs * io_factor);
  s.num_outputs = std::max<size_t>(1, s.num_outputs);
  return s;
}

// Paper-scale model row: beta* under the given micro costs.
void PaperScaleRow(const char* label, const char* field,
                   const ComputationStats& s, const PcpParams& params,
                   const MicroCosts& micro, const char* regime,
                   std::vector<JsonRow>* out) {
  CostModel model(micro, params);
  double zb = model.ZaatarBreakeven(s);
  double gb = model.GingerBreakeven(s);
  printf("%-38s %10s %12s %12s", label,
         bench::HumanSeconds(s.t_local_s).c_str(), HumanBatch(zb).c_str(),
         HumanBatch(gb).c_str());
  JsonRow r;
  r.app = label;
  r.field = field;
  r.regime = regime;
  r.t_local_s = s.t_local_s;
  r.per_instance_s = model.ZaatarVerifierPerInstance(s);
  r.zaatar_model_beta = zb;
  r.ginger_model_beta = gb;
  if (zb > 0 && gb > 0) {
    printf("   G/Z = %.1e", gb / zb);
  }
  printf("\n");
  out->push_back(r);
}

}  // namespace
}  // namespace zaatar

int main(int argc, char** argv) {
  using namespace zaatar;
  std::string out_path = "BENCH_fig7_breakeven.json";
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--out <path>]\n", argv[0]);
      return 2;
    }
  }
  PcpParams params;
  std::vector<JsonRow> rows;
  printf("Figure 7: break-even batch sizes (Zaatar measured+model, Ginger "
         "model)\n\n");
  MicroCosts m128 = bench::MeasureMicroCosts<F128>();
  MicroCosts m220 = bench::MeasureMicroCosts<F220>();
  const double naive_term_s[2] = {
      bench::MeasureInnerProductTerm<F128>(/*naive=*/true),
      bench::MeasureInnerProductTerm<F220>(/*naive=*/true)};
  const bench::NaiveCryptoCosts naive[2] = {
      bench::MeasureNaiveCryptoCosts<F128>(),
      bench::MeasureNaiveCryptoCosts<F220>()};
  printf("inner product per term: F128 f_lazy %s (reference loop %s), "
         "F220 f_lazy %s (reference loop %s)\n",
         bench::HumanSeconds(m128.f_lazy).c_str(),
         bench::HumanSeconds(naive_term_s[0]).c_str(),
         bench::HumanSeconds(m220.f_lazy).c_str(),
         bench::HumanSeconds(naive_term_s[1]).c_str());
  const double keystream_byte_s[2] = {
      bench::MeasureKeystreamByte(/*naive=*/false),
      bench::MeasureKeystreamByte(/*naive=*/true)};
  printf("ChaCha20 keystream per byte: %.3f ns (%s kernel, NextBlock %.3f "
         "ns)\n",
         keystream_byte_s[0] * 1e9, ChaCha20::Kernel(),
         keystream_byte_s[1] * 1e9);
  const MicroCosts* measured[2] = {&m128, &m220};
  for (int i = 0; i < 2; i++) {
    printf("%s e/d/h %s / %s / %s (PowNaive references %s / %s / %s)\n",
           i == 0 ? "F128" : "F220",
           bench::HumanSeconds(measured[i]->e).c_str(),
           bench::HumanSeconds(measured[i]->d).c_str(),
           bench::HumanSeconds(measured[i]->h).c_str(),
           bench::HumanSeconds(naive[i].e).c_str(),
           bench::HumanSeconds(naive[i].d).c_str(),
           bench::HumanSeconds(naive[i].h).c_str());
  }
  printf("\n");
  printf("%-38s %10s %12s %12s %12s %12s\n", "computation", "t_local",
         "V setup", "Z(meas)", "Z(model)", "G(model)");
  bench::PrintRule(110);
  Row(MakePamApp(8, 16), params, m128, &rows);
  Row(MakeRootFindApp(6, 8), params, m220, &rows);
  Row(MakeApspApp(4), params, m128, &rows);
  Row(MakeFannkuchApp(3, 5, 12), params, m128, &rows);
  Row(MakeLcsApp(16), params, m128, &rows);
  printf(
      "\nNote: 'never' means verifying one instance costs more than running\n"
      "it locally, so no batch size breaks even — the paper's point that\n"
      "outsourcing pays only for computations that are expensive relative\n"
      "to their I/O (§5.4). At these reduced benchmark sizes the native\n"
      "computations are microseconds, so absolute break-even sizes suffer;\n"
      "the Zaatar/Ginger *ratio* is the reproduced shape. The paper's\n"
      "regime, with its input sizes, is extrapolated below. (Also note the\n"
      "paper's local baseline ran under GMP bignums; ours is native int64,\n"
      "~10-50x faster, which further inflates our break-even sizes.)\n");

  // The paper-scale complexity factors: scale |C| etc. from our bench knob
  // to the paper's knob via each benchmark's complexity polynomial.
  struct PaperApp {
    const char* label;
    const char* field;
    ComputationStats stats;  // at paper scale, with paper GMP t_local
  };
  // The paper's Figure 5 "local" column (GMP bignum baselines) — fixed
  // across runs, so beta* in the rows below moves only with the verifier
  // kernels (and with the host's speed).
  std::vector<PaperApp> paper_apps;
  paper_apps.push_back(
      {"pam_clustering(m=20,d=128)", "F128",
       ScaledStats(MakePamApp(8, 16), (20.0 * 20 * 128) / (8.0 * 8 * 16),
                   (20.0 * 128) / (8.0 * 16), 51.6e-3)});
  paper_apps.push_back(
      {"root_finding(m=256,L=8)", "F220",
       ScaledStats(MakeRootFindApp(6, 8), (256.0 * 256) / (6.0 * 6),
                   (256.0 * 256) / (6.0 * 6), 0.8)});
  paper_apps.push_back(
      {"all_pairs_shortest_path(m=25)", "F128",
       ScaledStats(MakeApspApp(4), (25.0 * 25 * 25) / (4.0 * 4 * 4),
                   (25.0 * 25) / (4.0 * 4), 8.1e-3)});
  paper_apps.push_back(
      {"fannkuch(m=100,n=13)", "F128",
       ScaledStats(MakeFannkuchApp(3, 5, 12), (100.0 * 13 * 80) / (3.0 * 5 * 12),
                   (100.0 * 13) / (3.0 * 5), 0.8e-3)});
  paper_apps.push_back(
      {"longest_common_subsequence(m=300)", "F128",
       ScaledStats(MakeLcsApp(16), (300.0 * 300) / (16.0 * 16), 300.0 / 16,
                   1.4e-3)});

  printf("\nPaper regime, this machine's verifier kernels: beta* at the "
         "paper's input\nsizes and GMP local baselines, under the measured "
         "micro costs:\n");
  printf("%-38s %10s %12s %12s\n", "computation @ paper size", "t_local",
         "Z(model)", "G(model)");
  bench::PrintRule(100);
  for (const PaperApp& app : paper_apps) {
    const MicroCosts& micro = strcmp(app.field, "F220") == 0 ? m220 : m128;
    PaperScaleRow(app.label, app.field, app.stats, params, micro,
                  "paper_scale_measured_micro", &rows);
  }

  // Finally, Figure 7 recomputed from the paper's own published constants:
  // its §5.1 microbenchmark row and its Figure 5 "local" column, through our
  // implementation of the Figure 3 models. This is the regime the paper
  // reports (batch sizes in the thousands for Zaatar, astronomically larger
  // for Ginger).
  printf("\nFigure 7 from the paper's published constants (micro costs + GMP "
         "local times):\n");
  printf("%-38s %10s %12s %12s\n", "computation @ paper size", "t_local",
         "Z(model)", "G(model)");
  bench::PrintRule(100);
  {
    MicroCosts paper128{.e = 65e-6, .d = 170e-6, .h = 91e-6,
                        .f_lazy = 68e-9, .f = 210e-9, .f_div = 2e-6,
                        .c = 160e-9};
    MicroCosts paper220{.e = 88e-6, .d = 170e-6, .h = 130e-6,
                        .f_lazy = 90e-9, .f = 320e-9, .f_div = 3e-6,
                        .c = 260e-9};
    for (const PaperApp& app : paper_apps) {
      const MicroCosts& micro =
          strcmp(app.field, "F220") == 0 ? paper220 : paper128;
      PaperScaleRow(app.label, app.field, app.stats, params, micro,
                    "paper_constants", &rows);
    }
  }

  WriteJson(out_path, m128, m220, naive_term_s, naive, keystream_byte_s,
            rows);
  return 0;
}
