// Figure 5 (table): per-instance cost of the Zaatar prover compared to local
// computation, decomposed into its phases:
//   local | solve constraints | construct u | crypto ops | answer queries | e2e
//
// Expected shape (paper): e2e is orders of magnitude above local; construct-u
// ~40% and crypto ~35% of prover time, the remainder answering queries.
//
// Table mode also writes the rows and the suite's phase mix to
// BENCH_fig5_breakdown.json (schema fig5.breakdown.v1; --out PATH moves it),
// the artifact EXPERIMENTS.md's Figure 5 table is generated from. The prover
// runs one instance at a time (prover_threads = 1); each phase is the
// per-instance time of its span, and construct-u's ComputeH still spreads
// its three products over the residue primes.
//
// --json [--out PATH]: instead of the table, emit BENCH_ntt.json (schema
// ntt.pipeline.v2) — ComputeH and its qap.shift span at |C| in
// {256, 1024, 4096} over synthetic R1CS, with the Figure 3 model
// 3·f·|C|·log2²|C| as the yardstick and the direct O(|C|²) reference
// (Qap::ComputeHNaive, best of two) as naive_s at |C| <= 1024. Both paths
// run on one thread. ComputeH is the best of several instances, and f the
// best of the multiply chains timed between those instances, so both sides
// are sampled in the same stretch. ci.sh validates the schema and gates
// construct_proof / model <= 6 and naive_s / construct_proof >= 7 at
// |C| = 1024.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/trace.h"
#include "src/util/parallel_for.h"

namespace zaatar {
namespace {

using bench::HumanSeconds;

// One app's per-instance prover phases, in seconds.
struct BreakdownRow {
  std::string app;
  const char* field = "";
  double local_s = 0, solve_s = 0, construct_u_s = 0, crypto_s = 0,
         answer_s = 0, e2e_s = 0;
  bool accepted = false;
};

template <typename F>
BreakdownRow Row(const App<F>& app, const PcpParams& params, size_t beta) {
  auto program = CompileZlang<F>(app.source);
  MeasureOptions opt;
  opt.prover_threads = 1;
  auto m = MeasureBatch<F, ZaatarHarnessBackend<F>>(app, program, beta, params,
                                                    /*seed=*/7, opt);
  BreakdownRow r;
  r.app = app.name;
  r.field = F::kName;
  r.local_s = m.stats.t_local_s;
  r.solve_s = m.prover.solve_constraints_s;
  r.construct_u_s = m.prover.construct_proof_s;
  r.crypto_s = m.prover.crypto_s;
  r.answer_s = m.prover.answer_queries_s;
  r.e2e_s = m.prover.Total();
  r.accepted = m.all_accepted;
  printf("%-38s %10s %12s %12s %12s %12s %12s  %s\n", r.app.c_str(),
         HumanSeconds(r.local_s).c_str(), HumanSeconds(r.solve_s).c_str(),
         HumanSeconds(r.construct_u_s).c_str(),
         HumanSeconds(r.crypto_s).c_str(), HumanSeconds(r.answer_s).c_str(),
         HumanSeconds(r.e2e_s).c_str(), r.accepted ? "ok" : "** REJECTED **");
  return r;
}

int TableMain(const char* out_path) {
  PcpParams params;
  printf("Figure 5: per-instance Zaatar prover cost vs local execution\n\n");
  printf("%-38s %10s %12s %12s %12s %12s %12s\n", "computation (Psi)",
         "local", "solve", "construct u", "crypto ops", "answer q",
         "e2e CPU");
  bench::PrintRule(120);
  const size_t kBeta = 2;
  std::vector<BreakdownRow> rows;
  rows.push_back(Row(MakePamApp(8, 16), params, kBeta));
  rows.push_back(Row(MakeRootFindApp(6, 8), params, kBeta));
  rows.push_back(Row(MakeApspApp(4), params, kBeta));
  rows.push_back(Row(MakeFannkuchApp(3, 5, 12), params, kBeta));
  rows.push_back(Row(MakeLcsApp(16), params, kBeta));
  bench::PrintRule(120);
  double e2e = 0, u = 0, crypto = 0, answer = 0;
  for (const BreakdownRow& r : rows) {
    e2e += r.e2e_s;
    u += r.construct_u_s;
    crypto += r.crypto_s;
    answer += r.answer_s;
  }
  printf("\nPhase mix across the suite (paper: ~40%% construct u, ~35%% "
         "crypto, remainder answering queries):\n");
  printf("  construct u: %4.1f%%   crypto: %4.1f%%   answer queries: %4.1f%%\n",
         100 * u / e2e, 100 * crypto / e2e, 100 * answer / e2e);

  FILE* fp = fopen(out_path, "w");
  if (fp == nullptr) {
    fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  fprintf(fp,
          "{\n  \"bench\": \"fig5_prover_breakdown\",\n"
          "  \"schema\": \"fig5.breakdown.v1\",\n"
          "  \"beta\": %zu,\n  \"prover_threads\": 1,\n  \"rows\": [\n",
          kBeta);
  for (size_t i = 0; i < rows.size(); i++) {
    const BreakdownRow& r = rows[i];
    fprintf(fp,
            "    {\"app\": \"%s\", \"field\": \"%s\", \"local_s\": %.6e, "
            "\"solve_s\": %.6e, \"construct_u_s\": %.6e, "
            "\"crypto_s\": %.6e, \"answer_s\": %.6e, \"e2e_s\": %.6e, "
            "\"accepted\": %s}%s\n",
            r.app.c_str(), r.field, r.local_s, r.solve_s, r.construct_u_s,
            r.crypto_s, r.answer_s, r.e2e_s, r.accepted ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(fp,
          "  ],\n  \"phase_mix\": {\"construct_u\": %.4f, \"crypto\": %.4f, "
          "\"answer\": %.4f}\n}\n",
          u / e2e, crypto / e2e, answer / e2e);
  fclose(fp);
  printf("\nwrote %s\n", out_path);
  return 0;
}

// ---- --json mode: the NTT-pipeline breakdown -------------------------------

using F = F128;

// Per-multiply field cost of one 200k-multiply chain (the only model
// parameter the construct-proof term uses; no need for the full crypto
// microbenchmarks). The chain carries x across calls, so it stays live.
double TimeFieldMulChain(F& x, const F& y) {
  const size_t reps = 200000;
  Stopwatch sw;
  for (size_t i = 0; i < reps; i++) {
    x *= y;
  }
  return sw.ElapsedSeconds() / static_cast<double>(reps);
}

struct SizeResult {
  size_t c = 0;
  double construct_s = 0, shift_s = 0, f_s = 0;
  double model_s = 0, ratio = 0;
  double naive_s = -1;  // < 0: not measured at this size
};

SizeResult MeasureSize(size_t m, size_t beta) {
  Prg prg(0xBE7A + m);
  bench::SyntheticSystem s = bench::MakeSynthetic(m, prg);
  Qap<F> qap(s.cs);
  qap.WarmProver();  // one-time setup outside the measured region

  // Both ComputeH paths run on one thread, as the single-core model they
  // are divided by assumes. Each instance gets its own tracer, and the
  // fastest instance's phases are reported together, so a preempted
  // instance does not count. A multiply chain follows every instance
  // (after one warm-up chain), and f is the fastest of them.
  ScopedParallelismCap one_thread(1);
  F sink = F::Zero();
  F x = prg.NextNonzeroField<F>();
  const F y = prg.NextNonzeroField<F>();
  SizeResult r;
  r.c = m;
  r.construct_s = -1;
  TimeFieldMulChain(x, y);
  for (size_t i = 0; i < beta; i++) {
    obs::Tracer tracer;
    {
      obs::ScopedThreadTracer scoped(&tracer);
      auto hr = qap.ComputeH(s.witness);
      sink += hr.h[m / 2];
      if (!hr.exact) {
        fprintf(stderr, "synthetic witness rejected at |C| = %zu\n", m);
      }
    }
    const double construct_s = tracer.SumSeconds("qap.compute_h");
    if (r.construct_s < 0 || construct_s < r.construct_s) {
      r.construct_s = construct_s;
      r.shift_s = tracer.SumSeconds("qap.shift");
    }
    const double f = TimeFieldMulChain(x, y);
    if (i == 0 || f < r.f_s) {
      r.f_s = f;
    }
  }
  double lg = std::log2(static_cast<double>(m));
  r.model_s = 3.0 * r.f_s * static_cast<double>(m) * lg * lg;
  r.ratio = r.construct_s / r.model_s;

  if (m <= 1024) {
    // The same-run yardstick: the direct O(|C|²) reference on the same one
    // thread, best of two.
    for (int rep = 0; rep < 2; rep++) {
      Stopwatch sw;
      auto hr = qap.ComputeHNaive(s.witness);
      const double naive_s = sw.ElapsedSeconds();
      if (r.naive_s < 0 || naive_s < r.naive_s) {
        r.naive_s = naive_s;
      }
      sink += hr.h[m / 2];
    }
  }
  if (sink.IsZero() || x.IsZero()) {
    printf("# unlikely checksum\n");
  }
  return r;
}

int JsonMain(const char* out_path) {
  const size_t kBeta = 4;  // instances per size; the fastest one is reported
  std::vector<SizeResult> results;
  for (size_t m : {size_t{256}, size_t{1024}, size_t{4096}}) {
    results.push_back(MeasureSize(m, kBeta));
  }

  std::string json;
  char buf[256];
  json += "{\n  \"schema\": \"ntt.pipeline.v2\",\n";
  snprintf(buf, sizeof(buf),
           "  \"field\": \"%s\",\n  \"beta\": %zu,\n  \"sizes\": [\n",
           F::kName, kBeta);
  json += buf;
  for (size_t i = 0; i < results.size(); i++) {
    const SizeResult& r = results[i];
    snprintf(buf, sizeof(buf),
             "    {\"c\": %zu, \"construct_proof_s\": %.6e, "
             "\"shift_s\": %.6e, \"f_s\": %.3e, \"model_s\": %.6e, "
             "\"model_ratio\": %.3f, ",
             r.c, r.construct_s, r.shift_s, r.f_s, r.model_s, r.ratio);
    json += buf;
    if (r.naive_s >= 0) {
      snprintf(buf, sizeof(buf), "\"naive_s\": %.6e}", r.naive_s);
    } else {
      snprintf(buf, sizeof(buf), "\"naive_s\": null}");
    }
    json += buf;
    json += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  if (out_path != nullptr) {
    FILE* fp = fopen(out_path, "w");
    if (fp == nullptr) {
      fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
    fputs(json.c_str(), fp);
    fclose(fp);
    fprintf(stderr, "wrote %s\n", out_path);
  } else {
    fputs(json.c_str(), stdout);
  }
  return 0;
}

}  // namespace
}  // namespace zaatar

int main(int argc, char** argv) {
  bool json = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      fprintf(stderr, "usage: %s [--json] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  if (json) {
    return zaatar::JsonMain(out_path);
  }
  return zaatar::TableMain(out_path != nullptr ? out_path
                                               : "BENCH_fig5_breakdown.json");
}
