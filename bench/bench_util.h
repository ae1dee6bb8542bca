// Shared helpers for the figure-reproduction benches: microbenchmark-based
// calibration of the Figure 3 cost-model parameters, and small table/format
// utilities. Every bench binary is self-contained and prints the rows/series
// of the paper figure it reproduces (see EXPERIMENTS.md for the mapping).

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/harness.h"
#include "src/apps/suite.h"
#include "src/argument/cost_model.h"
#include "src/pcp/linear_oracle.h"
#include "src/util/stopwatch.h"

namespace zaatar {
namespace bench {

// Per-term seconds of a 1024-term inner product on a cache-resident vector:
// the lazily reduced kernel (the paper's f_lazy), or with `naive` the
// reference loop that reduces and adds modularly on every term. The best of
// five rounds, so a preempted round does not count.
template <typename F>
double MeasureInnerProductTerm(bool naive, size_t reps = 64) {
  const size_t n = 1024;
  Prg prg(0xD07);
  std::vector<F> a = prg.NextFieldVector<F>(n);
  const std::vector<F> b = prg.NextFieldVector<F>(n);
  double best = -1;
  for (int round = 0; round < 6; round++) {  // round 0 warms up
    Stopwatch sw;
    for (size_t r = 0; r < reps; r++) {
      // Feeding each answer back into a keeps the calls from being hoisted.
      a[r % n] =
          naive ? VectorOracle<F>::InnerProductNaive(a.data(), b.data(), n)
                : VectorOracle<F>::InnerProduct(a.data(), b.data(), n);
    }
    double s = sw.ElapsedSeconds() / static_cast<double>(reps * n);
    if (round > 0 && (best < 0 || s < best)) {
      best = s;
    }
  }
  return best;
}

// Measures the primitive costs of Figure 3's parameters for field F
// (the §5.1 microbenchmark methodology: average over repeated executions).
template <typename F>
MicroCosts MeasureMicroCosts(size_t reps = 300) {
  MicroCosts m;
  Prg prg(0xFEED);
  using EG = ElGamal<F>;
  auto kp = EG::GenerateKeys(prg);
  F x = prg.template NextNonzeroField<F>();
  F y = prg.template NextNonzeroField<F>();
  volatile uint64_t sink = 0;

  // Warm up every code path (page in the 1024-bit group code, prime the
  // caches) before timing; cold first calls skew e/h/d by 2-3x.
  {
    auto ct = EG::Encrypt(kp.pk, x, prg);
    for (int i = 0; i < 8; i++) {
      ct = ct * EG::Encrypt(kp.pk, x, prg).Pow(y);
      sink = sink + EG::DecryptToGroup(kp.sk, kp.pk, ct).ToUint64();
      x = x.Inverse() + F::One();
    }
  }

  Stopwatch sw;
  for (size_t i = 0; i < reps * 20; i++) {
    x *= y;
  }
  m.f = sw.Lap() / static_cast<double>(reps * 20);
  m.f_lazy = MeasureInnerProductTerm<F>(/*naive=*/false);
  sw.Restart();

  for (size_t i = 0; i < reps; i++) {
    x = x.Inverse() + F::One();
  }
  m.f_div = sw.Lap() / static_cast<double>(reps);

  for (size_t i = 0; i < reps * 4; i++) {
    x = prg.template NextField<F>();
  }
  m.c = sw.Lap() / static_cast<double>(reps * 4);

  size_t crypto_reps = reps / 6 + 8;
  typename EG::Ciphertext ct{};
  sw.Restart();
  for (size_t i = 0; i < crypto_reps; i++) {
    ct = EG::Encrypt(kp.pk, x, prg);
  }
  m.e = sw.Lap() / static_cast<double>(crypto_reps);

  auto acc = ct;
  for (size_t i = 0; i < crypto_reps; i++) {
    acc = acc * ct.Pow(x);
  }
  m.h = sw.Lap() / static_cast<double>(crypto_reps);

  for (size_t i = 0; i < crypto_reps; i++) {
    auto dec = EG::DecryptToGroup(kp.sk, kp.pk, ct);
    sink = sink + dec.ToUint64();
  }
  m.d = sw.Lap() / static_cast<double>(crypto_reps);

  // Amortized commitment fold: per-element cost of the Pippenger-based
  // InnerProduct at a representative size. The bucket kernel only cares
  // about scalars, so one ciphertext replicated n times measures the same
  // work as n distinct ones without paying n encryptions here.
  {
    const size_t n = 512;
    std::vector<typename EG::Ciphertext> cts(n, ct);
    auto scalars = prg.template NextFieldVector<F>(n);
    sw.Restart();
    auto folded = EG::InnerProduct(cts.data(), scalars.data(), n);
    m.h_amortized = sw.Lap() / static_cast<double>(n);
    sink = sink + folded.c1.ToUint64();
  }
  (void)sink;
  return m;
}

inline std::string HumanSeconds(double s) {
  char buf[64];
  if (s < 0) {
    return "n/a";
  }
  if (s < 1e-6) {
    snprintf(buf, sizeof(buf), "%.0f ns", s * 1e9);
  } else if (s < 1e-3) {
    snprintf(buf, sizeof(buf), "%.1f us", s * 1e6);
  } else if (s < 1) {
    snprintf(buf, sizeof(buf), "%.1f ms", s * 1e3);
  } else if (s < 120) {
    snprintf(buf, sizeof(buf), "%.2f s", s);
  } else if (s < 7200) {
    snprintf(buf, sizeof(buf), "%.1f min", s / 60);
  } else if (s < 48 * 3600) {
    snprintf(buf, sizeof(buf), "%.1f hr", s / 3600);
  } else if (s < 2 * 365.25 * 86400) {
    snprintf(buf, sizeof(buf), "%.1f days", s / 86400);
  } else {
    snprintf(buf, sizeof(buf), "%.1e yr", s / (365.25 * 86400));
  }
  return buf;
}

inline std::string HumanCount(double v) {
  char buf[64];
  if (v < 1e4) {
    snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    snprintf(buf, sizeof(buf), "%.2e", v);
  }
  return buf;
}

inline void PrintRule(int width = 110) {
  for (int i = 0; i < width; i++) {
    putchar('-');
  }
  putchar('\n');
}

}  // namespace bench
}  // namespace zaatar

#endif  // BENCH_BENCH_UTIL_H_
