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

// Seconds per operation of frozen references for MicroCosts' ElGamal terms,
// every power by the bit-at-a-time PowNaive: e as g^r and h^r·g^m, d as
// c1^(q−x)·c2, h as c1^s and c2^s folded into an accumulator. Each is the
// best of three rounds after a warm-up round, so a preempted round does not
// count; scripts/ci.sh floors each kernel's speedup over its reference.
struct NaiveCryptoCosts {
  double e = -1;
  double d = -1;
  double h = -1;
};

template <typename F>
NaiveCryptoCosts MeasureNaiveCryptoCosts(size_t reps = 8) {
  using EG = ElGamal<F>;
  Prg prg(0xFEED);
  auto kp = EG::GenerateKeys(prg);
  F r = prg.template NextNonzeroField<F>();
  const F m = prg.template NextNonzeroField<F>();
  const F s = prg.template NextNonzeroField<F>();
  const auto ct = EG::Encrypt(kp.pk, m, prg);
  typename F::Repr neg_x = F::kModulus;
  neg_x.SubInPlace(kp.sk.x);
  volatile uint64_t sink = 0;
  NaiveCryptoCosts best;
  auto keep_min = [](double* best_s, double s) {
    if (*best_s < 0 || s < *best_s) {
      *best_s = s;
    }
  };
  for (int round = 0; round < 4; round++) {  // round 0 warms up
    Stopwatch sw;
    for (size_t i = 0; i < reps; i++) {
      const auto re = r.ToCanonical();
      const auto c1 = kp.pk.g.PowNaive(re);
      const auto c2 =
          kp.pk.h.PowNaive(re) * kp.pk.g.PowNaive(m.ToCanonical());
      sink = sink + c1.ToUint64() + c2.ToUint64();
      r += F::One();
    }
    const double e = sw.Lap() / static_cast<double>(reps);
    for (size_t i = 0; i < reps; i++) {
      sink = sink + (ct.c2 * ct.c1.PowNaive(neg_x)).ToUint64();
    }
    const double d = sw.Lap() / static_cast<double>(reps);
    auto acc = ct;
    const auto se = s.ToCanonical();
    for (size_t i = 0; i < reps; i++) {
      acc.c1 = acc.c1 * ct.c1.PowNaive(se);
      acc.c2 = acc.c2 * ct.c2.PowNaive(se);
    }
    const double h = sw.Lap() / static_cast<double>(reps);
    sink = sink + acc.c1.ToUint64();
    if (round > 0) {
      keep_min(&best.e, e);
      keep_min(&best.d, d);
      keep_min(&best.h, h);
    }
  }
  (void)sink;
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

// Synthetic R1CS with exactly m constraints v0 · v_{1+j} = v_{1+m+j} and a
// satisfying witness with distinct values — the QAP prover's cost depends
// only on the shape, and this keeps |C| an exact power of two (the apps
// suite cannot pin it).
struct SyntheticSystem {
  R1cs<F128> cs;
  std::vector<F128> witness;
};

inline SyntheticSystem MakeSynthetic(size_t m, Prg& prg) {
  SyntheticSystem s;
  s.cs.layout = {1 + 2 * m, 0, 0};
  s.witness.resize(1 + 2 * m);
  s.witness[0] = prg.NextNonzeroField<F128>();
  for (size_t j = 0; j < m; j++) {
    R1csConstraint<F128> c;
    c.a = LinearCombination<F128>::Variable(0);
    c.b = LinearCombination<F128>::Variable(static_cast<uint32_t>(1 + j));
    c.c = LinearCombination<F128>::Variable(static_cast<uint32_t>(1 + m + j));
    s.cs.constraints.push_back(c);
    s.witness[1 + j] = prg.NextNonzeroField<F128>();
    s.witness[1 + m + j] = s.witness[0] * s.witness[1 + j];
  }
  return s;
}

}  // namespace bench
}  // namespace zaatar

#endif  // BENCH_BENCH_UTIL_H_
