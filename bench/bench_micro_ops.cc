// Reproduces the §5.1 microbenchmark table: per-operation CPU costs
//   e (encrypt), d (decrypt), h (ciphertext fold), f_lazy, f (field mul),
//   f_div (field division), c (pseudorandom field element)
// for the 128-bit and 220-bit field sizes, via google-benchmark.
//
// Paper reference values (Xeon E5540, 2009-era): e=65us d=170us h=91us
// f_lazy=68ns f=210ns fdiv=2us c=160ns (128-bit row). Absolute numbers
// differ on modern hardware; the *ratios* (crypto ops ~ 100-1000x field ops)
// are the shape that drives every downstream figure.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/prg.h"
#include "src/field/fields.h"
#include "src/pcp/linear_oracle.h"

namespace zaatar {
namespace {

template <typename F>
void BM_FieldMul_f(benchmark::State& state) {
  Prg prg(1);
  F x = prg.template NextNonzeroField<F>();
  F y = prg.template NextNonzeroField<F>();
  for (auto _ : state) {
    x *= y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FieldMul_f<F128>);
BENCHMARK(BM_FieldMul_f<F220>);

// f_lazy: one term of the lazily reduced inner product that answers
// queries (full products summed unreduced, one reduction per answer), over
// a cache-resident 1024-element vector. ns_per_term is the per-term cost.
template <typename F>
void BM_InnerProductTerm_f_lazy(benchmark::State& state) {
  const size_t n = 1024;
  Prg prg(8);
  std::vector<F> a = prg.NextFieldVector<F>(n);
  std::vector<F> b = prg.NextFieldVector<F>(n);
  for (auto _ : state) {
    F x = VectorOracle<F>::InnerProduct(a.data(), b.data(), n);
    benchmark::DoNotOptimize(x);
  }
  state.counters["ns_per_term"] = benchmark::Counter(
      static_cast<double>(n) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_InnerProductTerm_f_lazy<F128>);
BENCHMARK(BM_InnerProductTerm_f_lazy<F220>);

template <typename F>
void BM_FieldAdd(benchmark::State& state) {
  Prg prg(2);
  F x = prg.template NextNonzeroField<F>();
  F y = prg.template NextNonzeroField<F>();
  for (auto _ : state) {
    x += y;
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FieldAdd<F128>);
BENCHMARK(BM_FieldAdd<F220>);

template <typename F>
void BM_FieldDiv_fdiv(benchmark::State& state) {
  Prg prg(3);
  F x = prg.template NextNonzeroField<F>();
  for (auto _ : state) {
    x = x.Inverse() + F::One();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FieldDiv_fdiv<F128>);
BENCHMARK(BM_FieldDiv_fdiv<F220>);

template <typename F>
void BM_PrgElement_c(benchmark::State& state) {
  Prg prg(4);
  for (auto _ : state) {
    F x = prg.template NextField<F>();
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_PrgElement_c<F128>);
BENCHMARK(BM_PrgElement_c<F220>);

template <typename F>
void BM_Encrypt_e(benchmark::State& state) {
  using EG = ElGamal<F>;
  Prg prg(5);
  auto kp = EG::GenerateKeys(prg);
  F m = prg.template NextField<F>();
  for (auto _ : state) {
    auto ct = EG::Encrypt(kp.pk, m, prg);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_Encrypt_e<F128>);
BENCHMARK(BM_Encrypt_e<F220>);

template <typename F>
void BM_Decrypt_d(benchmark::State& state) {
  using EG = ElGamal<F>;
  Prg prg(6);
  auto kp = EG::GenerateKeys(prg);
  auto ct = EG::Encrypt(kp.pk, prg.template NextField<F>(), prg);
  for (auto _ : state) {
    auto pt = EG::DecryptToGroup(kp.sk, kp.pk, ct);
    benchmark::DoNotOptimize(pt);
  }
}
BENCHMARK(BM_Decrypt_d<F128>);
BENCHMARK(BM_Decrypt_d<F220>);

// h: one homomorphic fold step — ciphertext^scalar plus accumulate. This is
// the per-element cost of the prover's commitment Enc(pi(r)).
template <typename F>
void BM_HomomorphicFold_h(benchmark::State& state) {
  using EG = ElGamal<F>;
  Prg prg(7);
  auto kp = EG::GenerateKeys(prg);
  auto ct = EG::Encrypt(kp.pk, prg.template NextField<F>(), prg);
  auto acc = ct;
  F s = prg.template NextNonzeroField<F>();
  for (auto _ : state) {
    acc = acc * ct.Pow(s);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_HomomorphicFold_h<F128>);
BENCHMARK(BM_HomomorphicFold_h<F220>);

}  // namespace
}  // namespace zaatar

BENCHMARK_MAIN();
