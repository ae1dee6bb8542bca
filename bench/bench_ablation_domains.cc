// Ablation (DESIGN.md §7): the prover's construct-u pipeline under three
// evaluation-domain strategies, at growing QAP degree n = |C| on
// bench_util's synthetic R1CS, one thread each:
//
//   1. paper points: the prover that runs (Qap::ComputeH) on the paper's
//      arithmetic-progression points {0..n} over the 128-bit field — A, B
//      and C shifted to the h nodes by three middle products through the
//      CRT/NTT residue basis;
//   2. naive: the direct O(n^2) reference (Qap::ComputeHNaive), for
//      contrast, at n <= 2048;
//   3. roots-of-unity: a modern SNARK-style domain over an NTT-friendly
//      62-bit prime, where interpolation is a single inverse NTT — the
//      design Zaatar's successors adopted.
//
// Expected shape: (1) and (3) grow ~n log n, (1) with the residue basis's
// constant on top (5 primes per product on F128); (2) grows ~n^2.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/poly/ntt.h"
#include "src/util/parallel_for.h"

namespace zaatar {
namespace {

// Seconds of one ComputeH (or, with `naive`, one ComputeHNaive) on a
// synthetic system with n constraints; the prover's per-Qap context is
// built outside the timed region, as a batch amortizes it.
double TimeComputeH(size_t n, bool naive, Prg& prg) {
  bench::SyntheticSystem s = bench::MakeSynthetic(n, prg);
  Qap<F128> qap(s.cs);
  qap.WarmProver();
  Stopwatch sw;
  auto hr = naive ? qap.ComputeHNaive(s.witness) : qap.ComputeH(s.witness);
  const double seconds = sw.ElapsedSeconds();
  if (!hr.exact) {
    fprintf(stderr, "synthetic witness rejected at n = %zu\n", n);
  }
  return seconds;
}

double TimeRootsOfUnity(size_t n, Prg& prg) {
  // Degree-n interpolation = inverse NTT of size >= n+1; P_w needs a
  // double-size forward/inverse pair for the product, then division is a
  // pointwise multiply by precomputed inverse-domain values. Model the
  // pipeline as: 3 inverse NTTs (A, B, C) + 1 product convolution + 1
  // pointwise division pass.
  size_t log_n = 1;
  while ((size_t{1} << log_n) < n + 1) {
    log_n++;
  }
  const NttPlan& plan = GetNttPlan(0, log_n);
  const NttPlan& plan2 = GetNttPlan(0, log_n + 1);
  const MontField64& f = plan.field();
  std::vector<uint64_t> a(plan.size()), b(plan.size()), c(plan.size());
  for (auto* v : {&a, &b, &c}) {
    for (auto& x : *v) {
      x = prg.NextU64() % f.modulus();
    }
  }
  Stopwatch sw;
  plan.Inverse(a.data());
  plan.Inverse(b.data());
  plan.Inverse(c.data());
  std::vector<uint64_t> wa(plan2.size(), 0), wb(plan2.size(), 0);
  std::copy(a.begin(), a.end(), wa.begin());
  std::copy(b.begin(), b.end(), wb.begin());
  plan2.Forward(wa.data());
  plan2.Forward(wb.data());
  for (size_t i = 0; i < plan2.size(); i++) {
    wa[i] = f.Mul(wa[i], wb[i]);
  }
  plan2.Inverse(wa.data());
  for (size_t i = 0; i < plan2.size(); i++) {
    wa[i] = f.Mul(wa[i], a[i % plan.size()]);  // stand-in pointwise divide
  }
  return sw.ElapsedSeconds();
}

}  // namespace
}  // namespace zaatar

int main() {
  using namespace zaatar;
  printf("Ablation: prover construct-u pipeline by evaluation domain "
         "(one thread)\n\n");
  printf("%8s %18s %18s %18s\n", "n=|C|", "paper pts (shift)",
         "naive O(n^2)", "roots-of-unity");
  bench::PrintRule(70);
  ScopedParallelismCap one_thread(1);
  Prg prg(99);
  for (size_t n : {512u, 1024u, 2048u, 4096u, 8192u}) {
    double paper = TimeComputeH(n, /*naive=*/false, prg);
    double naive = n <= 2048 ? TimeComputeH(n, /*naive=*/true, prg) : -1;
    double rou = TimeRootsOfUnity(n, prg);
    printf("%8zu %18s %18s %18s\n", n, bench::HumanSeconds(paper).c_str(),
           bench::HumanSeconds(naive).c_str(),
           bench::HumanSeconds(rou).c_str());
  }
  printf("\n(naive column measured at n <= 2048; extrapolate "
         "quadratically)\n");
  return 0;
}
