// Differential fuzzing of the zlang->R1CS compiler (src/testing/zlang_fuzz.h):
// random well-formed programs are cross-checked — native interpreter vs.
// witness solver vs. symbolic equivalence verdict, with a periodic full
// argument round that must ACCEPT. Any divergence fails the test with a
// shrunk reproducer and its separating input vector.
//
// Iteration count defaults to 40 and is overridable via ZAATAR_FUZZ_ITERS
// (scripts/ci.sh runs 200 under ASan and under UBSan).

#include <cstdio>
#include <cstdlib>

#include "gtest/gtest.h"
#include "src/field/fields.h"
#include "src/testing/zlang_fuzz.h"

namespace zaatar {
namespace {

size_t FuzzIters() {
  const char* env = std::getenv("ZAATAR_FUZZ_ITERS");
  if (env != nullptr) {
    long v = std::atol(env);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
  return 40;
}

TEST(EquivFuzz, RandomProgramsAgreeAcrossAllCheckers) {
  size_t iters = FuzzIters();
  ZlangFuzzReport report = RunZlangFuzz<F128>(iters, /*seed=*/0xFA22);
  if (report.failure.has_value()) {
    FAIL() << "divergence after " << report.iterations << " case(s):\n"
           << *report.failure;
  }
  EXPECT_EQ(report.compile_errors, 0u);
  // kUnknown is not a divergence, but it means the case produced no signal;
  // the generator is designed so that nearly all cases resolve.
  EXPECT_LE(report.unknown_verdicts, report.iterations / 3)
      << "too many unknown verdicts: generator/check mismatch";
  std::printf("fuzz: %zu case(s), %zu unknown verdict(s)\n",
              report.iterations, report.unknown_verdicts);
}

// A distinct seed exercises different generator paths; kept small so the
// default test run stays fast.
TEST(EquivFuzz, SecondSeedSweep) {
  ZlangFuzzReport report = RunZlangFuzz<F128>(10, /*seed=*/0xBEE5);
  if (report.failure.has_value()) {
    FAIL() << "divergence after " << report.iterations << " case(s):\n"
           << *report.failure;
  }
}

}  // namespace
}  // namespace zaatar
