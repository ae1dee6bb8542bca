// zaatar-run: drive one benchmark app through the full batched argument and
// report the per-phase costs, verdicts, and (optionally) the observability
// export. This is the command-line face of the tracing layer: pass
// --trace <path> to dump the run's span tree + metrics as JSON.
//
//   zaatar-run --app lcs --size 8 --beta 4 --seed 7 --trace trace.json
//
// Apps: lcs, matmul, apsp, fannkuch, pam (F128) and root_finding (F220).
// --backend ginger selects the quadratic baseline (small sizes only).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "src/apps/harness.h"
#include "src/apps/suite.h"
#include "src/field/fields.h"
#include "src/obs/export.h"
#include "src/pcp/params.h"

namespace {

struct Options {
  std::string app = "lcs";
  size_t size = 6;
  size_t beta = 2;
  uint64_t seed = 1;
  std::string backend = "zaatar";
  std::string trace_path;  // empty = no export
  bool measure_native = false;
  bool paper_params = false;  // default: PcpParams::Light() (fast smoke)
  // Failure hardening (0 = wait forever / never retry, the historical
  // behavior): per-Receive deadline and reconnect budget for the verifier.
  uint64_t recv_timeout_ms = 0;
  uint32_t max_retries = 0;
};

void Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--app lcs|matmul|apsp|fannkuch|pam|root_finding] [--size N]\n"
      << "       [--beta N] [--seed S] [--backend zaatar|ginger]\n"
      << "       [--trace PATH] [--measure-native] [--paper-params]\n"
      << "       [--recv-timeout-ms N] [--max-retries N]\n";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--app") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->app = v;
    } else if (a == "--size") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->size = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--beta") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->beta = static_cast<size_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--backend") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->backend = v;
    } else if (a == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->trace_path = v;
    } else if (a == "--recv-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->recv_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--max-retries") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->max_retries =
          static_cast<uint32_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--measure-native") {
      opt->measure_native = true;
    } else if (a == "--paper-params") {
      opt->paper_params = true;
    } else {
      std::cerr << "unknown flag: " << a << "\n";
      return false;
    }
  }
  if (opt->beta == 0 || opt->size == 0) {
    std::cerr << "--beta and --size must be positive\n";
    return false;
  }
  if (opt->backend != "zaatar" && opt->backend != "ginger") {
    std::cerr << "--backend must be zaatar or ginger\n";
    return false;
  }
  return true;
}

template <typename F>
int RunApp(const zaatar::App<F>& app, const Options& opt) {
  using namespace zaatar;
  CompiledProgram<F> program = CompileZlang<F>(app.source);
  PcpParams params =
      opt.paper_params ? PcpParams{} : PcpParams::Light();

  MeasureOptions mopt;
  mopt.measure_native = opt.measure_native;
  mopt.transport.recv_deadline =
      std::chrono::milliseconds(opt.recv_timeout_ms);
  mopt.backoff.max_retries = opt.max_retries;
  mopt.backoff.jitter_seed = opt.seed;

  BatchMeasurement m;
  if (opt.backend == "ginger") {
    m = MeasureBatch<F, GingerHarnessBackend<F>>(app, program, opt.beta,
                                                 params, opt.seed, mopt);
  } else {
    m = MeasureBatch<F, ZaatarHarnessBackend<F>>(app, program, opt.beta,
                                                 params, opt.seed, mopt);
  }

  std::printf("app                    %s\n", app.name.c_str());
  std::printf("backend                %s\n", opt.backend.c_str());
  std::printf("beta                   %zu\n", opt.beta);
  std::printf("constraints (zaatar)   %zu\n", m.stats.c_zaatar);
  std::printf("proof length           %zu\n", m.proof_len);
  std::printf("total queries          %zu\n", m.total_queries);
  std::printf("query generation       %.6f s\n", m.query_generation_s);
  std::printf("commit setup           %.6f s\n", m.commit_setup_s);
  std::printf("prover solve           %.6f s/inst\n",
              m.prover.solve_constraints_s);
  std::printf("prover construct       %.6f s/inst\n",
              m.prover.construct_proof_s);
  std::printf("prover commit          %.6f s/inst\n", m.prover.crypto_s);
  std::printf("prover answer          %.6f s/inst\n",
              m.prover.answer_queries_s);
  std::printf("verifier per instance  %.6f s\n", m.verifier_per_instance_s);
  std::printf("setup message          %zu bytes\n", m.setup_message_bytes);
  std::printf("proof messages         %zu bytes\n", m.proof_message_bytes);
  std::printf("transport retries      %zu\n", m.transport_retries);
  std::printf("transport connections  %zu\n", m.transport_connections);
  std::printf("all accepted           %s\n", m.all_accepted ? "yes" : "no");

  if (!opt.trace_path.empty()) {
    std::string json = obs::ExportJson(m.trace.get(), m.metrics.get());
    std::ofstream out(opt.trace_path, std::ios::binary);
    if (!out) {
      std::cerr << "cannot open trace file: " << opt.trace_path << "\n";
      return 1;
    }
    out << json;
    std::printf("trace                  %s (%zu bytes)\n",
                opt.trace_path.c_str(), json.size());
  }
  return m.all_accepted ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage(argv[0]);
    return 1;
  }
  try {
    if (opt.app == "lcs") {
      return RunApp(zaatar::MakeLcsApp(opt.size), opt);
    } else if (opt.app == "matmul") {
      return RunApp(zaatar::MakeMatMulApp(opt.size), opt);
    } else if (opt.app == "apsp") {
      return RunApp(zaatar::MakeApspApp(opt.size), opt);
    } else if (opt.app == "fannkuch") {
      return RunApp(zaatar::MakeFannkuchApp(2, opt.size, opt.size), opt);
    } else if (opt.app == "pam") {
      return RunApp(zaatar::MakePamApp(opt.size, 2), opt);
    } else if (opt.app == "root_finding") {
      return RunApp(zaatar::MakeRootFindApp(opt.size, 4), opt);
    }
    std::cerr << "unknown app: " << opt.app << "\n";
    Usage(argv[0]);
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
