// Measures what the message-driven session layer costs on top of the raw
// argument: the same batch is run three ways at equal seeds —
//
//   in-process: the pre-refactor path (Argument API directly, no
//               serialization, no threads),
//   loopback:   ProverSession/VerifierSession exchanging serialized frames
//               over the in-memory loopback transport (two threads),
//   socketpair: the same sessions over a real AF_UNIX socketpair with
//               length-prefixed frames (two threads, kernel copies).
//
// Verdicts must be identical across all three paths (the harness contract);
// a divergence exits nonzero. Emits a human table plus a JSON baseline
// (default BENCH_protocol.json) with absolute times, overhead ratios, and
// the bytes moved per batch.
//
// Usage: bench_protocol [--smoke] [--out <path>]
//        [--recv-timeout-ms N] [--max-retries N]
//
// The hardening flags wire through to TransportOptions/BackoffPolicy (0 =
// wait forever / never retry); the JSON carries the recovery counters
// (transport_retries, transport_connections, deadline_exceeded) so a soak
// driver can assert a healthy channel stayed healthy.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/apps/harness.h"
#include "src/apps/suite.h"
#include "src/compiler/compile.h"
#include "src/obs/export.h"
#include "src/util/stopwatch.h"

namespace zaatar {
namespace {

struct Row {
  std::string app;
  size_t beta = 0;
  size_t proof_len = 0;
  double in_process_s = 0;   // whole batch, wall clock
  double loopback_s = 0;
  double socketpair_s = 0;
  size_t setup_bytes = 0;
  size_t proof_bytes = 0;  // sum over the batch

  // Per-phase breakdown of the loopback run, derived from its span tree
  // (all 0.0 under cmake -DZAATAR_TRACE=OFF).
  double query_gen_s = 0;
  double solve_s = 0;      // per instance
  double construct_s = 0;  // per instance
  double commit_s = 0;     // per instance
  double answer_s = 0;     // per instance
  double verify_s = 0;     // per instance

  // Recovery counters summed over the loopback + socketpair runs; all zero
  // on a healthy local channel.
  size_t transport_retries = 0;
  size_t transport_connections = 0;
  uint64_t deadline_exceeded = 0;

  double LoopbackOverhead() const { return loopback_s / in_process_s - 1.0; }
  double SocketpairOverhead() const {
    return socketpair_s / in_process_s - 1.0;
  }
};

// The pre-refactor path: same Prg consumption order as MeasureBatch
// (queries -> keys -> commit setup -> instances), then prove/verify in one
// address space with no serialization. Returns the verdicts for the
// cross-path comparison.
template <typename F>
std::vector<VerifyInstanceResult> RunInProcess(
    const App<F>& app, const CompiledProgram<F>& program, size_t beta,
    const PcpParams& params, uint64_t seed, double* seconds) {
  using Backend = ZaatarHarnessBackend<F>;
  using Arg = Argument<F, typename Backend::Adapter>;

  Stopwatch sw;
  Prg prg(seed);
  typename Backend::Prepared prep(program);
  auto queries = Backend::GenerateQueries(prep, params, prg);
  auto setup = Arg::Setup(std::move(queries), prg);
  std::vector<AppInstance<F>> instances;
  instances.reserve(beta);
  for (size_t i = 0; i < beta; i++) {
    instances.push_back(app.make_instance(prg));
  }

  std::vector<VerifyInstanceResult> results;
  results.reserve(beta);
  for (size_t i = 0; i < beta; i++) {
    std::vector<F> gw = program.SolveGinger(instances[i].inputs);
    auto vectors = Backend::BuildProofVectors(prep, program, gw);
    auto proof = Arg::Prove({&vectors.first, &vectors.second}, setup);
    std::vector<F> bound = program.BoundValues(
        instances[i].inputs, instances[i].expected_outputs);
    results.push_back(Arg::VerifyInstanceDetailed(setup, proof, bound));
  }
  *seconds = sw.Lap();
  return results;
}

bool VerdictsMatch(const std::vector<VerifyInstanceResult>& a,
                   const std::vector<VerifyInstanceResult>& b,
                   const char* label) {
  if (a.size() != b.size()) {
    fprintf(stderr, "FAIL: %s verdict count %zu != %zu\n", label, a.size(),
            b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].verdict != b[i].verdict) {
      fprintf(stderr, "FAIL: %s instance %zu: %s != %s\n", label, i,
              VerifyVerdictName(a[i].verdict), VerifyVerdictName(b[i].verdict));
      return false;
    }
  }
  return true;
}

bool BenchConfig(size_t lcs_size, size_t beta, uint64_t seed,
                 const std::string& trace_path, const MeasureOptions& base_opt,
                 std::vector<Row>* rows) {
  auto app = MakeLcsApp(lcs_size);
  auto program = CompileZlang<F128>(app.source);
  PcpParams params = PcpParams::Light();

  Row row;
  row.app = app.name;
  row.beta = beta;

  auto reference = RunInProcess(app, program, beta, params, seed,
                                &row.in_process_s);

  Stopwatch sw;
  MeasureOptions loopback_opt = base_opt;
  loopback_opt.link = MeasureOptions::Link::kLoopback;
  auto loopback = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, beta, params, seed, loopback_opt);
  row.loopback_s = sw.Lap();
  row.proof_len = loopback.proof_len;
  row.setup_bytes = loopback.setup_message_bytes;
  row.proof_bytes = loopback.proof_message_bytes;
  row.query_gen_s = loopback.query_generation_s;
  row.solve_s = loopback.prover.solve_constraints_s;
  row.construct_s = loopback.prover.construct_proof_s;
  row.commit_s = loopback.prover.crypto_s;
  row.answer_s = loopback.prover.answer_queries_s;
  row.verify_s = loopback.verifier_per_instance_s;
  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path, std::ios::binary);
    if (!trace_out) {
      fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
      return false;
    }
    trace_out << obs::ExportJson(loopback.trace.get(),
                                 loopback.metrics.get());
  }

  MeasureOptions pipe_opt = base_opt;
  pipe_opt.link = MeasureOptions::Link::kSocketpair;
  sw.Restart();
  auto pipe = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, beta, params, seed, pipe_opt);
  row.socketpair_s = sw.Lap();

  row.transport_retries = loopback.transport_retries + pipe.transport_retries;
  row.transport_connections =
      loopback.transport_connections + pipe.transport_connections;
  row.deadline_exceeded =
      loopback.metrics->CounterValue("transport.deadline_exceeded") +
      pipe.metrics->CounterValue("transport.deadline_exceeded");

  for (const auto& r : reference) {
    if (!r.accepted()) {
      fprintf(stderr, "FAIL: in-process instance rejected: %s\n",
              r.detail.c_str());
      return false;
    }
  }
  if (!VerdictsMatch(reference, loopback.instance_results, "loopback") ||
      !VerdictsMatch(reference, pipe.instance_results, "socketpair")) {
    return false;
  }
  rows->push_back(row);
  return true;
}

void PrintRows(const std::vector<Row>& rows) {
  printf("%-10s %4s %9s %12s %12s %12s %8s %8s %10s %10s\n", "app", "beta",
         "proof_len", "inproc_ms", "loopback_ms", "sockpair_ms", "lb_ovh",
         "sp_ovh", "setup_B", "proof_B");
  for (const Row& r : rows) {
    printf("%-10s %4zu %9zu %12.2f %12.2f %12.2f %7.1f%% %7.1f%% %10zu %10zu\n",
           r.app.c_str(), r.beta, r.proof_len, r.in_process_s * 1e3,
           r.loopback_s * 1e3, r.socketpair_s * 1e3,
           r.LoopbackOverhead() * 100.0, r.SocketpairOverhead() * 100.0,
           r.setup_bytes, r.proof_bytes);
  }
}

bool WriteJson(const std::string& path, const std::vector<Row>& rows) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  fprintf(f, "{\n  \"bench\": \"protocol\",\n  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); i++) {
    const Row& r = rows[i];
    fprintf(f,
            "    {\"app\": \"%s\", \"beta\": %zu, \"proof_len\": %zu, "
            "\"in_process_s\": %.9f, \"loopback_s\": %.9f, "
            "\"socketpair_s\": %.9f, \"loopback_overhead\": %.4f, "
            "\"socketpair_overhead\": %.4f, \"setup_bytes\": %zu, "
            "\"proof_bytes\": %zu, \"query_gen_s\": %.9f, "
            "\"solve_s\": %.9f, \"construct_s\": %.9f, \"commit_s\": %.9f, "
            "\"answer_s\": %.9f, \"verify_s\": %.9f, "
            "\"transport_retries\": %zu, \"transport_connections\": %zu, "
            "\"deadline_exceeded\": %llu}%s\n",
            r.app.c_str(), r.beta, r.proof_len, r.in_process_s, r.loopback_s,
            r.socketpair_s, r.LoopbackOverhead(), r.SocketpairOverhead(),
            r.setup_bytes, r.proof_bytes, r.query_gen_s, r.solve_s,
            r.construct_s, r.commit_s, r.answer_s, r.verify_s,
            r.transport_retries, r.transport_connections,
            static_cast<unsigned long long>(r.deadline_exceeded),
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(f, "  ]\n}\n");
  fclose(f);
  return true;
}

}  // namespace
}  // namespace zaatar

int main(int argc, char** argv) {
  using namespace zaatar;
  bool smoke = false;
  std::string out = "BENCH_protocol.json";
  std::string trace;
  uint64_t recv_timeout_ms = 0;
  uint32_t max_retries = 0;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace = argv[++i];
    } else if (strcmp(argv[i], "--recv-timeout-ms") == 0 && i + 1 < argc) {
      recv_timeout_ms = strtoull(argv[++i], nullptr, 10);
    } else if (strcmp(argv[i], "--max-retries") == 0 && i + 1 < argc) {
      max_retries = static_cast<uint32_t>(strtoull(argv[++i], nullptr, 10));
    } else {
      fprintf(stderr,
              "usage: %s [--smoke] [--out <path>] [--trace <path>]\n"
              "       [--recv-timeout-ms N] [--max-retries N]\n",
              argv[0]);
      return 2;
    }
  }

  MeasureOptions base_opt;
  base_opt.measure_native = false;
  // One prover thread, like the in-process path: the rows measure what the
  // session layer costs, not what the pooled prover saves.
  base_opt.prover_threads = 1;
  base_opt.transport.recv_deadline = std::chrono::milliseconds(recv_timeout_ms);
  base_opt.transport.handshake_deadline =
      std::chrono::milliseconds(recv_timeout_ms);
  base_opt.backoff.max_retries = max_retries;

  std::vector<Row> rows;
  bool ok;
  if (smoke) {
    ok = BenchConfig(/*lcs_size=*/3, /*beta=*/2, /*seed=*/31, trace, base_opt,
                     &rows);
  } else {
    ok = BenchConfig(/*lcs_size=*/4, /*beta=*/4, /*seed=*/31, trace, base_opt,
                     &rows) &&
         BenchConfig(/*lcs_size=*/8, /*beta=*/4, /*seed=*/32, trace, base_opt,
                     &rows);
  }
  if (!ok) {
    return 1;
  }
  PrintRows(rows);
  if (!WriteJson(out, rows)) {
    return 1;
  }
  printf("\nwrote %s\n", out.c_str());
  return 0;
}
