// Measures what the message-driven session layer costs on top of the raw
// argument: the same batch is run two ways at equal seeds —
//
//   in-process: Commit + Answer + VerifyInstanceDetailed called directly
//               (no serialization, no threads),
//   socketpair: ProverSession/VerifierSession exchanging serialized frames
//               over MeasureBatch's AF_UNIX socketpair with length-prefixed
//               frames (two threads, kernel copies).
//
// Verdicts must be identical across both paths (the harness contract); a
// divergence exits nonzero. Emits a human table plus a JSON baseline
// (default BENCH_protocol.json) with absolute times, the overhead ratio, the
// socketpair run's per-phase breakdown, and the bytes moved per batch.
//
// Both modes also time the setup-frame codec on one frame at the paper's
// parameters (LCS m = 16, 56 MB) against the frozen reference codec, and
// write those four times under "setup_codec".
//
// Usage: bench_protocol [--smoke] [--out <path>]
//        [--recv-timeout-ms N] [--max-retries N]
//
// The hardening flags wire through to TransportOptions/BackoffPolicy (0 =
// wait forever / never retry); the JSON carries the recovery counters
// (transport_retries, transport_connections, deadline_exceeded) so a soak
// driver can assert a healthy channel stayed healthy.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
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
  double socketpair_s = 0;
  size_t setup_bytes = 0;
  size_t proof_bytes = 0;  // sum over the batch

  // Per-phase breakdown of the socketpair run, derived from its span tree
  // (all 0.0 under cmake -DZAATAR_TRACE=OFF).
  double query_gen_s = 0;
  double solve_s = 0;      // per instance
  double construct_s = 0;  // per instance
  double commit_s = 0;     // per instance
  double answer_s = 0;     // per instance
  double verify_s = 0;     // per instance

  // Recovery counters of the socketpair run: no retries, no expired
  // deadlines and one connection on a healthy local channel.
  size_t transport_retries = 0;
  size_t transport_connections = 0;
  uint64_t deadline_exceeded = 0;

  double SocketpairOverhead() const {
    return socketpair_s / in_process_s - 1.0;
  }
};

// The path that serializes nothing: same Prg consumption order as
// MeasureBatch (queries -> keys -> commit setup -> instances), then each
// proof built with Commit + Answer and decided by VerifyInstanceDetailed in
// one address space, as vcbench's stage walk does. Returns the verdicts for
// the cross-path comparison, or an empty vector if the prover refused.
template <typename F>
std::vector<VerifyInstanceResult> RunInProcess(
    const App<F>& app, const CompiledProgram<F>& program, size_t beta,
    const PcpParams& params, uint64_t seed, double* seconds) {
  using Backend = ZaatarHarnessBackend<F>;
  using Adapter = typename Backend::Adapter;
  using Arg = Argument<F, Adapter>;

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
    const std::vector<F>* u[2] = {&vectors.first, &vectors.second};
    typename Arg::InstanceProof proof;
    for (size_t o = 0; o < 2; o++) {
      auto commitment =
          LinearCommitment<F>::Commit(*u[o], setup.shared[o].enc_r);
      if (!commitment.ok() ||
          !LinearCommitment<F>::Answer(*u[o],
                                       Adapter::OracleQueries(setup.queries, o),
                                       setup.shared[o].t, &proof.parts[o])
               .ok()) {
        return {};
      }
      proof.parts[o].commitment = *commitment;
    }
    std::vector<F> bound = program.BoundValues(
        instances[i].inputs, instances[i].expected_outputs);
    results.push_back(Arg::VerifyInstanceDetailed(setup, proof, bound));
  }
  *seconds = sw.Lap();
  return results;
}

// One setup frame through the codec and through the frozen reference
// codec (SetupMessage::SerializeReference / DeserializeReference), best of
// three runs each. The codec encodes straight from the verifier's setup;
// the reference encodes a SetupMessage built before the clock starts.
struct CodecRow {
  size_t frame_bytes = 0;
  double encode_s = 0;
  double decode_s = 0;
  double encode_ref_s = 0;
  double decode_ref_s = 0;

  double RoundTripSpeedup() const {
    return (encode_ref_s + decode_ref_s) / (encode_s + decode_s);
  }
};

template <typename Fn>
double BestOfThree(Fn fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int run = 0; run < 3; run++) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

bool BenchSetupCodec(CodecRow* row) {
  using F = F128;
  using Msg = protocol::SetupMessage<F>;
  using Arg = ZaatarArgument<F>;
  auto app = MakeLcsApp(16);
  auto program = CompileZlang<F>(app.source);
  Qap<F> qap(program.zaatar.r1cs);
  Prg prg(33);
  const typename Arg::VerifierSetup setup =
      Arg::Setup(ZaatarPcp<F>::GenerateQueries(qap, PcpParams{}, prg), prg);
  const Msg msg = setup.ToSetupMessage();

  std::vector<uint8_t> frame;
  std::vector<uint8_t> ref_frame;
  row->encode_s = BestOfThree([&] { frame = setup.EncodeSetupMessage(); });
  row->encode_ref_s =
      BestOfThree([&] { ref_frame = msg.SerializeReference(); });
  row->frame_bytes = frame.size();
  if (frame != ref_frame) {
    fprintf(stderr, "FAIL: setup codec frame differs from the reference\n");
    return false;
  }
  bool decoded = true;
  row->decode_s = BestOfThree([&] { decoded &= Msg::Deserialize(frame).ok(); });
  row->decode_ref_s = BestOfThree(
      [&] { decoded &= Msg::DeserializeReference(frame).ok(); });
  if (!decoded) {
    fprintf(stderr, "FAIL: an honest setup frame did not decode\n");
    return false;
  }
  return true;
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
                 const std::string& trace_path, const MeasureOptions& opt,
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
  auto pipe = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
      app, program, beta, params, seed, opt);
  row.socketpair_s = sw.Lap();
  row.proof_len = pipe.proof_len;
  row.setup_bytes = pipe.setup_message_bytes;
  row.proof_bytes = pipe.proof_message_bytes;
  row.query_gen_s = pipe.query_generation_s;
  row.solve_s = pipe.prover.solve_constraints_s;
  row.construct_s = pipe.prover.construct_proof_s;
  row.commit_s = pipe.prover.crypto_s;
  row.answer_s = pipe.prover.answer_queries_s;
  row.verify_s = pipe.verifier_per_instance_s;
  row.transport_retries = pipe.transport_retries;
  row.transport_connections = pipe.transport_connections;
  row.deadline_exceeded =
      pipe.metrics->CounterValue("transport.deadline_exceeded");
  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path, std::ios::binary);
    if (!trace_out) {
      fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
      return false;
    }
    trace_out << obs::ExportJson(pipe.trace.get(), pipe.metrics.get());
  }

  for (const auto& r : reference) {
    if (!r.accepted()) {
      fprintf(stderr, "FAIL: in-process instance rejected: %s\n",
              r.detail.c_str());
      return false;
    }
  }
  if (!VerdictsMatch(reference, pipe.instance_results, "socketpair")) {
    return false;
  }
  rows->push_back(row);
  return true;
}

void PrintRows(const std::vector<Row>& rows) {
  printf("%-10s %4s %9s %12s %12s %8s %10s %10s\n", "app", "beta",
         "proof_len", "inproc_ms", "sockpair_ms", "sp_ovh", "setup_B",
         "proof_B");
  for (const Row& r : rows) {
    printf("%-10s %4zu %9zu %12.2f %12.2f %7.1f%% %10zu %10zu\n",
           r.app.c_str(), r.beta, r.proof_len, r.in_process_s * 1e3,
           r.socketpair_s * 1e3, r.SocketpairOverhead() * 100.0,
           r.setup_bytes, r.proof_bytes);
  }
}

void PrintCodec(const CodecRow& c) {
  printf("\nsetup codec, LCS m=16 frame (%zu B): encode %.4f s (reference "
         "%.4f s), decode %.4f s (reference %.4f s), round trip %.2fx\n",
         c.frame_bytes, c.encode_s, c.encode_ref_s, c.decode_s,
         c.decode_ref_s, c.RoundTripSpeedup());
}

bool WriteJson(const std::string& path, const std::vector<Row>& rows,
               const CodecRow& codec) {
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
            "\"in_process_s\": %.9f, \"socketpair_s\": %.9f, "
            "\"socketpair_overhead\": %.4f, \"setup_bytes\": %zu, "
            "\"proof_bytes\": %zu, \"query_gen_s\": %.9f, "
            "\"solve_s\": %.9f, \"construct_s\": %.9f, \"commit_s\": %.9f, "
            "\"answer_s\": %.9f, \"verify_s\": %.9f, "
            "\"transport_retries\": %zu, \"transport_connections\": %zu, "
            "\"deadline_exceeded\": %llu}%s\n",
            r.app.c_str(), r.beta, r.proof_len, r.in_process_s,
            r.socketpair_s, r.SocketpairOverhead(),
            r.setup_bytes, r.proof_bytes, r.query_gen_s, r.solve_s,
            r.construct_s, r.commit_s, r.answer_s, r.verify_s,
            r.transport_retries, r.transport_connections,
            static_cast<unsigned long long>(r.deadline_exceeded),
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(f,
          "  ],\n  \"setup_codec\": {\"app\": \"lcs(16)\", "
          "\"frame_bytes\": %zu, \"setup_encode_s\": %.9f, "
          "\"setup_decode_s\": %.9f, \"setup_encode_ref_s\": %.9f, "
          "\"setup_decode_ref_s\": %.9f}\n}\n",
          codec.frame_bytes, codec.encode_s, codec.decode_s,
          codec.encode_ref_s, codec.decode_ref_s);
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

  MeasureOptions opt;
  opt.measure_native = false;
  // One prover thread, like the in-process path: the rows measure what the
  // session layer costs, not what the pooled prover saves.
  opt.prover_threads = 1;
  opt.transport.recv_deadline = std::chrono::milliseconds(recv_timeout_ms);
  opt.transport.handshake_deadline =
      std::chrono::milliseconds(recv_timeout_ms);
  opt.backoff.max_retries = max_retries;

  std::vector<Row> rows;
  bool ok;
  if (smoke) {
    ok = BenchConfig(/*lcs_size=*/3, /*beta=*/2, /*seed=*/31, trace, opt,
                     &rows);
  } else {
    ok = BenchConfig(/*lcs_size=*/4, /*beta=*/4, /*seed=*/31, trace, opt,
                     &rows) &&
         BenchConfig(/*lcs_size=*/8, /*beta=*/4, /*seed=*/32, trace, opt,
                     &rows);
  }
  CodecRow codec;
  if (!ok || !BenchSetupCodec(&codec)) {
    return 1;
  }
  PrintRows(rows);
  PrintCodec(codec);
  if (!WriteJson(out, rows, codec)) {
    return 1;
  }
  printf("\nwrote %s\n", out.c_str());
  return 0;
}
