// End-to-end measurement harness: compiles an App, runs a full batched
// argument, and reports the per-phase costs the evaluation figures need.
// Used by bench/ and examples/.
//
// The batch runs as a REAL two-party exchange: the verifier session lives on
// the calling thread, the prover session on a dedicated thread (proving the
// instances on a pool of its own, see MeasureOptions::prover_threads), and
// the only thing that crosses between them is serialized protocol messages
// over a PipeTransport socketpair. Every benchmark and test therefore
// exercises the same byte-level boundary a networked deployment would. The
// Prg consumption order is queries -> keys -> commitment setup -> instances,
// and proving and verifying draw nothing, so a reference that calls the
// layers directly in that order reaches the same verdicts at equal seeds.

#ifndef SRC_APPS_HARNESS_H_
#define SRC_APPS_HARNESS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/apps/suite.h"
#include "src/argument/argument.h"
#include "src/argument/cost_model.h"
#include "src/constraints/qap.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pcp/ginger_pcp.h"
#include "src/pcp/zaatar_pcp.h"
#include "src/protocol/session.h"

namespace zaatar {

struct BatchMeasurement {
  ComputationStats stats;          // includes measured t_local
  // The per-phase cost fields below are views over the span tree in `trace`:
  // each is the summed duration of the correspondingly named spans (divided
  // by beta for the per-instance ones).
  double query_generation_s = 0;   // "verifier.query_gen" (per batch)
  double commit_setup_s = 0;       // "verifier.commit_setup" (per batch)
  ProverCosts prover;              // mean per instance, from prover.* spans
  double verifier_per_instance_s = 0;  // "verifier.verify" / beta
  size_t proof_len = 0;
  size_t total_queries = 0;

  // The full span tree and metrics registry of the run (always populated;
  // export with obs::ExportJson). The root span is "harness.batch"; the
  // prover thread's spans are stitched under it.
  std::shared_ptr<obs::Tracer> trace;
  std::shared_ptr<obs::Metrics> metrics;

  // Per-instance verdicts (the PR-1 taxonomy), not just their conjunction:
  // instance i's result is instance_results[i], verdict_counts is indexed by
  // VerifyVerdict, first_failing_index is -1 when every instance accepted.
  std::vector<VerifyInstanceResult> instance_results;
  std::array<size_t, kNumVerifyVerdicts> verdict_counts{};
  ptrdiff_t first_failing_index = -1;
  bool all_accepted = true;

  // Bytes actually moved across the transport.
  size_t setup_message_bytes = 0;
  size_t proof_message_bytes = 0;  // sum over the batch

  // Recovery accounting: how many times an instance was re-attempted after a
  // transport failure, and how many connections (initial + reconnects) the
  // batch consumed. 0 and 1 respectively on a healthy channel.
  size_t transport_retries = 0;
  size_t transport_connections = 0;
};

// Folds one verdict into the measurement's taxonomy bookkeeping.
inline void RecordVerdict(BatchMeasurement* out, size_t index,
                          VerifyInstanceResult result) {
  out->verdict_counts[static_cast<size_t>(result.verdict)]++;
  if (!result.accepted()) {
    out->all_accepted = false;
    if (out->first_failing_index < 0) {
      out->first_failing_index = static_cast<ptrdiff_t>(index);
    }
  }
  out->instance_results.push_back(std::move(result));
}

// Fills the encoding statistics (Figure 9 quantities) without running
// anything.
template <typename F>
ComputationStats ComputeStats(const CompiledProgram<F>& program,
                              double t_local_s) {
  ComputationStats s;
  s.t_local_s = t_local_s;
  s.z_ginger = program.ZGinger();
  s.c_ginger = program.CGinger();
  s.k = program.ginger.AdditiveTermCount();
  s.k2 = program.ginger.DistinctQuadTermCount();
  s.z_zaatar = program.ZZaatar();
  s.c_zaatar = program.CZaatar();
  s.num_inputs = program.ginger.layout.num_inputs;
  s.num_outputs = program.ginger.layout.num_outputs;
  return s;
}

// Backend requirements for MeasureBatch:
//   using Adapter = ...;                       // the Argument adapter
//   struct Prepared { explicit Prepared(const CompiledProgram<F>&); ... };
//   static Queries GenerateQueries(const Prepared&, const PcpParams&, Prg&);
//   static size_t ProofLen(const Queries&);
//   static ProofVectors BuildProofVectors(const Prepared&,
//       const CompiledProgram<F>&, const std::vector<F>& ginger_assignment);
// ProofVectors exposes `first` and `second`, the two oracle vectors.
// BuildProofVectors records its phases as "prover.solve" /
// "prover.construct_proof" spans on the ambient tracer.

// Zaatar backend: oracles are z and the QAP quotient h.
template <typename F>
struct ZaatarHarnessBackend {
  using Adapter = ZaatarAdapter<F>;
  using Queries = typename ZaatarPcp<F>::Queries;

  struct Prepared {
    explicit Prepared(const CompiledProgram<F>& program)
        : qap(program.zaatar.r1cs) {
      // One-time prover setup (CRT basis, divisor-inverse NTT images,
      // subproduct-tree residue images) happens here, outside the
      // per-instance prover.construct_proof spans — it is amortized across
      // the batch exactly like the verifier's query setup.
      qap.WarmProver();
    }
    Qap<F> qap;  // holds a pointer into the program's R1CS; do not copy
  };

  struct ProofVectors {
    std::vector<F> first;   // z
    std::vector<F> second;  // h
  };

  static Queries GenerateQueries(const Prepared& prep, const PcpParams& params,
                                 Prg& prg) {
    return ZaatarPcp<F>::GenerateQueries(prep.qap, params, prg);
  }

  static size_t ProofLen(const Queries& q) { return q.z_len + q.h_len; }

  static ProofVectors BuildProofVectors(
      const Prepared& prep, const CompiledProgram<F>& program,
      const std::vector<F>& ginger_assignment) {
    std::vector<F> w;
    {
      obs::Span solve("prover.solve");
      w = program.SolveZaatar(ginger_assignment);
    }
    obs::Span construct("prover.construct_proof");
    ZaatarProof<F> proof = BuildZaatarProof(prep.qap, w);
    return {std::move(proof.z), std::move(proof.h)};
  }
};

// Ginger baseline backend: oracles are z and the tensor z ⊗ z. Only feasible
// at small sizes (the proof is |Z| + |Z|^2 long); larger sizes use the
// Figure 3 cost model, as the paper itself does.
template <typename F>
struct GingerHarnessBackend {
  using Adapter = GingerAdapter<F>;
  using Queries = typename GingerPcp<F>::Queries;

  struct Prepared {
    explicit Prepared(const CompiledProgram<F>& program)
        : pcp(BuildGingerPcpInstance(program.ginger)) {}
    GingerPcpInstance<F> pcp;
  };

  struct ProofVectors {
    std::vector<F> first;   // z
    std::vector<F> second;  // z ⊗ z
  };

  static Queries GenerateQueries(const Prepared& prep, const PcpParams& params,
                                 Prg& prg) {
    return GingerPcp<F>::GenerateQueries(prep.pcp, params, prg);
  }

  static size_t ProofLen(const Queries& q) { return q.n + q.n * q.n; }

  static ProofVectors BuildProofVectors(
      const Prepared& prep, const CompiledProgram<F>& /*program*/,
      const std::vector<F>& ginger_assignment) {
    obs::Span construct("prover.construct_proof");
    GingerProof<F> proof = BuildGingerProof(prep.pcp, ginger_assignment);
    return {std::move(proof.z), std::move(proof.tensor)};
  }
};

// Knobs for the two-party exchange inside MeasureBatch, which connects the
// two sessions with a PipeTransport socketpair every time it (re)connects.
// The defaults are infinite deadlines and a small retry budget that never
// fires on a healthy channel.
struct MeasureOptions {
  bool measure_native = true;

  // Unused: the socketpair is the only link. vcbench/vcbench.cc still
  // assigns it, and the benchmark's sources change only with the benchmark,
  // so it goes once that line does (ROADMAP item 5).
  enum class Link { kSocketpair };
  Link link = Link::kSocketpair;

  // Deadlines for every connection the harness makes.
  protocol::TransportOptions transport;

  // Reconnect-and-replay policy for the verifier (see src/protocol/retry.h).
  // On an exhausted budget the in-flight instance degrades to a
  // TRANSPORT_FAILED verdict and the batch continues.
  protocol::BackoffPolicy backoff;

  // Optional decorator applied to both endpoints of every fresh connection —
  // this is where tests splice in chaos (see src/testing/chaos_transport.h)
  // without src/apps depending on src/testing. `verifier_side` says which
  // end is being wrapped; `connection` is the 0-based connection ordinal.
  std::function<std::unique_ptr<protocol::Transport>(
      std::unique_ptr<protocol::Transport>, bool verifier_side,
      uint32_t connection)>
      wrap_transport;

  // Threads the prover proves with (ProverSession::ProveBatch): up to this
  // many instances at once, leftover threads shared by each instance's
  // kernels. The wire traffic is byte-identical for every value. 0 means one
  // per hardware thread; 1 is one instance at a time on the prover's session
  // thread.
  size_t prover_threads = 0;
};

// Runs a batch of `beta` instances of `app` through the full argument, with
// the prover and verifier as message-driven sessions on separate threads.
//
// Failure semantics (DESIGN.md §13): a transport failure on the verifier
// side tears the channel down and reconnects — a fresh prover thread is
// spawned, re-fed the batch setup, and resumed at the first undecided
// instance. When the retry budget runs out, that one instance is recorded
// as TRANSPORT_FAILED and the batch moves on; the channel never decides a
// proof. Genuine prover-side bugs (output mismatch with the native
// reference, phase violations) are still fatal and rethrown here.
template <typename F, typename Backend>
BatchMeasurement MeasureBatch(const App<F>& app,
                              const CompiledProgram<F>& program, size_t beta,
                              const PcpParams& params, uint64_t seed,
                              const MeasureOptions& opt) {
  using Adapter = typename Backend::Adapter;

  BatchMeasurement out;
  out.trace = std::make_shared<obs::Tracer>();
  out.metrics = std::make_shared<obs::Metrics>();
  obs::ScopedThreadTracer install_tracer(out.trace.get());
  obs::ScopedThreadMetrics install_metrics(out.metrics.get());

  {
    // The root span covers the whole batch; every verifier-thread span below
    // is its child, and the prover thread stitches its subtree under it via
    // the default-parent mechanism.
    obs::Span root("harness.batch");
    const uint32_t root_id = root.id();

    Prg prg(seed);
    // Backend::Prepared runs the one-time prover setup (e.g. the Zaatar
    // backend warms the residue-domain caches), so it belongs inside the
    // prepare span: the span-tree tests assert the batch root's children
    // account for the wall time.
    auto prep = [&] {
      obs::Span prepare("harness.prepare");
      out.stats = ComputeStats(
          program, opt.measure_native ? app.measure_native_seconds() : 0.0);
      return typename Backend::Prepared(program);
    }();

    typename Backend::Queries queries = [&] {
      obs::Span span("verifier.query_gen");
      return Backend::GenerateQueries(prep, params, prg);
    }();
    out.total_queries = queries.TotalQueryCount();
    out.proof_len = Backend::ProofLen(queries);

    auto verifier = [&] {
      obs::Span span("verifier.commit_setup");
      return protocol::VerifierSession<F, Adapter>(std::move(queries), prg);
    }();

    // Instances are drawn before the exchange starts so the Prg consumption
    // order is fixed (proving and verifying never touch the Prg, so the
    // in-process references in harness_test and bench_protocol draw the
    // same streams) and the prover thread shares them read-only.
    std::vector<AppInstance<F>> instances;
    instances.reserve(beta);
    {
      obs::Span draw("harness.draw_instances");
      for (size_t i = 0; i < beta; i++) {
        instances.push_back(app.make_instance(prg));
      }
    }

    // The prover side: a real session fed only by transport bytes, spawned
    // (and respawned after a reconnect) by the verifier's transport factory
    // below. Channel-class trouble — a deadline, a closed pipe, a frame that
    // no longer decodes — makes the prover exit QUIETLY: the verifier owns
    // recovery, and a replacement prover resumes at the first undecided
    // instance. Only genuine local bugs (output mismatch with the native
    // reference, phase violations) are stashed in `prover_error` and
    // rethrown on the calling thread. Its spans ("prover.solve",
    // "prover.construct_proof", and the session's "prover.commit"/
    // "prover.answer", from whichever pool thread proved the instance) land
    // in the same tracer, parented under the batch root.
    const size_t prover_threads =
        opt.prover_threads != 0 ? opt.prover_threads : HardwareThreads();
    std::string prover_error;  // written by the prover thread, read after join
    auto prover_main = [&](uint32_t resume, protocol::Transport* link) {
      obs::ScopedThreadTracer stitch(out.trace.get(), root_id);
      obs::ScopedThreadMetrics prover_metrics(out.metrics.get());
      auto fatal = [&](const std::string& msg) {
        if (prover_error.empty()) {
          prover_error = msg;
        }
        // Unblock a verifier waiting on the next proof frame.
        link->Close();
      };
      try {
        protocol::ProverSession<F> session;
        if (Status st = session.StartAtInstance(resume); !st.ok()) {
          fatal("prover resume: " + st.ToString());
          return;
        }
        if (Status st = session.ReceiveSetup(*link); !st.ok()) {
          if (st.code() == StatusCode::kPhaseViolation) {
            fatal("prover setup: " + st.ToString());
          }
          return;  // channel-class: the verifier recovers
        }
        // Instance i's proof vectors, on a ProveBatch pool thread. A local
        // bug throws; ProveBatch rethrows it here once every earlier
        // instance is decided, where the sequential loop would have stopped.
        auto build = [&](uint32_t i) {
          std::vector<F> gw;
          {
            obs::Span solve("prover.solve");
            gw = program.SolveGinger(instances[i].inputs);
          }
          typename Backend::ProofVectors vectors =
              Backend::BuildProofVectors(prep, program, gw);
          if (program.ExtractOutputs(gw) != instances[i].expected_outputs) {
            throw std::runtime_error(
                app.name +
                ": compiled outputs disagree with the native reference");
          }
          Status shape = Adapter::ValidateProverVectors(
              session.context(), {&vectors.first, &vectors.second});
          if (!shape.ok()) {
            throw std::runtime_error("prover vectors: " + shape.ToString());
          }
          return typename protocol::ProverSession<F>::OwnedVectors{
              std::move(vectors.first), std::move(vectors.second)};
        };
        Status st = session.ProveBatch(*link, static_cast<uint32_t>(beta),
                                       prover_threads, build);
        // Anything but a phase violation is channel-class — including a
        // garbled verdict frame (kMalformed): the session cannot resync
        // mid-stream, so it behaves as a dead peer and the reconnect path
        // replays the instance.
        if (st.code() == StatusCode::kPhaseViolation) {
          fatal("prover instance " + std::to_string(session.next_instance()) +
                ": " + st.ToString());
        }
      } catch (const std::exception& e) {
        fatal(e.what());
      }
    };

    // Prover thread lifecycle. `reap` closes the prover's endpoint (waking
    // it from any blocking Receive/Send) and joins; `spawn` reaps the
    // previous prover first, so at most one is ever alive and `prover_error`
    // is never written concurrently.
    std::unique_ptr<protocol::Transport> prover_link;
    std::thread prover_thread;
    auto reap = [&] {
      if (prover_thread.joinable()) {
        if (prover_link != nullptr) {
          prover_link->Close();
        }
        prover_thread.join();
      }
      prover_link.reset();
    };
    auto spawn = [&](uint32_t resume,
                     std::unique_ptr<protocol::Transport> link) {
      reap();
      prover_link = std::move(link);
      prover_thread = std::thread(prover_main, resume, prover_link.get());
    };

    // The transport factory: called by RetryingSession on first connect and
    // after every teardown. It builds a socketpair (wrapped by
    // opt.wrap_transport, if set), hands the right end to a fresh prover
    // thread resuming at `resume`, and returns the left end to the verifier.
    uint32_t connection_ordinal = 0;
    protocol::TransportFactory factory = [&](uint32_t resume)
        -> StatusOr<std::unique_ptr<protocol::Transport>> {
      ZAATAR_ASSIGN_OR_RETURN(
          protocol::TransportPair pair,
          protocol::PipeTransport::CreatePair(opt.transport));
      const uint32_t ordinal = connection_ordinal++;
      if (opt.wrap_transport) {
        pair.left = opt.wrap_transport(std::move(pair.left),
                                       /*verifier_side=*/true, ordinal);
        pair.right = opt.wrap_transport(std::move(pair.right),
                                        /*verifier_side=*/false, ordinal);
      }
      spawn(resume, std::move(pair.right));
      return std::move(pair.left);
    };

    protocol::BackoffPolicy backoff = opt.backoff;
    if (backoff.jitter_seed == 0) {
      backoff.jitter_seed = seed;  // deterministic per-run schedule
    }
    protocol::RetryingSession<F, Adapter> rsession(std::move(verifier),
                                                   factory, backoff);

    // The verifier side drives the calling thread.
    try {
      {
        obs::Span span("harness.send_setup");
        Status st = rsession.EnsureConnected();
        if (!st.ok() && !protocol::IsTransportFailure(st)) {
          throw std::runtime_error("verifier setup: " + st.ToString());
        }
        // A transport failure here is retried by the first DecideNext.
      }
      for (size_t i = 0; i < beta; i++) {
        std::vector<F> bound = program.BoundValues(
            instances[i].inputs, instances[i].expected_outputs);
        auto result = rsession.DecideNext(bound);
        VerifyInstanceResult decided;
        if (result.ok()) {
          decided = *result;
        } else if (protocol::IsTransportFailure(result.status())) {
          // Retry budget exhausted. If the prover actually died of a local
          // bug, surface that; otherwise degrade this one instance and keep
          // deciding the rest of the batch.
          reap();
          if (!prover_error.empty()) {
            throw std::runtime_error(prover_error);
          }
          auto skipped = rsession.session().SkipInstanceTransportFailed(
              result.status().ToString());
          if (!skipped.ok()) {
            throw std::runtime_error("verifier instance " + std::to_string(i) +
                                     ": " + skipped.status().ToString());
          }
          obs::MetricAdd("transport.instances_failed");
          decided = *skipped;
        } else {
          throw std::runtime_error("verifier instance " + std::to_string(i) +
                                   ": " + result.status().ToString());
        }
        RecordVerdict(&out, i, decided);
      }
    } catch (...) {
      // Unblock the prover (it may be waiting for a verdict), reap it, and
      // prefer its error — a transport failure seen here is usually the
      // symptom of the prover dying first.
      rsession.Disconnect();
      reap();
      if (!prover_error.empty()) {
        throw std::runtime_error(prover_error);
      }
      throw;
    }
    // A finished batch closes only the verifier's end of the socket. The
    // prover reads the last verdict still buffered there, then EOF, and
    // exits by itself; reap() would close the prover's end too, and a
    // closed PipeTransport drops what it has not read yet.
    rsession.Disconnect();
    if (prover_thread.joinable()) {
      prover_thread.join();
    }
    prover_link.reset();
    if (!prover_error.empty()) {
      throw std::runtime_error(prover_error);
    }

    out.setup_message_bytes = rsession.session().setup_bytes_sent();
    out.proof_message_bytes = rsession.session().proof_bytes_received();
    out.transport_retries = static_cast<size_t>(rsession.total_retries());
    out.transport_connections = static_cast<size_t>(rsession.connections());
  }  // closes the "harness.batch" root span

#if defined(__GLIBC__)
  // Return the batch's freed heap to the system. The prover and its pool
  // threads free their working sets into per-thread glibc arenas, which
  // outlive those threads and go to whichever threads the next batch
  // starts. Untrimmed, what a batch leaves resident, and so the next
  // batch's peak RSS, depends on thread timing (DESIGN.md §17).
  malloc_trim(0);
#endif

  // Cost fields are views over the span tree.
  const obs::Tracer& t = *out.trace;
  const double b = static_cast<double>(beta);
  out.query_generation_s = t.SumSeconds("verifier.query_gen");
  out.commit_setup_s = t.SumSeconds("verifier.commit_setup");
  out.prover.solve_constraints_s = t.SumSeconds("prover.solve") / b;
  out.prover.construct_proof_s = t.SumSeconds("prover.construct_proof") / b;
  out.prover.crypto_s = t.SumSeconds("prover.commit") / b;
  out.prover.answer_queries_s = t.SumSeconds("prover.answer") / b;
  out.verifier_per_instance_s = t.SumSeconds("verifier.verify") / b;
  return out;
}

}  // namespace zaatar

#endif  // SRC_APPS_HARNESS_H_
