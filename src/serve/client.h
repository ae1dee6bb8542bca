// PROVER-side client for a zaatar-serve daemon: a blocking request/reply
// wrapper over the framed AF_UNIX connection, plus RunServeBatch — the full
// client workflow (compile Ψ locally, adopt the daemon's cached setup,
// solve/prove each instance, ingest verdicts).
//
// TRUST BOUNDARY: this header runs on the prover and must never include
// (directly or transitively) src/argument/argument.h or the verifier-side
// serve headers (psi_material.h, server.h). The client reconstructs
// everything it needs from SetupMessage bytes, exactly like ProverSession.
//
// Retry contract: a kError frame carrying RESOURCE_EXHAUSTED means the
// daemon refused the frame at admission (queue full) — the server never
// processed it, the session cursors on both ends are unchanged, so the
// client backs off and re-sends the SAME frame. Every other error is final
// for the connection.

#ifndef SRC_SERVE_CLIENT_H_
#define SRC_SERVE_CLIENT_H_

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/apps/suite.h"
#include "src/compiler/compile.h"
#include "src/constraints/qap.h"
#include "src/crypto/prg.h"
#include "src/field/fields.h"
#include "src/pcp/zaatar_pcp.h"
#include "src/protocol/backoff.h"
#include "src/protocol/prover_session.h"
#include "src/protocol/transport.h"
#include "src/serve/app_registry.h"
#include "src/serve/messages.h"
#include "src/util/serialize.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace zaatar {
namespace serve {

class ServeClient {
 public:
  struct Options {
    protocol::TransportOptions transport;  // per-call send/recv deadlines
    protocol::BackoffPolicy backoff;       // RESOURCE_EXHAUSTED re-send
  };

  static StatusOr<ServeClient> Connect(const std::string& socket_path,
                                       Options options = {}) {
    ZAATAR_ASSIGN_OR_RETURN(int fd, protocol::ConnectUnix(socket_path));
    return ServeClient(
        std::make_unique<protocol::PipeTransport>(fd, options.transport),
        options);
  }

  // One request/reply round trip. Re-sends the same frame with backoff when
  // the daemon sheds it with a typed RESOURCE_EXHAUSTED; other kError
  // frames come back as their carried Status. kResourceExhausted surfaces
  // only once the retry budget is spent.
  StatusOr<Envelope> Call(const std::vector<uint8_t>& frame) {
    protocol::BackoffSchedule schedule(options_.backoff);
    for (;;) {
      ZAATAR_RETURN_IF_ERROR(transport_->Send(frame));
      ZAATAR_ASSIGN_OR_RETURN(std::vector<uint8_t> reply,
                              transport_->Receive());
      ZAATAR_ASSIGN_OR_RETURN(Envelope env, DecodeEnvelope(reply));
      if (env.type != MessageType::kError) {
        return env;
      }
      ZAATAR_ASSIGN_OR_RETURN(ErrorMessage err,
                              ErrorMessage::DecodePayload(env.payload));
      Status status = err.ToStatus();
      if (status.code() != StatusCode::kResourceExhausted ||
          schedule.attempts() >= options_.backoff.max_retries) {
        return status;
      }
      resource_retries_++;
      std::this_thread::sleep_for(schedule.NextDelay());
    }
  }

  // Hello handshake; returns the daemon's (cached) SetupMessage bytes.
  StatusOr<std::vector<uint8_t>> Hello(uint8_t field_tag,
                                       const std::string& psi,
                                       const std::string& tenant) {
    HelloMessage msg;
    msg.field_tag = field_tag;
    msg.psi = psi;
    msg.tenant = tenant;
    ZAATAR_ASSIGN_OR_RETURN(
        Envelope env,
        Call(EncodeEnvelope(MessageType::kHello, msg.EncodePayload())));
    if (env.type != MessageType::kSetup) {
      return PhaseViolationError(std::string("expected SETUP, got ") +
                                 MessageTypeName(env.type));
    }
    return env.payload;
  }

  // One instance: [inputs][claimed outputs][ProofMessage]; returns the
  // VerdictMessage bytes.
  StatusOr<std::vector<uint8_t>> Prove(const std::vector<uint8_t>& payload) {
    ZAATAR_ASSIGN_OR_RETURN(
        Envelope env, Call(EncodeEnvelope(MessageType::kProve, payload)));
    if (env.type != MessageType::kVerdict) {
      return PhaseViolationError(std::string("expected VERDICT, got ") +
                                 MessageTypeName(env.type));
    }
    return env.payload;
  }

  StatusOr<std::string> Stats() {
    ZAATAR_ASSIGN_OR_RETURN(Envelope env,
                            Call(EncodeEnvelope(MessageType::kStatsRequest)));
    if (env.type != MessageType::kStatsReply) {
      return PhaseViolationError(std::string("expected STATS_REPLY, got ") +
                                 MessageTypeName(env.type));
    }
    return std::string(env.payload.begin(), env.payload.end());
  }

  // Admin stop; the daemon acks, then begins shutting down.
  Status Shutdown() {
    ZAATAR_ASSIGN_OR_RETURN(Envelope env,
                            Call(EncodeEnvelope(MessageType::kShutdown)));
    if (env.type != MessageType::kShutdown) {
      return PhaseViolationError(std::string("expected SHUTDOWN ack, got ") +
                                 MessageTypeName(env.type));
    }
    return Status::Ok();
  }

  // Frames the daemon refused and this client re-sent after backoff.
  uint64_t resource_retries() const { return resource_retries_; }

 private:
  ServeClient(std::unique_ptr<protocol::Transport> transport, Options options)
      : transport_(std::move(transport)), options_(options) {}

  std::unique_ptr<protocol::Transport> transport_;
  Options options_;
  uint64_t resource_retries_ = 0;
};

// ----- The full client workflow -----

struct ServeBatchReport {
  size_t instances = 0;
  size_t accepted = 0;
  double hello_seconds = 0;  // handshake incl. any server-side cache miss
  double prove_seconds = 0;  // solve + proof construction + round trips
  uint64_t resource_retries = 0;
};

// Proves `instances` instances of the registered Ψ against a running daemon
// over one connection: compile Ψ from the same registry entry the server
// uses, Hello (adopting the server's cached setup), then per instance
// solve → build proof vectors → proof frame → kProve → verdict. The
// instances are proved on every hardware thread ahead of the round trips
// (ProverSession::ProveBatch), which stay one at a time and byte-identical
// to the one-thread run.
// An honest run returns accepted == instances; any rejected instance is a
// real soundness signal, reported in the count, not an error.
inline StatusOr<ServeBatchReport> RunServeBatchF128(
    ServeClient& client, const std::string& psi, const std::string& tenant,
    size_t instances, uint64_t instance_seed) {
  using F = F128;
  using Session = protocol::ProverSession<F>;
  ZAATAR_ASSIGN_OR_RETURN(App<F> app, MakeRegisteredAppF128(psi));
  const CompiledProgram<F> program = CompileZlang<F>(app.source);
  Qap<F> qap(program.zaatar.r1cs);
  qap.WarmProver();

  ServeBatchReport report;
  Stopwatch hello_sw;
  ZAATAR_ASSIGN_OR_RETURN(std::vector<uint8_t> setup_bytes,
                          client.Hello(kFieldTagF128, psi, tenant));
  Session session;
  ZAATAR_RETURN_IF_ERROR(session.IngestSetup(setup_bytes));
  report.hello_seconds = hello_sw.ElapsedSeconds();

  Stopwatch prove_sw;
  // Drawn up front (the Prg feeds nothing else) so pool threads share them.
  Prg prg(instance_seed);
  std::vector<AppInstance<F>> batch;
  batch.reserve(instances);
  for (size_t i = 0; i < instances; i++) {
    batch.push_back(app.make_instance(prg));
  }
  // The claimed outputs: written by build(i), read by exchange(i) after it.
  std::vector<std::vector<F>> outputs(instances);
  ZAATAR_RETURN_IF_ERROR(session.ProveBatch(
      static_cast<uint32_t>(instances), HardwareThreads(),
      [&](uint32_t i) {
        const std::vector<F> gw = program.SolveGinger(batch[i].inputs);
        outputs[i] = program.ExtractOutputs(gw);
        ZaatarProof<F> proof = BuildZaatarProof(qap, program.SolveZaatar(gw));
        return Session::OwnedVectors{std::move(proof.z), std::move(proof.h)};
      },
      [&](uint32_t i, const std::vector<uint8_t>& proof_frame) {
        ByteWriter payload;
        PutFieldVector(&payload, batch[i].inputs);
        PutFieldVector(&payload, outputs[i]);
        payload.PutBytes(proof_frame.data(), proof_frame.size());
        return client.Prove(payload.bytes());
      }));
  for (const VerifyInstanceResult& verdict : session.verdicts()) {
    report.instances++;
    if (verdict.accepted()) {
      report.accepted++;
    }
  }
  report.prove_seconds = prove_sw.ElapsedSeconds();
  report.resource_retries = client.resource_retries();
  return report;
}

}  // namespace serve
}  // namespace zaatar

#endif  // SRC_SERVE_CLIENT_H_
