// Field/backend-typed implementation of the cache's PsiMaterial and
// BatchVerifier interfaces, plus the builder the daemon plugs into its
// AmortizationCache. This is VERIFIER code: it compiles the named Ψ, runs
// query generation and the Enc(r)/key setup once, freezes the serialized
// SetupMessage frame, and mints per-connection VerifierSessions that all
// adopt the one shared, immutable VerifierSetup (the shared_ptr ctor added
// for exactly this). Prover-side code must never include this header.

#ifndef SRC_SERVE_PSI_MATERIAL_H_
#define SRC_SERVE_PSI_MATERIAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/argument/argument.h"
#include "src/compiler/compile.h"
#include "src/constraints/qap.h"
#include "src/crypto/prg.h"
#include "src/field/fields.h"
#include "src/pcp/params.h"
#include "src/pcp/zaatar_pcp.h"
#include "src/protocol/verifier_session.h"
#include "src/serve/amortization_cache.h"
#include "src/serve/app_registry.h"
#include "src/serve/messages.h"
#include "src/util/serialize.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace zaatar {
namespace serve {

// Decodes one kProve payload for field F:
//   [field vector: inputs][field vector: outputs][remaining: ProofMessage]
// and answers with the kVerdict payload. The inputs/outputs geometry is
// screened against the program layout (a wrong count is a connection-level
// typed error — the statement itself is garbled); the proof bytes are
// untrusted and flow through the session's verdict machinery, so hostile
// proofs consume their instance slot with a reject, never an error.
template <typename F>
class TypedBatchVerifier final : public BatchVerifier {
 public:
  using Adapter = ZaatarAdapter<F>;

  TypedBatchVerifier(
      std::shared_ptr<const CompiledProgram<F>> program,
      std::shared_ptr<const typename Argument<F, Adapter>::VerifierSetup>
          setup)
      : program_(std::move(program)), session_(std::move(setup)) {}

  StatusOr<std::vector<uint8_t>> HandleProve(
      const std::vector<uint8_t>& payload) override {
    ByteReader r(payload);
    ZAATAR_ASSIGN_OR_RETURN(std::vector<F> inputs, GetFieldVector<F>(&r));
    ZAATAR_ASSIGN_OR_RETURN(std::vector<F> outputs, GetFieldVector<F>(&r));
    if (inputs.size() != program_->ginger.layout.num_inputs) {
      return ShapeMismatchError(
          "prove carries " + std::to_string(inputs.size()) + " inputs, Ψ has " +
          std::to_string(program_->ginger.layout.num_inputs));
    }
    if (outputs.size() != program_->ginger.layout.num_outputs) {
      return ShapeMismatchError(
          "prove carries " + std::to_string(outputs.size()) +
          " outputs, Ψ has " +
          std::to_string(program_->ginger.layout.num_outputs));
    }
    std::vector<uint8_t> proof_bytes(payload.begin() +
                                         static_cast<ptrdiff_t>(r.position()),
                                     payload.end());
    const std::vector<F> bound = program_->BoundValues(inputs, outputs);
    ZAATAR_ASSIGN_OR_RETURN(VerifyInstanceResult result,
                            session_.HandleProof(proof_bytes, bound));
    decided_++;
    if (result.accepted()) {
      accepted_++;
    }
    return session_.EmitVerdict();
  }

  size_t instances_decided() const override { return decided_; }
  size_t instances_accepted() const override { return accepted_; }

 private:
  std::shared_ptr<const CompiledProgram<F>> program_;
  protocol::VerifierSession<F, Adapter> session_;
  size_t decided_ = 0;
  size_t accepted_ = 0;
};

template <typename F>
class TypedPsiMaterial final : public PsiMaterial {
 public:
  using Adapter = ZaatarAdapter<F>;
  using Setup = typename Argument<F, Adapter>::VerifierSetup;

  TypedPsiMaterial(std::shared_ptr<const CompiledProgram<F>> program,
                   std::shared_ptr<const Setup> setup, double build_seconds)
      : program_(std::move(program)),
        setup_(std::move(setup)),
        frame_(setup_->EncodeSetupMessage()),
        build_seconds_(build_seconds) {}

  const std::vector<uint8_t>& setup_frame() const override { return frame_; }

  std::unique_ptr<BatchVerifier> NewBatch() const override {
    return std::make_unique<TypedBatchVerifier<F>>(program_, setup_);
  }

  size_t memory_bytes() const override {
    // The serialized frame plus the in-memory setup it was framed from;
    // the 2x is a deliberate over- rather than under-estimate.
    return frame_.size() * 2;
  }

  double build_seconds() const override { return build_seconds_; }

 private:
  std::shared_ptr<const CompiledProgram<F>> program_;
  std::shared_ptr<const Setup> setup_;
  std::vector<uint8_t> frame_;
  double build_seconds_;
};

// The full per-Ψ build: resolve the registry entry, compile, generate
// queries, run the commitment setup. This is the multi-second cost the
// cache exists to amortize; it runs on a worker thread, gated by the cache's
// per-key latch so concurrent Hellos build once.
inline StatusOr<std::shared_ptr<PsiMaterial>> BuildPsiMaterialF128(
    const std::string& psi, uint64_t seed, const PcpParams& params) {
  using F = F128;
  using Adapter = ZaatarAdapter<F>;
  ZAATAR_ASSIGN_OR_RETURN(App<F> app, MakeRegisteredAppF128(psi));
  Stopwatch sw;
  auto program = std::make_shared<const CompiledProgram<F>>(
      CompileZlang<F>(app.source));
  Prg prg(seed);
  Qap<F> qap(program->zaatar.r1cs);
  typename ZaatarPcp<F>::Queries queries =
      ZaatarPcp<F>::GenerateQueries(qap, params, prg);
  auto setup =
      std::make_shared<const typename Argument<F, Adapter>::VerifierSetup>(
          Argument<F, Adapter>::Setup(std::move(queries), prg));
  return std::shared_ptr<PsiMaterial>(std::make_shared<TypedPsiMaterial<F>>(
      std::move(program), std::move(setup), sw.ElapsedSeconds()));
}

// The cache Builder a daemon installs: dispatches on the Hello field tag.
inline AmortizationCache::Builder MakePsiBuilder(PcpParams params = {}) {
  return [params](const std::string& psi, uint8_t field_tag,
                  uint64_t seed) -> StatusOr<std::shared_ptr<PsiMaterial>> {
    if (field_tag == kFieldTagF128) {
      return BuildPsiMaterialF128(psi, seed, params);
    }
    return MalformedError("unsupported field tag " +
                          std::to_string(field_tag));
  };
}

}  // namespace serve
}  // namespace zaatar

#endif  // SRC_SERVE_PSI_MATERIAL_H_
