// The batched efficient-argument protocol: linear commitment wrapped around a
// two-oracle linear PCP (paper Figure 2 with Zaatar's shaded replacements, or
// the original Ginger pieces via GingerAdapter).
//
// Batch model (§2.2): the verifier's query generation, encryption of r, and
// consistency vectors t are produced once per (computation, batch) in
// Setup(); each of the beta instances then runs Prove()/VerifyInstance().
//
// The setup state is split along the trust boundary: VerifierSecrets (the
// ElGamal secret key, the plaintext r vectors, the alphas) never leaves the
// verifier's side, while the shared halves (Enc(r), t) plus the plaintext
// queries are exactly what a protocol::SetupMessage ships to the prover. The
// prover-facing entry points consume a ProverContext — reconstructable
// purely from SetupMessage bytes — so prover code cannot even name the
// secrets (src/protocol/prover_session.h, tests/protocol_isolation_test.cc).

#ifndef SRC_ARGUMENT_ARGUMENT_H_
#define SRC_ARGUMENT_ARGUMENT_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/argument/verdict.h"
#include "src/commit/commitment.h"
#include "src/crypto/elgamal.h"
#include "src/crypto/prg.h"
#include "src/pcp/ginger_pcp.h"
#include "src/pcp/zaatar_pcp.h"
#include "src/protocol/messages.h"
#include "src/protocol/prover_context.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace zaatar {

// Adapter requirements (see ZaatarAdapter / GingerAdapter below):
//   using Queries = ...;
//   static size_t OracleLength(const Queries&, size_t oracle);          // 0,1
//   static const std::vector<std::vector<F>>& OracleQueries(const Queries&,
//                                                           size_t oracle);
//   static size_t BoundValueCount(const Queries&);  // expected |inputs|+|outputs|
//   static bool Decide(const Queries&, resp0, resp1, bound_values);
//   static Status ValidateProverVectors(const ProverContext<F>&,
//                                       const std::array<const
//                                       std::vector<F>*, 2>&);
template <typename F, typename Adapter>
class Argument {
 public:
  using EG = ElGamal<F>;

  // Everything that must stay on the verifier's side of the transport:
  // serializing any of these toward the prover breaks hiding (r), the
  // consistency check (alphas), or the whole commitment (sk).
  struct VerifierSecrets {
    typename EG::SecretKey sk;
    std::array<OracleCommitSecrets<F>, 2> commit;
  };

  struct VerifierSetup {
    typename EG::PublicKey pk;
    typename Adapter::Queries queries;
    VerifierSecrets secrets;
    std::array<OracleCommitShared<F>, 2> shared;
    VerifierSetupCosts costs;

    size_t TotalQueryElements() const {
      size_t n = 0;
      for (size_t o = 0; o < 2; o++) {
        n += Adapter::OracleQueries(queries, o).size() *
             Adapter::OracleLength(queries, o);
      }
      return n;
    }

    // The message the prover receives: public key, Enc(r), plaintext
    // queries, t. Everything in VerifierSecrets stays out by construction.
    protocol::SetupMessage<F> ToSetupMessage() const {
      protocol::SetupMessage<F> msg;
      msg.pk = pk;
      for (size_t o = 0; o < 2; o++) {
        msg.oracles[o].enc_r = shared[o].enc_r;
        msg.oracles[o].queries = Adapter::OracleQueries(queries, o);
        msg.oracles[o].t = shared[o].t;
      }
      return msg;
    }

    // The honest prover's in-process view — identical content to decoding
    // ToSetupMessage().Serialize(), without the byte round trip (tests pin
    // the equivalence).
    ProverContext<F> ProverView() const {
      ProverContext<F> ctx;
      ctx.pk = pk;
      for (size_t o = 0; o < 2; o++) {
        ctx.oracles[o].enc_r = shared[o].enc_r;
        ctx.oracles[o].queries = Adapter::OracleQueries(queries, o);
        ctx.oracles[o].t = shared[o].t;
      }
      return ctx;
    }
  };

  struct InstanceProof {
    std::array<OracleProofPart<F>, 2> parts;
    ProverCosts costs;
  };

  // Verifier, once per batch. `queries` should come from the PCP's
  // GenerateQueries (its cost belongs to query_generation_s and is measured
  // by the caller; pass it in `query_generation_seconds`). `workers` > 1
  // chunks the Enc(r) row encryptions across threads.
  static VerifierSetup Setup(typename Adapter::Queries queries, Prg& prg,
                             double query_generation_seconds = 0,
                             size_t workers = 1) {
    VerifierSetup s;
    s.costs.query_generation_s = query_generation_seconds;
    Stopwatch timer;
    typename EG::KeyPair keys = EG::GenerateKeys(prg);
    s.pk = keys.pk;
    s.secrets.sk = keys.sk;
    s.queries = std::move(queries);
    for (size_t o = 0; o < 2; o++) {
      OracleCommitSetup<F> commit = LinearCommitment<F>::CreateSetup(
          s.pk, Adapter::OracleLength(s.queries, o),
          Adapter::OracleQueries(s.queries, o), prg, workers);
      s.secrets.commit[o] = std::move(commit.secrets);
      s.shared[o] = std::move(commit.shared);
    }
    s.costs.commit_setup_s = timer.ElapsedSeconds();
    return s;
  }

  // Prover, once per instance, against the prover's own view of the batch
  // (reconstructed from SetupMessage bytes by the session layer).
  // `proof_vectors` are the two oracle vectors (e.g. z and h); construct-u /
  // solve costs are added by the caller. `workers` > 1 splits the commitment
  // multi-exponentiations and the query answers across threads — the
  // intra-instance counterpart of ProverSession::ProveBatch.
  static InstanceProof Prove(
      const std::array<const std::vector<F>*, 2>& proof_vectors,
      const ProverContext<F>& ctx, size_t workers = 1) {
    InstanceProof p;
    for (size_t o = 0; o < 2; o++) {
      auto part = LinearCommitment<F>::Prove(
          *proof_vectors[o], ctx.oracles[o], &p.costs.crypto_s,
          &p.costs.answer_queries_s, workers);
      if (!part.ok()) {
        // Callers screen shapes (ValidateProverVectors) before proving, so
        // reaching this is a caller bug, not a protocol outcome.
        throw std::invalid_argument("Argument::Prove oracle " +
                                    std::to_string(o) + ": " +
                                    part.status().ToString());
      }
      p.parts[o] = std::move(part).value();
    }
    return p;
  }

  // In-process convenience for tests, examples, and benches: prove directly
  // against the shared half of the verifier's setup without materializing a
  // ProverContext (no copies — bench_fig6 calls this in a loop).
  static InstanceProof Prove(
      const std::array<const std::vector<F>*, 2>& proof_vectors,
      const VerifierSetup& setup, size_t workers = 1) {
    InstanceProof p;
    for (size_t o = 0; o < 2; o++) {
      auto part = LinearCommitment<F>::Prove(
          *proof_vectors[o], setup.shared[o].enc_r,
          Adapter::OracleQueries(setup.queries, o), setup.shared[o].t,
          &p.costs.crypto_s, &p.costs.answer_queries_s, workers);
      if (!part.ok()) {
        throw std::invalid_argument("Argument::Prove oracle " +
                                    std::to_string(o) + ": " +
                                    part.status().ToString());
      }
      p.parts[o] = std::move(part).value();
    }
    return p;
  }

  // Structural validation of an untrusted proof against the setup: every
  // vector the cryptographic checks will index must have exactly the shape
  // the setup prescribes. Runs before any group operation so a malformed
  // proof cannot trigger out-of-bounds reads in CheckConsistency or Decide.
  static Status ValidateProofShape(const VerifierSetup& setup,
                                   const InstanceProof& proof,
                                   const std::vector<F>& bound_values) {
    for (size_t o = 0; o < 2; o++) {
      size_t expected = Adapter::OracleQueries(setup.queries, o).size();
      if (proof.parts[o].responses.size() != expected) {
        return ShapeMismatchError("oracle " + std::to_string(o) +
                                  " response count mismatch");
      }
      if (setup.secrets.commit[o].alphas.size() != expected) {
        return MalformedError("setup alpha count mismatch");
      }
    }
    if (bound_values.size() != Adapter::BoundValueCount(setup.queries)) {
      return ShapeMismatchError("bound value count mismatch");
    }
    return Status::Ok();
  }

  // Verifier, once per instance, with the full verdict taxonomy.
  // `bound_values` are inputs then outputs.
  static VerifyInstanceResult VerifyInstanceDetailed(
      const VerifierSetup& setup, const InstanceProof& proof,
      const std::vector<F>& bound_values, double* seconds = nullptr) {
    Stopwatch timer;
    VerifyInstanceResult result = VerifyInstanceResult::Accept();
    Status shape = ValidateProofShape(setup, proof, bound_values);
    if (!shape.ok()) {
      result = VerifyInstanceResult::Reject(VerifyVerdict::kMalformed,
                                            shape.message());
    }
    for (size_t o = 0; o < 2 && result.accepted(); o++) {
      if (!LinearCommitment<F>::CheckConsistency(
              setup.pk, setup.secrets.sk, setup.secrets.commit[o],
              proof.parts[o])) {
        result = VerifyInstanceResult::Reject(
            VerifyVerdict::kRejectCommit,
            "oracle " + std::to_string(o) + " commitment inconsistent");
      }
    }
    if (result.accepted() &&
        !Adapter::Decide(setup.queries, proof.parts[0].responses,
                         proof.parts[1].responses, bound_values)) {
      result = VerifyInstanceResult::Reject(VerifyVerdict::kRejectPcp);
    }
    if (seconds != nullptr) {
      *seconds += timer.ElapsedSeconds();
    }
    return result;
  }

  // Boolean convenience wrapper over VerifyInstanceDetailed.
  static bool VerifyInstance(const VerifierSetup& setup,
                             const InstanceProof& proof,
                             const std::vector<F>& bound_values,
                             double* seconds = nullptr) {
    return VerifyInstanceDetailed(setup, proof, bound_values, seconds)
        .accepted();
  }

  // Verifies every instance of a batch and reports a per-instance verdict:
  // one malicious or malformed instance is isolated, never aborting the
  // remaining beta-1 (the batch amortization of §2.2 assumes all instances
  // are checked regardless of individual outcomes). A proofs/bound-values
  // count mismatch is a caller-side batch assembly bug, not a per-instance
  // outcome, and is rejected up front with a typed error naming the first
  // instance that would be missing its bound values.
  static StatusOr<std::vector<VerifyInstanceResult>> VerifyBatch(
      const VerifierSetup& setup, const std::vector<InstanceProof>& proofs,
      const std::vector<std::vector<F>>& bound_values,
      double* seconds = nullptr) {
    if (proofs.size() != bound_values.size()) {
      const size_t first_bad = std::min(proofs.size(), bound_values.size());
      return MalformedError(
          "batch shape mismatch: " + std::to_string(proofs.size()) +
          " proofs vs " + std::to_string(bound_values.size()) +
          " bound value vectors (first unmatched instance: " +
          std::to_string(first_bad) + ")");
    }
    std::vector<VerifyInstanceResult> results;
    results.reserve(proofs.size());
    for (size_t i = 0; i < proofs.size(); i++) {
      results.push_back(
          VerifyInstanceDetailed(setup, proofs[i], bound_values[i], seconds));
    }
    return results;
  }
};

template <typename F>
struct ZaatarAdapter {
  using Queries = typename ZaatarPcp<F>::Queries;
  static size_t OracleLength(const Queries& q, size_t oracle) {
    return oracle == 0 ? q.z_len : q.h_len;
  }
  static const std::vector<std::vector<F>>& OracleQueries(const Queries& q,
                                                          size_t oracle) {
    return oracle == 0 ? q.z_queries : q.h_queries;
  }
  static size_t BoundValueCount(const Queries& q) {
    // Every repetition carries the bound-variable rows (constant row first).
    return q.reps.empty() ? 0 : q.reps[0].a_bound.size() - 1;
  }
  static bool Decide(const Queries& q, const std::vector<F>& r0,
                     const std::vector<F>& r1,
                     const std::vector<F>& bound_values) {
    return ZaatarPcp<F>::Decide(q, r0, r1, bound_values);
  }
  // The z and h oracles are independent vectors; the generic per-oracle
  // length check is the whole shape contract.
  static Status ValidateProverVectors(
      const ProverContext<F>& ctx,
      const std::array<const std::vector<F>*, 2>& vectors) {
    return ctx.ValidateVectors(vectors);
  }
};

template <typename F>
struct GingerAdapter {
  using Queries = typename GingerPcp<F>::Queries;
  static size_t OracleLength(const Queries& q, size_t oracle) {
    return oracle == 0 ? q.n : q.n * q.n;
  }
  static const std::vector<std::vector<F>>& OracleQueries(const Queries& q,
                                                          size_t oracle) {
    return oracle == 0 ? q.pi1_queries : q.pi2_queries;
  }
  static size_t BoundValueCount(const Queries& q) {
    return q.reps.empty() ? 0 : q.reps[0].gamma_bound.size();
  }
  static bool Decide(const Queries& q, const std::vector<F>& r0,
                     const std::vector<F>& r1,
                     const std::vector<F>& bound_values) {
    return GingerPcp<F>::Decide(q, r0, r1, bound_values);
  }
  // Ginger's second oracle is the tensor z ⊗ z: besides the generic length
  // check, the context itself must relate the two oracle lengths
  // quadratically or the setup cannot have come from an honest verifier.
  static Status ValidateProverVectors(
      const ProverContext<F>& ctx,
      const std::array<const std::vector<F>*, 2>& vectors) {
    const size_t n = ctx.oracles[0].oracle_length();
    if (ctx.oracles[1].oracle_length() != n * n) {
      return MalformedError("tensor oracle length is not |z|^2");
    }
    return ctx.ValidateVectors(vectors);
  }
};

template <typename F>
using ZaatarArgument = Argument<F, ZaatarAdapter<F>>;
template <typename F>
using GingerArgument = Argument<F, GingerAdapter<F>>;

}  // namespace zaatar

#endif  // SRC_ARGUMENT_ARGUMENT_H_
