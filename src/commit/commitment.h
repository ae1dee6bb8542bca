// The linear commitment primitive (Commit + Multidecommit) of Pepper/Ginger
// (paper §2.2), which turns a linear PCP oracle into an argument against a
// computationally bounded prover.
//
// Per oracle and per batch, the verifier:
//   1. samples a secret vector r and sends Enc(r) (exponent ElGamal, §5.1);
//   2. later sends the PCP queries q_1..q_mu plus the consistency query
//      t = r + sum_i alpha_i q_i with secret random alpha_i.
// Per instance, the prover:
//   3. commits by homomorphically evaluating e = Enc(pi(r));
//   4. answers pi(q_1), .., pi(q_mu), pi(t) in the clear.
// The verifier accepts the responses as oracle answers iff
//      g^(pi(t) - sum_i alpha_i pi(q_i)) == Dec(e)  (checked in the group).
// Binding holds because plaintext arithmetic is exactly F (the ElGamal
// subgroup order equals the field modulus).
//
// The per-oracle state is split along the trust boundary: OracleCommitSecrets
// (r, alphas) never leaves the verifier, OracleCommitShared (Enc(r), t) is
// exactly what a SetupMessage carries, and ProverOracleContext is the
// prover's reconstruction of the shared half plus the plaintext queries.

#ifndef SRC_COMMIT_COMMITMENT_H_
#define SRC_COMMIT_COMMITMENT_H_

#include <cassert>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "src/crypto/elgamal.h"
#include "src/crypto/prg.h"
#include "src/pcp/linear_oracle.h"
#include "src/util/parallel_for.h"
#include "src/util/status.h"
#include "src/util/stopwatch.h"

namespace zaatar {

// Verifier-only per-oracle, per-batch state. Nothing in this struct may ever
// be serialized toward the prover: r breaks hiding, the alphas break the
// consistency check's soundness.
template <typename F>
struct OracleCommitSecrets {
  std::vector<F> r;       // plaintext commitment vector
  std::vector<F> alphas;  // consistency coefficients, one per query
};

// The per-oracle material the prover is allowed to see; exactly what crosses
// the wire in a SetupMessage (alongside the plaintext queries, which live in
// the adapter's Queries).
template <typename F>
struct OracleCommitShared {
  std::vector<typename ElGamal<F>::Ciphertext> enc_r;
  std::vector<F> t;
};

// Verifier-side per-oracle, per-batch state: both halves.
template <typename F>
struct OracleCommitSetup {
  OracleCommitSecrets<F> secrets;
  OracleCommitShared<F> shared;
};

// The prover's per-oracle view of a batch, reconstructed purely from
// SetupMessage bytes: encrypted r, plaintext multidecommit queries, and the
// consistency vector t. By construction it cannot contain r, the alphas, or
// the ElGamal secret key — the types for those never appear on this side.
template <typename F>
struct ProverOracleContext {
  std::vector<typename ElGamal<F>::Ciphertext> enc_r;
  std::vector<std::vector<F>> queries;
  std::vector<F> t;

  size_t oracle_length() const { return enc_r.size(); }
};

// Prover-side per-oracle, per-instance message.
template <typename F>
struct OracleProofPart {
  typename ElGamal<F>::Ciphertext commitment;  // e = Enc(pi(r))
  std::vector<F> responses;                    // pi(q_i), aligned with queries
  F t_response;                                // pi(t)
};

template <typename F>
class LinearCommitment {
 public:
  using EG = ElGamal<F>;

  // Phase 1 + 3 setup (verifier, amortized over the batch). `workers` > 1
  // chunks the row encryption of Enc(r) across threads.
  static OracleCommitSetup<F> CreateSetup(
      const typename EG::PublicKey& pk, size_t oracle_len,
      const std::vector<std::vector<F>>& queries, Prg& prg,
      size_t workers = 1) {
    OracleCommitSetup<F> s;
    s.secrets.r = prg.NextFieldVector<F>(oracle_len);
    s.shared.enc_r =
        EG::EncryptRow(pk, s.secrets.r.data(), oracle_len, prg, workers);
    s.secrets.alphas.reserve(queries.size());
    s.shared.t = s.secrets.r;
    for (const auto& q : queries) {
      assert(q.size() == oracle_len);
      F alpha = prg.NextField<F>();
      s.secrets.alphas.push_back(alpha);
      for (size_t i = 0; i < oracle_len; i++) {
        s.shared.t[i] += alpha * q[i];
      }
    }
    return s;
  }

  // Phase 2 (prover, per instance): the homomorphic commitment
  // e = Enc(<u, r>) from Enc(r) and the plaintext proof vector u. `workers`
  // > 1 chunks the multi-exponentiation across that many threads (only
  // useful when instances are not already proved in parallel). Enc(r) comes
  // off the wire on the session path, so a length mismatch is a typed error,
  // not an assert.
  static StatusOr<typename EG::Ciphertext> Commit(
      const std::vector<F>& u,
      const std::vector<typename EG::Ciphertext>& enc_r, size_t workers = 1) {
    if (u.size() != enc_r.size()) {
      return ShapeMismatchError("proof vector length " +
                                std::to_string(u.size()) + " != Enc(r) length " +
                                std::to_string(enc_r.size()));
    }
    return EG::InnerProduct(enc_r.data(), u.data(), u.size(), workers);
  }

  // Phase 4 (prover, per instance): answer every multidecommit query plus
  // the consistency query in the clear. Fills `responses` / `t_response` of
  // an already-committed proof part. Queries and t are wire-decoded on the
  // session path, so length mismatches are typed errors. `workers` > 1
  // splits the queries across threads; every answer is its own inner
  // product, so the split cannot change one.
  static Status Answer(const std::vector<F>& u,
                       const std::vector<std::vector<F>>& queries,
                       const std::vector<F>& t, OracleProofPart<F>* part,
                       size_t workers = 1) {
    for (size_t k = 0; k < queries.size(); k++) {
      if (queries[k].size() != u.size()) {
        return ShapeMismatchError("query " + std::to_string(k) + " length " +
                                  std::to_string(queries[k].size()) +
                                  " != oracle length " +
                                  std::to_string(u.size()));
      }
    }
    if (t.size() != u.size()) {
      return ShapeMismatchError("consistency query length " +
                                std::to_string(t.size()) +
                                " != oracle length " +
                                std::to_string(u.size()));
    }
    part->responses.assign(queries.size(), F::Zero());
    // Index queries.size() is the consistency query t.
    ParallelFor(queries.size() + 1, workers, [&](size_t k) {
      const std::vector<F>& q = k < queries.size() ? queries[k] : t;
      F& answer = k < queries.size() ? part->responses[k] : part->t_response;
      answer = VectorOracle<F>::InnerProduct(q.data(), u.data(), u.size());
    });
    return Status::Ok();
  }

  // Phases 2 + 4 together. `crypto_seconds` / `answer_seconds` receive the
  // phase costs when non-null.
  static StatusOr<OracleProofPart<F>> Prove(
      const std::vector<F>& u,
      const std::vector<typename EG::Ciphertext>& enc_r,
      const std::vector<std::vector<F>>& queries, const std::vector<F>& t,
      double* crypto_seconds = nullptr, double* answer_seconds = nullptr,
      size_t workers = 1);

  // Prove against the prover's reconstructed per-oracle context — the form
  // the session layer uses once the SetupMessage has been decoded.
  static StatusOr<OracleProofPart<F>> Prove(const std::vector<F>& u,
                                            const ProverOracleContext<F>& ctx,
                                            double* crypto_seconds = nullptr,
                                            double* answer_seconds = nullptr,
                                            size_t workers = 1) {
    return Prove(u, ctx.enc_r, ctx.queries, ctx.t, crypto_seconds,
                 answer_seconds, workers);
  }

  // Per-instance verifier check: are the responses consistent with the
  // committed linear function? Needs only the secret half of the setup —
  // the check is g^(pi(t) - sum_i alpha_i pi(q_i)) == Dec(e).
  static bool CheckConsistency(const typename EG::PublicKey& pk,
                               const typename EG::SecretKey& sk,
                               const OracleCommitSecrets<F>& secrets,
                               const OracleProofPart<F>& part) {
    // A malformed proof part must fail the check, not index out of bounds
    // (asserts are compiled out in release builds; the argument layer also
    // screens shape, this is defense in depth).
    if (part.responses.size() != secrets.alphas.size()) {
      return false;
    }
    F expected = part.t_response;
    for (size_t i = 0; i < secrets.alphas.size(); i++) {
      expected -= secrets.alphas[i] * part.responses[i];
    }
    typename EG::Zp decrypted =
        EG::DecryptToGroup(sk, pk, part.commitment);
    return decrypted == EG::GroupEmbed(pk, expected);
  }
};

template <typename F>
StatusOr<OracleProofPart<F>> LinearCommitment<F>::Prove(
    const std::vector<F>& u,
    const std::vector<typename EG::Ciphertext>& enc_r,
    const std::vector<std::vector<F>>& queries, const std::vector<F>& t,
    double* crypto_seconds, double* answer_seconds, size_t workers) {
  OracleProofPart<F> part;

  Stopwatch timer;
  ZAATAR_ASSIGN_OR_RETURN(part.commitment, Commit(u, enc_r, workers));
  if (crypto_seconds != nullptr) {
    *crypto_seconds += timer.Lap();
  } else {
    timer.Restart();
  }

  ZAATAR_RETURN_IF_ERROR(Answer(u, queries, t, &part, workers));
  if (answer_seconds != nullptr) {
    *answer_seconds += timer.Lap();
  }
  return part;
}

}  // namespace zaatar

#endif  // SRC_COMMIT_COMMITMENT_H_
