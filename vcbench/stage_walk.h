// The traced run's stage walk: one batch driven by direct calls into each
// layer's public functions, in the Prg order of the harness (queries ->
// keys and commitment setup -> instances), so its verdicts must equal the
// harness's at the same seed. Each call is timed here, not through
// src/obs, and the walk carries the negative control.

#ifndef VCBENCH_STAGE_WALK_H_
#define VCBENCH_STAGE_WALK_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/apps/harness.h"
#include "src/apps/suite.h"
#include "src/argument/argument.h"
#include "src/commit/commitment.h"
#include "src/compiler/compile.h"
#include "src/pcp/zaatar_pcp.h"
#include "vcbench/probes.h"

namespace vcbench {

struct StageTimes {
  // Per batch.
  double compile_s = 0;       // CompileZlang
  double qap_prepare_s = 0;   // Qap construction + WarmProver
  double query_gen_s = 0;     // ZaatarPcp::GenerateQueries
  double commit_setup_s = 0;  // Argument::Setup: keys, Enc(r), t
  // Per instance (batch sums divided by beta).
  double solve_s = 0;      // SolveGinger + SolveZaatar
  double compute_h_s = 0;  // BuildZaatarProof (Qap::ComputeH)
  double commit_s = 0;     // LinearCommitment::Commit, both oracles
  double answer_s = 0;     // LinearCommitment::Answer, both oracles
  double verify_s = 0;     // Argument::VerifyInstanceDetailed

  size_t queries = 0;      // mu, both oracles
  size_t proof_len = 0;    // |u| = |z| + |h|
  size_t answer_macs = 0;  // per instance: (queries + t) x oracle length
  zaatar::ComputationStats stats;

  std::vector<zaatar::VerifyVerdict> verdicts;
  zaatar::VerifyVerdict control = zaatar::VerifyVerdict::kAccept;
};

template <typename F>
StageTimes StageWalk(const zaatar::App<F>& app, size_t beta,
                     const zaatar::PcpParams& params, uint64_t seed) {
  using Backend = zaatar::ZaatarHarnessBackend<F>;
  using Adapter = typename Backend::Adapter;
  using Arg = zaatar::Argument<F, Adapter>;
  using Commitment = zaatar::LinearCommitment<F>;

  StageTimes st;
  Clock::time_point t = Clock::now();
  auto lap = [&t] {
    const Clock::time_point now = Clock::now();
    const double s = Seconds(t, now);
    t = now;
    return s;
  };

  const zaatar::CompiledProgram<F> program =
      zaatar::CompileZlang<F>(app.source);
  st.compile_s = lap();
  st.stats = zaatar::ComputeStats(program, /*t_local_s=*/0.0);

  zaatar::Prg prg(seed);
  lap();
  typename Backend::Prepared prep(program);
  st.qap_prepare_s = lap();
  auto queries = zaatar::ZaatarPcp<F>::GenerateQueries(prep.qap, params, prg);
  st.query_gen_s = lap();
  st.queries = queries.TotalQueryCount();
  st.proof_len = Backend::ProofLen(queries);
  const typename Arg::VerifierSetup setup = Arg::Setup(std::move(queries), prg);
  st.commit_setup_s = lap();
  for (size_t o = 0; o < 2; o++) {
    st.answer_macs += (Adapter::OracleQueries(setup.queries, o).size() + 1) *
                      Adapter::OracleLength(setup.queries, o);
  }

  std::vector<zaatar::AppInstance<F>> instances;
  instances.reserve(beta);
  for (size_t i = 0; i < beta; i++) {
    instances.push_back(app.make_instance(prg));
  }

  for (size_t i = 0; i < beta; i++) {
    const zaatar::AppInstance<F>& inst = instances[i];
    lap();
    const std::vector<F> gw = program.SolveGinger(inst.inputs);
    const std::vector<F> w = program.SolveZaatar(gw);
    st.solve_s += lap();
    if (program.ExtractOutputs(gw) != inst.expected_outputs) {
      throw std::runtime_error(
          "stage walk: compiled outputs disagree with the native reference");
    }

    const zaatar::ZaatarProof<F> proof = zaatar::BuildZaatarProof(prep.qap, w);
    st.compute_h_s += lap();

    const std::vector<F>* vectors[2] = {&proof.z, &proof.h};
    typename Arg::InstanceProof p;
    for (size_t o = 0; o < 2; o++) {
      auto commitment = Commitment::Commit(*vectors[o], setup.shared[o].enc_r);
      if (!commitment.ok()) {
        throw std::runtime_error("stage walk commit: " +
                                 commitment.status().ToString());
      }
      p.parts[o].commitment = *commitment;
    }
    st.commit_s += lap();
    for (size_t o = 0; o < 2; o++) {
      zaatar::Status s =
          Commitment::Answer(*vectors[o], Adapter::OracleQueries(setup.queries, o),
                             setup.shared[o].t, &p.parts[o]);
      if (!s.ok()) {
        throw std::runtime_error("stage walk answer: " + s.ToString());
      }
    }
    st.answer_s += lap();

    const std::vector<F> bound =
        program.BoundValues(inst.inputs, inst.expected_outputs);
    st.verdicts.push_back(Arg::VerifyInstanceDetailed(setup, p, bound).verdict);
    st.verify_s += lap();

    if (i == 0) {
      // Negative control: the honest proof against a claimed output that is
      // off by one must fail the PCP decision (not the commitment check).
      std::vector<F> forged = bound;
      forged.back() += F::One();
      st.control = Arg::VerifyInstanceDetailed(setup, p, forged).verdict;
      lap();
    }
  }

  const double b = static_cast<double>(beta);
  st.solve_s /= b;
  st.compute_h_s /= b;
  st.commit_s /= b;
  st.answer_s /= b;
  st.verify_s /= b;
  return st;
}

}  // namespace vcbench

#endif  // VCBENCH_STAGE_WALK_H_
