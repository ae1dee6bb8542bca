// Figure 6: speedups from parallelizing and distributing the prover, for
// PAM clustering and all-pairs shortest paths with beta = 60 instances.
// Configurations mirror the paper's bar labels: 4C, 15C+15G, 20C, 30C+30G,
// 60C, 60C(ideal).
//
// Method (see DESIGN.md §5): per-instance phase costs are *measured* on this
// machine; fleet latency follows the distribution model (instances are
// independent, so a batch completes in ceil(beta/cores) waves; a GPU
// accelerates the crypto phase, calibrated to the paper's ~20% per-instance
// gain). A measured run of the pooled harness prover on this host's
// hardware threads closes the loop on the actual code path.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/argument/parallel.h"

namespace zaatar {
namespace {

// Wall time from the prover holding the batch setup to the last verdict:
// the part of the batch the prover's thread count can shorten.
double ProvingWall(const obs::Tracer& trace) {
  uint64_t ingested = 0;
  uint64_t done = 0;
  for (const obs::Tracer::Node& n : trace.Snapshot()) {
    if (n.name == "prover.ingest_setup") {
      ingested = n.end_ns;
    } else if (n.name == "harness.batch") {
      done = n.end_ns;
    }
  }
  return static_cast<double>(done - ingested) * 1e-9;
}

template <typename F>
void SpeedupTable(const App<F>& app, const PcpParams& params, size_t beta) {
  auto program = CompileZlang<F>(app.source);
  MeasureOptions opt;
  opt.measure_native = false;
  opt.prover_threads = 1;
  auto m = MeasureBatch<F, ZaatarHarnessBackend<F>>(app, program, 2, params,
                                                    /*seed=*/11, opt);
  printf("\n%s  (beta = %zu, measured per-instance prover %s)\n",
         app.name.c_str(), beta,
         bench::HumanSeconds(m.prover.Total()).c_str());
  const WorkerConfig kConfigs[] = {
      {.cpu_cores = 4, .gpus = 0},   {.cpu_cores = 15, .gpus = 15},
      {.cpu_cores = 20, .gpus = 0},  {.cpu_cores = 30, .gpus = 30},
      {.cpu_cores = 60, .gpus = 0},
  };
  printf("  %-12s %14s %10s\n", "config", "batch latency", "speedup");
  for (const auto& config : kConfigs) {
    double latency =
        DistributedProverModel::BatchLatency(m.prover, beta, config);
    double speedup = DistributedProverModel::Speedup(m.prover, beta, config);
    printf("  %-12s %14s %9.1fx\n", config.Label().c_str(),
           bench::HumanSeconds(latency).c_str(), speedup);
  }
  printf("  %-12s %14s %9.1fx   (perfect division of the batch)\n",
         "60C(ideal)",
         bench::HumanSeconds(m.prover.Total() * beta / 60.0).c_str(), 60.0);
  double gpu_gain =
      1.0 - DistributedProverModel::InstanceLatency(
                m.prover, {.cpu_cores = 1, .gpus = 1}) /
                DistributedProverModel::InstanceLatency(
                    m.prover, {.cpu_cores = 1, .gpus = 0});
  printf("  GPU per-instance latency gain: %.0f%% (paper: ~20%%)\n",
         100 * gpu_gain);
}

}  // namespace
}  // namespace zaatar

int main() {
  using namespace zaatar;
  PcpParams params;
  printf("Figure 6: prover speedup from parallelization/distribution\n");
  SpeedupTable(MakePamApp(6, 12), params, /*beta=*/60);
  SpeedupTable(MakeApspApp(3), params, /*beta=*/60);

  // Measured, not modeled: the same batch through the harness with the
  // prover on one thread and on every hardware thread
  // (MeasureOptions::prover_threads), beside the wave model's prediction
  // for this host. The wire bytes are identical in both runs; only the
  // prover's wall time moves.
  {
    const size_t cores = HardwareThreads();
    printf("\nMeasured pooled prover (host has %zu hardware threads):\n",
           cores);
    auto app = MakeLcsApp(12);
    auto program = CompileZlang<F128>(app.source);
    const size_t kBatch = 4 * cores;
    MeasureOptions opt;
    opt.measure_native = false;
    double prove_wall[2] = {0, 0};
    ProverCosts per_instance;
    bool all = true;
    const size_t threads[2] = {1, cores};
    for (size_t k = 0; k < 2; k++) {
      opt.prover_threads = threads[k];
      auto m = MeasureBatch<F128, ZaatarHarnessBackend<F128>>(
          app, program, kBatch, params, /*seed=*/13, opt);
      all = all && m.all_accepted;
      prove_wall[k] = ProvingWall(*m.trace);
      if (k == 0) {
        per_instance = m.prover;
      }
    }
    // The one-thread run is not one core: its construct-u already fans out
    // over PolyWorkers() residue threads, which the pool trades for
    // instance-level parallelism. The wave model assumes one core per
    // instance at the one-thread run's per-instance phase costs.
    printf("  batch of %zu: proving %s on 1 thread, %s on %zu (%.1fx); "
           "wave model at %zu cores %s; all accepted: %s\n",
           kBatch, bench::HumanSeconds(prove_wall[0]).c_str(),
           bench::HumanSeconds(prove_wall[1]).c_str(), cores,
           prove_wall[0] / prove_wall[1], cores,
           bench::HumanSeconds(DistributedProverModel::BatchLatency(
                                   per_instance, kBatch,
                                   {.cpu_cores = cores, .gpus = 0}))
               .c_str(),
           all ? "yes" : "NO");
    if (!all) {
      return 1;
    }
  }
  return 0;
}
