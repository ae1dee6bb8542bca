// vcbench: complete verified batches at paper parameters (rho = 8,
// rho_lin = 20) over a real AF_UNIX socketpair, measured end to end from
// outside the harness and, in the traced run, layer by layer.
//
// Usage: vcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every batch goes through the harness's single entry point,
// MeasureBatch<F, ZaatarHarnessBackend<F>>, with a timing decorator passed
// as MeasureOptions::wrap_transport. The load is closed-loop: one batch at a
// time, one connection per batch, no threads beyond the harness's own. The
// first batch of a process is a warm-up and stays out of the medians.
//
// Output: '#' lines for people, then one JSON line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The process exits 1 if an honest instance is not ACCEPTed,
// an output disagrees with the native reference, the stage walk's verdicts
// differ from the harness's, or the negative control is not REJECT_PCP.
// METRICS.md defines every metric.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/harness.h"
#include "src/apps/suite.h"
#include "src/argument/cost_model.h"
#include "src/compiler/compile.h"
#include "vcbench/probes.h"
#include "vcbench/stage_walk.h"

namespace vcbench {
namespace {

using zaatar::App;
using zaatar::F128;
using zaatar::F220;
using zaatar::PcpParams;
using zaatar::VerifyVerdict;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Everything one run reports: the JSON line plus the human lines.
struct Report {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }

  double RejectRate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// Distinct, reproducible per-batch seeds from the workload seed.
uint64_t BatchSeed(uint64_t seed, uint64_t batch) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (batch + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct BatchSample {
  uint64_t seed = 0;
  double setup_s = 0;     // batch start -> setup frame Send returned
  double batch_s = 0;     // batch start -> last verdict Send returned
  double instance_s = 0;  // (batch_s - setup_s) / beta
  double cpu_s = 0;       // process user + sys over the batch
  double wall_s = 0;      // batch start -> MeasureBatch returned
  double wire_bytes = 0;  // both directions
  double rss_mb = 0;      // VmRSS after the batch
  double steal_s = 0;     // host steal over the batch, all CPUs
  uint32_t connections = 0;
  std::vector<VerifyVerdict> verdicts;

  // Traced batches only (frame spans on both endpoints).
  double setup_send_s = 0;
  double setup_recv_s = 0;
  double verifier_wait_s = 0;  // per instance
  double setup_bytes = 0;
  double proof_bytes = 0;
};

// One complete verified batch: compile Ψ, then MeasureBatch over a
// socketpair with the timing decorator on the verifier endpoint (and, when
// `traced`, on the prover endpoint too).
template <typename F>
BatchSample RunBatch(const App<F>& app, size_t beta, const PcpParams& params,
                     uint64_t seed, bool traced) {
  SpanList spans;
  WireLog log;
  log.spans = traced ? &spans : nullptr;

  zaatar::MeasureOptions opt;
  opt.measure_native = false;
  opt.link = zaatar::MeasureOptions::Link::kSocketpair;
  opt.wrap_transport =
      [&log, traced](std::unique_ptr<zaatar::protocol::Transport> inner,
                     bool verifier_side, uint32_t /*connection*/)
      -> std::unique_ptr<zaatar::protocol::Transport> {
    if (verifier_side) {
      log.connections++;
    } else if (!traced) {
      return inner;
    }
    return std::make_unique<TimedTransport>(std::move(inner), verifier_side,
                                            &log);
  };

  BatchSample s;
  s.seed = seed;
  const double cpu0 = ProcessCpuSeconds();
  const double steal0 = HostStealSeconds();
  log.batch_start = Clock::now();
  {
    const zaatar::CompiledProgram<F> program =
        zaatar::CompileZlang<F>(app.source);
    zaatar::BatchMeasurement m =
        zaatar::MeasureBatch<F, zaatar::ZaatarHarnessBackend<F>>(
            app, program, beta, params, seed, opt);
    s.wall_s = Seconds(log.batch_start, Clock::now());
    s.cpu_s = ProcessCpuSeconds() - cpu0;
    s.steal_s = HostStealSeconds() - steal0;
    for (const auto& r : m.instance_results) {
      s.verdicts.push_back(r.verdict);
    }
  }
  if (!log.sent_any) {
    throw std::runtime_error("verifier never sent a frame");
  }
  s.setup_s = Seconds(log.batch_start, log.first_send_end);
  s.batch_s = Seconds(log.batch_start, log.last_send_end);
  s.instance_s = (s.batch_s - s.setup_s) / static_cast<double>(beta);
  s.wire_bytes = static_cast<double>(log.bytes_sent + log.bytes_received);
  s.connections = log.connections;
  s.rss_mb = ProcStatusMb("VmRSS");

  if (traced) {
    const SpanList::Span* send = spans.First("verifier.send_setup");
    const SpanList::Span* recv = spans.First("prover.recv_setup");
    if (send == nullptr || recv == nullptr) {
      throw std::runtime_error("traced batch is missing its setup spans");
    }
    s.setup_send_s = Seconds(send->start, send->end);
    // The prover is blocked in Receive before the verifier starts sending;
    // count only from the start of the send.
    s.setup_recv_s = Seconds(std::max(send->start, recv->start), recv->end);
    s.verifier_wait_s =
        spans.Sum("verifier.recv_proof") / static_cast<double>(beta);
    s.setup_bytes = static_cast<double>(log.setup_bytes);
    s.proof_bytes = static_cast<double>(log.bytes_received);
  }
  return s;
}

void NoteBatch(const char* kind, const BatchSample& b, Report* report) {
  char buf[200];
  snprintf(buf, sizeof(buf),
           "batch %-8s setup_s %.4f batch_s %.4f instance_s %.5f cpu_s %.3f "
           "rss %.1f MB host steal %.2f cpu-s",
           kind, b.setup_s, b.batch_s, b.instance_s, b.cpu_s, b.rss_mb,
           b.steal_s);
  report->notes.push_back(buf);
}

void CheckVerdicts(const BatchSample& b, size_t beta, Report* report) {
  report->attempted += beta;
  size_t rejected = beta - std::min(beta, b.verdicts.size());
  for (VerifyVerdict v : b.verdicts) {
    if (v != VerifyVerdict::kAccept) {
      rejected++;
    }
  }
  report->failed += rejected;
  if (rejected > 0) {
    report->Fail(std::to_string(rejected) +
                 " honest instance(s) not ACCEPTed at batch seed " +
                 std::to_string(b.seed));
  }
}

// VmRSS slope across `batches` (MiB per batch); 0 with fewer than two.
double RssGrowth(const std::vector<BatchSample>& batches) {
  if (batches.size() < 2) {
    return 0;
  }
  return (batches.back().rss_mb - batches.front().rss_mb) /
         static_cast<double>(batches.size() - 1);
}

template <typename Fn>
std::vector<double> Collect(const std::vector<BatchSample>& batches, Fn f) {
  std::vector<double> v;
  v.reserve(batches.size());
  for (const BatchSample& b : batches) {
    v.push_back(f(b));
  }
  return v;
}

// --trace 0: batches until the time budget is spent (at least one cold and
// two measured), medians over the measured ones.
template <typename F>
void RunEndToEnd(const App<F>& app, size_t beta, const PcpParams& params,
                 const Args& args, Report* report) {
  const Clock::time_point start = Clock::now();
  std::vector<BatchSample> batches;
  double peak_rss_mb = 0;
  for (uint64_t k = 0;; k++) {
    batches.push_back(RunBatch(app, beta, params, BatchSeed(args.seed, k),
                               /*traced=*/false));
    CheckVerdicts(batches.back(), beta, report);
    NoteBatch(k == 0 ? "cold" : "measured", batches.back(), report);
    if (k == 1) {
      // High-water mark over the cold batch and the first measured one;
      // later growth is harness.rss_growth_mb.
      peak_rss_mb = ProcStatusMb("VmHWM");
    }
    const double elapsed = Seconds(start, Clock::now());
    if (k >= 2 && elapsed + batches.back().wall_s > args.seconds) {
      break;
    }
  }
  const std::vector<BatchSample> warm(batches.begin() + 1, batches.end());
  auto med = [&warm](auto f) { return Median(Collect(warm, f)); };

  const double batch_s = med([](const BatchSample& b) { return b.batch_s; });
  report->metrics = {
      {"setup_s", med([](const BatchSample& b) { return b.setup_s; }), "s"},
      {"batch_s", batch_s, "s"},
      {"instance_s", med([](const BatchSample& b) { return b.instance_s; }),
       "s"},
      {"cpu_s", med([](const BatchSample& b) { return b.cpu_s; }), "s"},
      {"wire_bytes", med([](const BatchSample& b) { return b.wire_bytes; }),
       "B"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  report->notes.push_back(
      "batches " + std::to_string(batches.size()) + " (1 cold excluded, " +
      std::to_string(warm.size()) + " in the medians), beta " +
      std::to_string(beta));
  char buf[160];
  snprintf(buf, sizeof(buf), "reject_rate %.6g (%zu of %zu instances)",
           report->RejectRate(), report->failed, report->attempted);
  report->notes.push_back(buf);
  snprintf(buf, sizeof(buf),
           "harness.cold_extra_s %.4f  harness.rss_growth_mb %.1f  "
           "final VmHWM %.1f MB",
           batches.front().batch_s - batch_s, RssGrowth(warm),
           ProcStatusMb("VmHWM"));
  report->notes.push_back(buf);
}

// --trace 1: a cold harness batch, the stage walk, then alternating traced
// and untraced harness batches until the time budget is spent (at least one
// of each). The first traced batch shares the stage walk's seed.
template <typename F>
void RunTraced(const App<F>& app, size_t beta, const PcpParams& params,
               const Args& args, Report* report) {
  const Clock::time_point start = Clock::now();
  const BatchSample cold = RunBatch(app, beta, params, BatchSeed(args.seed, 0),
                                    /*traced=*/false);
  CheckVerdicts(cold, beta, report);
  NoteBatch("cold", cold, report);

  // The default repetition count times the field multiply over a few
  // microseconds, too short to be steady on a shared host.
  const zaatar::MicroCosts micro =
      zaatar::bench::MeasureMicroCosts<F>(/*reps=*/2000);
  const StageTimes walk = StageWalk(app, beta, params, BatchSeed(args.seed, 1));
  if (walk.control != VerifyVerdict::kRejectPcp) {
    report->Fail(std::string("negative control got ") +
                 zaatar::VerifyVerdictName(walk.control) +
                 ", expected REJECT_PCP");
  }

  std::vector<BatchSample> after_walk;  // harness batches, in order
  std::vector<BatchSample> traced;
  std::vector<BatchSample> untraced;
  for (uint64_t k = 1;; k++) {
    const bool is_traced = k % 2 == 1;
    after_walk.push_back(RunBatch(app, beta, params, BatchSeed(args.seed, k),
                                  is_traced));
    const BatchSample& b = after_walk.back();
    CheckVerdicts(b, beta, report);
    NoteBatch(is_traced ? "traced" : "untraced", b, report);
    (is_traced ? traced : untraced).push_back(b);
    if (k == 1 && b.verdicts != walk.verdicts) {
      report->Fail("stage walk verdicts differ from the harness's");
    }
    const double elapsed = Seconds(start, Clock::now());
    if (k >= 2 && elapsed + b.wall_s > args.seconds) {
      break;
    }
  }

  auto med = [](const std::vector<BatchSample>& v, auto f) {
    return Median(Collect(v, f));
  };
  auto get_setup = [](const BatchSample& b) { return b.setup_s; };
  auto get_batch = [](const BatchSample& b) { return b.batch_s; };
  auto get_instance = [](const BatchSample& b) { return b.instance_s; };
  const double setup_s = med(after_walk, get_setup);
  const double instance_s = med(after_walk, get_instance);
  const double untraced_batch_s = med(untraced, get_batch);

  // Figure 3 terms, with the micro-costs measured in this process. Query
  // generation is verifier setup without Enc(r) (e = 0); answering is
  // issue-responses without the commitment fold (h = 0); construct-u
  // excludes solving (T = 0).
  const zaatar::ComputationStats& stats = walk.stats;
  const zaatar::CostModel model(micro, params);
  zaatar::MicroCosts no_e = micro;
  no_e.e = 0;
  zaatar::MicroCosts no_h = micro;
  no_h.h = 0;
  no_h.h_amortized = 0;
  const double compute_h_term = model.ZaatarConstructProof(stats);
  const double answer_term =
      zaatar::CostModel(no_h, params).ZaatarIssueResponses(stats);
  const double query_gen_term =
      zaatar::CostModel(no_e, params).ZaatarVerifierSetup(stats);
  const double verify_term = model.ZaatarVerifierPerInstance(stats);

  const double attributed_setup = walk.compile_s + walk.qap_prepare_s +
                                  walk.query_gen_s + walk.commit_setup_s;
  const double attributed_instance = walk.solve_s + walk.compute_h_s +
                                     walk.commit_s + walk.answer_s +
                                     walk.verify_s;
  report->metrics = {
      {"compiler.compile_s", walk.compile_s, "s"},
      {"compiler.solve_s", walk.solve_s, "s"},
      {"constraints.qap_prepare_s", walk.qap_prepare_s, "s"},
      {"constraints.compute_h_s", walk.compute_h_s, "s"},
      {"pcp.query_gen_s", walk.query_gen_s, "s"},
      {"pcp.queries", static_cast<double>(walk.queries), "count"},
      {"pcp.proof_len", static_cast<double>(walk.proof_len), "count"},
      {"commit.setup_s", walk.commit_setup_s, "s"},
      {"commit.commit_s", walk.commit_s, "s"},
      {"commit.answer_s", walk.answer_s, "s"},
      {"commit.answer_macs", static_cast<double>(walk.answer_macs), "count"},
      {"argument.verify_s", walk.verify_s, "s"},
      {"protocol.setup_bytes",
       med(traced, [](const BatchSample& b) { return b.setup_bytes; }), "B"},
      {"protocol.proof_bytes",
       med(traced, [](const BatchSample& b) { return b.proof_bytes; }), "B"},
      {"protocol.setup_send_s",
       med(traced, [](const BatchSample& b) { return b.setup_send_s; }), "s"},
      {"protocol.setup_recv_s",
       med(traced, [](const BatchSample& b) { return b.setup_recv_s; }), "s"},
      {"protocol.verifier_wait_s",
       med(traced, [](const BatchSample& b) { return b.verifier_wait_s; }),
       "s"},
      {"protocol.connections",
       med(after_walk,
           [](const BatchSample& b) {
             return static_cast<double>(b.connections);
           }),
       "count"},
      {"harness.unattributed_setup_s", setup_s - attributed_setup, "s"},
      {"harness.unattributed_instance_s", instance_s - attributed_instance,
       "s"},
      {"harness.rss_growth_mb", RssGrowth(after_walk), "MB"},
      {"harness.cold_extra_s", cold.batch_s - untraced_batch_s, "s"},
      {"harness.reject_rate", report->RejectRate(), "ratio"},
      {"trace.overhead", med(traced, get_batch) / untraced_batch_s - 1.0,
       "ratio"},
      {"constraints.compute_h_model_ratio", walk.compute_h_s / compute_h_term,
       "ratio"},
      {"commit.answer_model_ratio", walk.answer_s / answer_term, "ratio"},
      {"pcp.query_gen_model_ratio", walk.query_gen_s / query_gen_term,
       "ratio"},
      {"argument.verify_model_ratio", walk.verify_s / verify_term, "ratio"},
  };
  report->notes.push_back(
      "harness batches " + std::to_string(1 + after_walk.size()) +
      " (1 cold, " + std::to_string(traced.size()) + " traced, " +
      std::to_string(untraced.size()) + " untraced), beta " +
      std::to_string(beta));
  char buf[200];
  snprintf(buf, sizeof(buf),
           "harness setup_s %.4f = compile %.4f + prepare %.4f + query_gen "
           "%.4f + commit_setup %.4f + unattributed %.4f",
           setup_s, walk.compile_s, walk.qap_prepare_s, walk.query_gen_s,
           walk.commit_setup_s, setup_s - attributed_setup);
  report->notes.push_back(buf);
  snprintf(buf, sizeof(buf),
           "harness instance_s %.4f = solve %.4f + compute_h %.4f + commit "
           "%.4f + answer %.4f + verify %.5f + unattributed %.4f",
           instance_s, walk.solve_s, walk.compute_h_s, walk.commit_s,
           walk.answer_s, walk.verify_s, instance_s - attributed_instance);
  report->notes.push_back(buf);
}

struct Workload {
  const char* name;
  std::function<void(const Args&, Report*)> run;
};

template <typename F>
std::function<void(const Args&, Report*)> Bind(std::function<App<F>()> make,
                                               size_t beta, PcpParams params) {
  return [make, beta, params](const Args& args, Report* report) {
    const App<F> app = make();
    if (args.trace) {
      RunTraced(app, beta, params, args, report);
    } else {
      RunEndToEnd(app, beta, params, args, report);
    }
  };
}

std::vector<Workload> Workloads() {
  return {
      {"prove_lcs16_f128",
       Bind<F128>([] { return zaatar::MakeLcsApp(16); }, 32, PcpParams{})},
      {"setup_apsp4_f128",
       Bind<F128>([] { return zaatar::MakeApspApp(4); }, 1, PcpParams{})},
      {"mixed_rootfind_f220",
       Bind<F220>([] { return zaatar::MakeRootFindApp(6, 8); }, 12,
                  PcpParams{})},
      // Smoke variants: small Ψ, light parameters, same code paths.
      {"smoke_f128",
       Bind<F128>([] { return zaatar::MakeLcsApp(3); }, 2, PcpParams::Light())},
      {"smoke_f220",
       Bind<F220>([] { return zaatar::MakeRootFindApp(2, 4); }, 2,
                  PcpParams::Light())},
  };
}

void PrintJson(const Report& r) {
  printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
         "\"metrics\": {",
         r.correct ? "true" : "false", std::max<size_t>(r.attempted, 1),
         r.failed);
  for (size_t i = 0; i < r.metrics.size(); i++) {
    const Metric& m = r.metrics[i];
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
           m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
           m.unit.c_str());
  }
  printf("}}\n");
}

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1>\nworkloads:",
          argv0);
  for (const Workload& w : Workloads()) {
    fprintf(stderr, " %s", w.name);
  }
  fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = strcmp(value, "0") != 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1) {
    return Usage(argv[0]);
  }
  for (const Workload& w : Workloads()) {
    if (args.workload != w.name) {
      continue;
    }
    Report report;
    try {
      w.run(args, &report);
    } catch (const std::exception& e) {
      report.Fail(e.what());
    }
    for (const Metric& m : report.metrics) {
      if (!std::isfinite(m.value)) {
        report.Fail(m.name + " is not finite");
      }
    }
    printf("# %s seed %llu trace %d\n", w.name,
           static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
    for (const std::string& note : report.notes) {
      printf("# %s\n", note.c_str());
    }
    for (const Metric& m : report.metrics) {
      printf("# %-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    PrintJson(report);
    return report.correct ? 0 : 1;
  }
  return Usage(argv[0]);
}

}  // namespace
}  // namespace vcbench

int main(int argc, char** argv) { return vcbench::Main(argc, argv); }
