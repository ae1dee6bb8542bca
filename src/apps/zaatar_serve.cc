// zaatar-serve: the standing verified-computation daemon and its client.
// One binary, four modes, all speaking the framed AF_UNIX serve protocol:
//
//   zaatar-serve --mode serve --socket /tmp/z.sock [--workers N]
//       [--max-queue N] [--max-connections N] [--cache-entries N]
//       [--handshake-ms N] [--idle-ms N] [--seed S] [--paper-params]
//     Runs the daemon until a kShutdown frame (or SIGINT/SIGTERM). One
//     thread serves each connection; --workers setup builds and proof
//     verifications run at once, --max-queue more wait for a slot, and
//     the rest are refused with a typed RESOURCE_EXHAUSTED.
//
//   zaatar-serve --mode prove --socket /tmp/z.sock --psi lcs/6
//       [--tenant NAME] [--instances N] [--seed S] [--max-retries N]
//     Connects as a prover, proves N instances, prints the report.
//     Exit 0 iff every instance was accepted.
//
//   zaatar-serve --mode stats --socket /tmp/z.sock
//     Prints the daemon's /stats JSON document.
//
//   zaatar-serve --mode shutdown --socket /tmp/z.sock
//     Asks the daemon to stop.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "src/pcp/params.h"
#include "src/serve/client.h"
#include "src/serve/psi_material.h"
#include "src/serve/server.h"

namespace {

std::sig_atomic_t g_signalled = 0;

void OnSignal(int) { g_signalled = 1; }

struct Options {
  std::string mode = "serve";
  std::string socket_path;
  std::string psi = "lcs/6";
  std::string tenant = "cli";
  size_t instances = 1;
  uint64_t seed = 1;
  size_t workers = 2;
  size_t max_queue = 32;
  size_t max_connections = 32;
  size_t cache_entries = 16;
  uint64_t handshake_ms = 30000;
  uint64_t idle_ms = 120000;
  uint32_t max_retries = 8;
  bool paper_params = false;
};

void Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --mode serve|prove|stats|shutdown --socket PATH\n"
            << "       [--psi name/size] [--tenant NAME] [--instances N]\n"
            << "       [--seed S] [--workers N] [--max-queue N]\n"
            << "       [--max-connections N] [--cache-entries N]\n"
            << "       [--handshake-ms N] [--idle-ms N] [--max-retries N]\n"
            << "       [--paper-params]\n"
            << "  --workers N    jobs (setup builds, verifications) run at "
               "once\n"
            << "  --max-queue N  jobs that wait for a slot; more are refused\n";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto parse_u64 = [&](uint64_t* out) {
      const char* v = next();
      if (v == nullptr) return false;
      *out = std::strtoull(v, nullptr, 10);
      return true;
    };
    uint64_t u = 0;
    if (a == "--mode") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->mode = v;
    } else if (a == "--socket") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->socket_path = v;
    } else if (a == "--psi") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->psi = v;
    } else if (a == "--tenant") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->tenant = v;
    } else if (a == "--instances") {
      if (!parse_u64(&u)) return false;
      opt->instances = static_cast<size_t>(u);
    } else if (a == "--seed") {
      if (!parse_u64(&opt->seed)) return false;
    } else if (a == "--workers") {
      if (!parse_u64(&u)) return false;
      opt->workers = static_cast<size_t>(u);
    } else if (a == "--max-queue") {
      if (!parse_u64(&u)) return false;
      opt->max_queue = static_cast<size_t>(u);
    } else if (a == "--max-connections") {
      if (!parse_u64(&u)) return false;
      opt->max_connections = static_cast<size_t>(u);
    } else if (a == "--cache-entries") {
      if (!parse_u64(&u)) return false;
      opt->cache_entries = static_cast<size_t>(u);
    } else if (a == "--handshake-ms") {
      if (!parse_u64(&opt->handshake_ms)) return false;
    } else if (a == "--idle-ms") {
      if (!parse_u64(&opt->idle_ms)) return false;
    } else if (a == "--max-retries") {
      if (!parse_u64(&u)) return false;
      opt->max_retries = static_cast<uint32_t>(u);
    } else if (a == "--paper-params") {
      opt->paper_params = true;
    } else {
      std::cerr << "unknown flag: " << a << "\n";
      return false;
    }
  }
  if (opt->socket_path.empty()) {
    std::cerr << "--socket is required\n";
    return false;
  }
  if (opt->mode != "serve" && opt->mode != "prove" && opt->mode != "stats" &&
      opt->mode != "shutdown") {
    std::cerr << "unknown mode: " << opt->mode << "\n";
    return false;
  }
  return true;
}

int RunServe(const Options& opt) {
  using namespace zaatar;
  serve::ServerOptions sopt;
  sopt.socket_path = opt.socket_path;
  sopt.workers = opt.workers;
  sopt.max_queue = opt.max_queue;
  sopt.max_connections = opt.max_connections;
  sopt.handshake_deadline = std::chrono::milliseconds(opt.handshake_ms);
  sopt.idle_deadline = std::chrono::milliseconds(opt.idle_ms);
  sopt.cache.max_entries = opt.cache_entries;
  sopt.cache.seed = opt.seed;
  PcpParams params = opt.paper_params ? PcpParams{} : PcpParams::Light();
  serve::Server server(sopt, serve::MakePsiBuilder(params));
  Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "cannot start daemon: " << started.ToString() << "\n";
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::printf("zaatar-serve listening on %s (%zu workers)\n",
              opt.socket_path.c_str(), sopt.workers);
  std::fflush(stdout);
  while (!server.stop_requested() && g_signalled == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  std::printf("zaatar-serve stopped\n");
  return 0;
}

int RunProve(const Options& opt) {
  using namespace zaatar;
  serve::ServeClient::Options copt;
  copt.backoff.max_retries = opt.max_retries;
  copt.backoff.jitter_seed = opt.seed;
  auto client = serve::ServeClient::Connect(opt.socket_path, copt);
  if (!client.ok()) {
    std::cerr << "connect failed: " << client.status().ToString() << "\n";
    return 1;
  }
  auto report = serve::RunServeBatchF128(*client, opt.psi, opt.tenant,
                                         opt.instances, opt.seed);
  if (!report.ok()) {
    std::cerr << "prove failed: " << report.status().ToString() << "\n";
    return 1;
  }
  std::printf("psi                %s\n", opt.psi.c_str());
  std::printf("instances          %zu\n", report->instances);
  std::printf("accepted           %zu\n", report->accepted);
  std::printf("hello              %.6f s\n", report->hello_seconds);
  std::printf("prove              %.6f s\n", report->prove_seconds);
  std::printf("resource retries   %llu\n",
              static_cast<unsigned long long>(report->resource_retries));
  return report->accepted == report->instances ? 0 : 2;
}

int RunStats(const Options& opt) {
  using namespace zaatar;
  auto client = serve::ServeClient::Connect(opt.socket_path, {});
  if (!client.ok()) {
    std::cerr << "connect failed: " << client.status().ToString() << "\n";
    return 1;
  }
  auto stats = client->Stats();
  if (!stats.ok()) {
    std::cerr << "stats failed: " << stats.status().ToString() << "\n";
    return 1;
  }
  std::fputs(stats->c_str(), stdout);
  return 0;
}

int RunShutdown(const Options& opt) {
  using namespace zaatar;
  auto client = serve::ServeClient::Connect(opt.socket_path, {});
  if (!client.ok()) {
    std::cerr << "connect failed: " << client.status().ToString() << "\n";
    return 1;
  }
  Status s = client->Shutdown();
  if (!s.ok()) {
    std::cerr << "shutdown failed: " << s.ToString() << "\n";
    return 1;
  }
  std::printf("daemon acknowledged shutdown\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    Usage(argv[0]);
    return 1;
  }
  try {
    if (opt.mode == "serve") return RunServe(opt);
    if (opt.mode == "prove") return RunProve(opt);
    if (opt.mode == "stats") return RunStats(opt);
    return RunShutdown(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
