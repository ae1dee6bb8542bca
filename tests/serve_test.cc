// zaatar-serve daemon tests: the include-graph trust boundary for the
// client half, envelope/registry codecs, the amortization cache
// (single-build latch, LRU + epoch eviction, failure retry), and the daemon
// end to end over AF_UNIX — two clients amortizing one setup, typed
// saturation shedding, admission control, handshake and idle deadlines, a
// client that never reads, hostile frames, and shutdown by message and by
// Stop() with connections blocked.

// The client header comes FIRST so the guards below see exactly what
// prover-side serve code pulls in.
#include "src/serve/client.h"

#include "src/serve/app_registry.h"
#include "src/serve/messages.h"

// Prover-side serve code must compile without the verifier's secret
// machinery — same boundary protocol_isolation_test.cc pins for the
// session layer.
#ifdef SRC_ARGUMENT_ARGUMENT_H_
#error "serve client headers leak src/argument/argument.h"
#endif
#ifdef SRC_PROTOCOL_VERIFIER_SESSION_H_
#error "serve client headers leak verifier_session.h"
#endif

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <linux/sockios.h>
#include <sys/ioctl.h>
#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/pcp/params.h"
#include "src/serve/amortization_cache.h"
#include "src/serve/psi_material.h"
#include "src/serve/server.h"

namespace zaatar {
namespace {

using Millis = std::chrono::milliseconds;

std::string TestSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/zaatar_serve_test." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// ----- registry + codecs -----

TEST(AppRegistryTest, ParsePsi) {
  std::string name;
  size_t size = 0;
  ASSERT_TRUE(serve::ParsePsi("lcs/8", &name, &size).ok());
  EXPECT_EQ(name, "lcs");
  EXPECT_EQ(size, 8u);
  EXPECT_FALSE(serve::ParsePsi("lcs", &name, &size).ok());
  EXPECT_FALSE(serve::ParsePsi("/8", &name, &size).ok());
  EXPECT_FALSE(serve::ParsePsi("lcs/", &name, &size).ok());
  EXPECT_FALSE(serve::ParsePsi("lcs/abc", &name, &size).ok());
  EXPECT_FALSE(serve::ParsePsi("lcs/0", &name, &size).ok());
  EXPECT_FALSE(serve::ParsePsi("lcs/65", &name, &size).ok());
  EXPECT_TRUE(serve::MakeRegisteredAppF128("mat_mul/2").ok());
  EXPECT_FALSE(serve::MakeRegisteredAppF128("nonsense/2").ok());
}

TEST(ServeMessagesTest, EnvelopeRoundTrip) {
  serve::HelloMessage hello;
  hello.field_tag = serve::kFieldTagF128;
  hello.psi = "lcs/4";
  hello.tenant = "t1";
  auto frame = serve::EncodeEnvelope(serve::MessageType::kHello,
                                     hello.EncodePayload());
  auto env = serve::DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->type, serve::MessageType::kHello);
  auto decoded = serve::HelloMessage::DecodePayload(env->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->field_tag, serve::kFieldTagF128);
  EXPECT_EQ(decoded->psi, "lcs/4");
  EXPECT_EQ(decoded->tenant, "t1");
}

TEST(ServeMessagesTest, ErrorFrameCarriesTypedStatus) {
  auto frame = serve::EncodeErrorFrame(ResourceExhaustedError("queue full"));
  auto env = serve::DecodeEnvelope(frame);
  ASSERT_TRUE(env.ok());
  ASSERT_EQ(env->type, serve::MessageType::kError);
  auto err = serve::ErrorMessage::DecodePayload(env->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->ToStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(err->ToStatus().message(), "queue full");
}

TEST(ServeMessagesTest, HostileFramesRejected) {
  EXPECT_FALSE(serve::DecodeEnvelope({}).ok());
  EXPECT_FALSE(serve::DecodeEnvelope({0x00}).ok());
  EXPECT_FALSE(serve::DecodeEnvelope({0xFF, 0x01}).ok());
  // A hello whose string length prefix overruns the payload dies in
  // GetLength, before any allocation.
  std::vector<uint8_t> bad = {0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(serve::HelloMessage::DecodePayload(bad).ok());
}

// ----- amortization cache -----

class StubMaterial final : public serve::PsiMaterial {
 public:
  explicit StubMaterial(std::vector<uint8_t> frame, size_t mem = 100)
      : frame_(std::move(frame)), mem_(mem) {}
  const std::vector<uint8_t>& setup_frame() const override { return frame_; }
  std::unique_ptr<serve::BatchVerifier> NewBatch() const override {
    return nullptr;  // cache tests never mint batches
  }
  size_t memory_bytes() const override { return mem_; }
  double build_seconds() const override { return 0.001; }

 private:
  std::vector<uint8_t> frame_;
  size_t mem_;
};

TEST(AmortizationCacheTest, MissBuildsOnceThenHits) {
  std::atomic<int> builds{0};
  serve::AmortizationCache cache(
      {.max_entries = 4, .seed = 1},
      [&](const std::string& psi, uint8_t, uint64_t)
          -> StatusOr<std::shared_ptr<serve::PsiMaterial>> {
        builds++;
        return std::shared_ptr<serve::PsiMaterial>(
            std::make_shared<StubMaterial>(
                std::vector<uint8_t>(psi.begin(), psi.end())));
      });
  auto a = cache.GetOrBuild("lcs/4", 0);
  ASSERT_TRUE(a.ok());
  auto b = cache.GetOrBuild("lcs/4", 0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->get(), b->get());  // the SAME shared material
  EXPECT_EQ(builds.load(), 1);
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.memory_bytes, 100u);
}

TEST(AmortizationCacheTest, ConcurrentRequestsBuildExactlyOnce) {
  std::atomic<int> builds{0};
  serve::AmortizationCache cache(
      {.max_entries = 4, .seed = 1},
      [&](const std::string&, uint8_t, uint64_t)
          -> StatusOr<std::shared_ptr<serve::PsiMaterial>> {
        builds++;
        std::this_thread::sleep_for(Millis(50));  // a "multi-second" build
        return std::shared_ptr<serve::PsiMaterial>(
            std::make_shared<StubMaterial>(std::vector<uint8_t>{1}));
      });
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<serve::PsiMaterial>> got(4);
  for (int i = 0; i < 4; i++) {
    threads.emplace_back([&, i] {
      auto m = cache.GetOrBuild("apsp/2", 0);
      if (m.ok()) {
        got[i] = *m;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(builds.load(), 1) << "concurrent hellos must share one build";
  for (int i = 1; i < 4; i++) {
    EXPECT_EQ(got[i].get(), got[0].get());
  }
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 3u);
}

TEST(AmortizationCacheTest, LruEvictsColdestReadyEntry) {
  serve::AmortizationCache cache(
      {.max_entries = 2, .seed = 1},
      [&](const std::string&, uint8_t, uint64_t)
          -> StatusOr<std::shared_ptr<serve::PsiMaterial>> {
        return std::shared_ptr<serve::PsiMaterial>(
            std::make_shared<StubMaterial>(std::vector<uint8_t>{1}));
      });
  ASSERT_TRUE(cache.GetOrBuild("a/1", 0).ok());
  ASSERT_TRUE(cache.GetOrBuild("b/1", 0).ok());
  ASSERT_TRUE(cache.GetOrBuild("a/1", 0).ok());  // touch a: b is now coldest
  ASSERT_TRUE(cache.GetOrBuild("c/1", 0).ok());  // evicts b
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.memory_bytes, 200u);
  // b rebuilds (miss), a still hits.
  EXPECT_EQ(s.misses, 3u);
  ASSERT_TRUE(cache.GetOrBuild("b/1", 0).ok());
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(AmortizationCacheTest, EpochAdvanceRetiresEntriesAndReseeds) {
  std::vector<uint64_t> seeds;
  serve::AmortizationCache cache(
      {.max_entries = 4, .seed = 99},
      [&](const std::string&, uint8_t, uint64_t seed)
          -> StatusOr<std::shared_ptr<serve::PsiMaterial>> {
        seeds.push_back(seed);
        return std::shared_ptr<serve::PsiMaterial>(
            std::make_shared<StubMaterial>(std::vector<uint8_t>{1}));
      });
  ASSERT_TRUE(cache.GetOrBuild("a/1", 0).ok());
  cache.AdvanceEpoch();
  auto s = cache.stats();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.memory_bytes, 0u);
  // Same Ψ, new epoch: a fresh build with a DIFFERENT derived seed — the
  // operator's key-rotation knob actually rotates.
  ASSERT_TRUE(cache.GetOrBuild("a/1", 0).ok());
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_NE(seeds[0], seeds[1]);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(AmortizationCacheTest, FailedBuildIsNotCached) {
  std::atomic<int> builds{0};
  serve::AmortizationCache cache(
      {.max_entries = 4, .seed = 1},
      [&](const std::string&, uint8_t, uint64_t)
          -> StatusOr<std::shared_ptr<serve::PsiMaterial>> {
        if (builds++ == 0) {
          return MalformedError("transient build failure");
        }
        return std::shared_ptr<serve::PsiMaterial>(
            std::make_shared<StubMaterial>(std::vector<uint8_t>{1}));
      });
  auto first = cache.GetOrBuild("a/1", 0);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(cache.stats().build_failures, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  auto second = cache.GetOrBuild("a/1", 0);
  ASSERT_TRUE(second.ok()) << "failure must not be cached";
  EXPECT_EQ(builds.load(), 2);
}

// ----- daemon end to end (real crypto) -----

TEST(ServeDaemonTest, TwoClientsAmortizeOneSetup) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  opt.workers = 2;
  serve::Server server(opt, serve::MakePsiBuilder(PcpParams::Light()));
  ASSERT_TRUE(server.Start().ok());

  // tenant0 comes back on a third connection: its verdict counts must sum
  // over both of its connections.
  for (int c : {0, 1, 0}) {
    auto client = serve::ServeClient::Connect(opt.socket_path, {});
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto report = serve::RunServeBatchF128(
        *client, "lcs/3", "tenant" + std::to_string(c), /*instances=*/2,
        /*instance_seed=*/100 + c);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->instances, 2u);
    EXPECT_EQ(report->accepted, 2u);
  }

  auto cache = server.cache().stats();
  EXPECT_EQ(cache.misses, 1u) << "one build for three clients";
  EXPECT_EQ(cache.hits, 2u) << "the later hellos must hit";

  const std::string stats = server.StatsJson();
  EXPECT_NE(stats.find("\"zaatar.serve.stats.v1\""), std::string::npos);
  EXPECT_NE(stats.find("\"tenant0\": {\"proofs\": 4, \"accepted\": 4, "
                       "\"rejected\": 0"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"tenant1\": {\"proofs\": 2, \"accepted\": 2, "
                       "\"rejected\": 0"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"hits\": 2"), std::string::npos);
  server.Stop();
}

// The client proves ahead on a pool while its round trips stay one at a
// time; the daemon sees the same requests and decides them the same way.
TEST(ServeDaemonTest, PooledClientProvesAheadOfItsRoundTrips) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  opt.workers = 2;
  serve::Server server(opt, serve::MakePsiBuilder(PcpParams::Light()));
  ASSERT_TRUE(server.Start().ok());
  auto client = serve::ServeClient::Connect(opt.socket_path, {});
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto report = serve::RunServeBatchF128(*client, "lcs/3", "pooled",
                                         /*instances=*/5,
                                         /*instance_seed=*/200);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->instances, 5u);
  EXPECT_EQ(report->accepted, 5u);
  server.Stop();
}

TEST(ServeDaemonTest, UnknownPsiIsTypedConnectionError) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  serve::Server server(opt, serve::MakePsiBuilder(PcpParams::Light()));
  ASSERT_TRUE(server.Start().ok());
  serve::ServeClient::Options copt;
  copt.backoff.max_retries = 0;
  auto client = serve::ServeClient::Connect(opt.socket_path, copt);
  ASSERT_TRUE(client.ok());
  auto setup = client->Hello(serve::kFieldTagF128, "nonsense/2", "t");
  ASSERT_FALSE(setup.ok());
  EXPECT_EQ(setup.status().code(), StatusCode::kMalformed);
  server.Stop();
}

// ----- daemon behavior under stubs (no crypto: saturation, deadlines) -----

class SlowStubBatch final : public serve::BatchVerifier {
 public:
  explicit SlowStubBatch(Millis delay) : delay_(delay) {}
  StatusOr<std::vector<uint8_t>> HandleProve(
      const std::vector<uint8_t>& payload) override {
    std::this_thread::sleep_for(delay_);
    decided_++;
    accepted_++;
    return payload;  // echo
  }
  size_t instances_decided() const override { return decided_; }
  size_t instances_accepted() const override { return accepted_; }

 private:
  Millis delay_;
  size_t decided_ = 0;
  size_t accepted_ = 0;
};

class SlowStubMaterial final : public serve::PsiMaterial {
 public:
  explicit SlowStubMaterial(Millis prove_delay) : prove_delay_(prove_delay) {}
  const std::vector<uint8_t>& setup_frame() const override { return frame_; }
  std::unique_ptr<serve::BatchVerifier> NewBatch() const override {
    return std::make_unique<SlowStubBatch>(prove_delay_);
  }
  size_t memory_bytes() const override { return 64; }
  double build_seconds() const override { return 0; }

 private:
  std::vector<uint8_t> frame_ = {0xAB, 0xCD};
  Millis prove_delay_;
};

serve::AmortizationCache::Builder StubBuilder(Millis prove_delay) {
  return [prove_delay](const std::string&, uint8_t, uint64_t)
             -> StatusOr<std::shared_ptr<serve::PsiMaterial>> {
    return std::shared_ptr<serve::PsiMaterial>(
        std::make_shared<SlowStubMaterial>(prove_delay));
  };
}

TEST(ServeDaemonTest, SaturationShedsTypedAndConnectionSurvives) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  opt.workers = 1;
  opt.max_queue = 1;
  serve::Server server(opt, StubBuilder(/*prove_delay=*/Millis(300)));
  ASSERT_TRUE(server.Start().ok());

  serve::ServeClient::Options copt;
  copt.backoff.max_retries = 0;  // surface the typed rejection, don't retry
  std::vector<std::unique_ptr<serve::ServeClient>> clients;
  for (int i = 0; i < 3; i++) {
    auto c = serve::ServeClient::Connect(opt.socket_path, copt);
    ASSERT_TRUE(c.ok());
    clients.push_back(std::make_unique<serve::ServeClient>(std::move(*c)));
    ASSERT_TRUE(
        clients.back()->Hello(serve::kFieldTagF128, "stub/1", "t").ok());
  }
  // Client 0 occupies the single worker (300ms), client 1 fills the one
  // queue slot, client 2's frame is REFUSED typed — and the connection
  // stays open for a later retry.
  std::thread t0([&] { (void)clients[0]->Prove({1}); });
  std::this_thread::sleep_for(Millis(60));
  std::thread t1([&] { (void)clients[1]->Prove({2}); });
  std::this_thread::sleep_for(Millis(60));
  auto shed = clients[2]->Prove({3});
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  t0.join();
  t1.join();
  // The shed connection is still healthy: once capacity drains, the SAME
  // frame goes through (the server never saw the first attempt).
  auto retried = clients[2]->Prove({3});
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, std::vector<uint8_t>({3}));
  server.Stop();
}

TEST(ServeDaemonTest, AdmissionControlRejectsTyped) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  opt.max_connections = 1;
  serve::Server server(opt, StubBuilder(Millis(0)));
  ASSERT_TRUE(server.Start().ok());

  serve::ServeClient::Options copt;
  copt.backoff.max_retries = 0;
  auto first = serve::ServeClient::Connect(opt.socket_path, copt);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Hello(serve::kFieldTagF128, "stub/1", "t").ok());

  // The kernel accepts the second connection; the daemon refuses it at
  // admission with a proactive typed frame, then closes. Read it raw —
  // sending first would race the close.
  auto fd = protocol::ConnectUnix(opt.socket_path);
  ASSERT_TRUE(fd.ok());
  protocol::TransportOptions topt;
  topt.recv_deadline = Millis(3000);
  protocol::PipeTransport refused(*fd, topt);
  auto notice = refused.Receive();
  ASSERT_TRUE(notice.ok()) << notice.status().ToString();
  auto env = serve::DecodeEnvelope(*notice);
  ASSERT_TRUE(env.ok());
  ASSERT_EQ(env->type, serve::MessageType::kError);
  auto err = serve::ErrorMessage::DecodePayload(env->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->ToStatus().code(), StatusCode::kResourceExhausted);
  server.Stop();
}

TEST(ServeDaemonTest, HandshakeDeadlineClosesStalledConnection) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  opt.handshake_deadline = Millis(80);
  serve::Server server(opt, StubBuilder(Millis(0)));
  ASSERT_TRUE(server.Start().ok());

  auto fd = protocol::ConnectUnix(opt.socket_path);
  ASSERT_TRUE(fd.ok());
  protocol::TransportOptions topt;
  topt.recv_deadline = Millis(3000);
  protocol::PipeTransport stalled(*fd, topt);
  // Send nothing: the sweep fires, delivering a best-effort typed notice
  // and then EOF.
  auto notice = stalled.Receive();
  ASSERT_TRUE(notice.ok()) << notice.status().ToString();
  auto env = serve::DecodeEnvelope(*notice);
  ASSERT_TRUE(env.ok());
  ASSERT_EQ(env->type, serve::MessageType::kError);
  auto err = serve::ErrorMessage::DecodePayload(env->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->ToStatus().code(), StatusCode::kDeadlineExceeded);
  auto eof = stalled.Receive();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kTruncated);
  server.Stop();
}

TEST(ServeDaemonTest, IdleDeadlineClosesQuietConnectionAfterHello) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  opt.idle_deadline = Millis(80);
  serve::Server server(opt, StubBuilder(Millis(0)));
  ASSERT_TRUE(server.Start().ok());

  auto fd = protocol::ConnectUnix(opt.socket_path);
  ASSERT_TRUE(fd.ok());
  protocol::TransportOptions topt;
  topt.recv_deadline = Millis(3000);
  protocol::PipeTransport link(*fd, topt);
  serve::HelloMessage hello;
  hello.field_tag = serve::kFieldTagF128;
  hello.psi = "stub/1";
  ASSERT_TRUE(link.Send(serve::EncodeEnvelope(serve::MessageType::kHello,
                                              hello.EncodePayload()))
                  .ok());
  auto setup = link.Receive();
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  auto setup_env = serve::DecodeEnvelope(*setup);
  ASSERT_TRUE(setup_env.ok());
  EXPECT_EQ(setup_env->type, serve::MessageType::kSetup);
  // Quiet after the handshake: the idle deadline sends a typed notice and
  // closes.
  auto notice = link.Receive();
  ASSERT_TRUE(notice.ok()) << notice.status().ToString();
  auto env = serve::DecodeEnvelope(*notice);
  ASSERT_TRUE(env.ok());
  ASSERT_EQ(env->type, serve::MessageType::kError);
  auto err = serve::ErrorMessage::DecodePayload(env->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->ToStatus().code(), StatusCode::kDeadlineExceeded);
  auto eof = link.Receive();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kTruncated);
  server.Stop();
}

// A client that sends requests and never reads their replies must stall
// against the kernel socket buffers, not make the daemon queue replies, and
// other clients must still be served.
TEST(ServeDaemonTest, ClientThatNeverReadsIsStalledNotQueued) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  serve::Server server(opt, StubBuilder(Millis(0)));
  ASSERT_TRUE(server.Start().ok());

  auto fd = protocol::ConnectUnix(opt.socket_path);
  ASSERT_TRUE(fd.ok());
  const int flood = *fd;
  ASSERT_EQ(::fcntl(flood, F_SETFL, ::fcntl(flood, F_GETFL, 0) | O_NONBLOCK),
            0);
  // Four STATS frames per send: [u32 length 1][kStatsRequest].
  const std::vector<uint8_t> frame =
      serve::EncodeEnvelope(serve::MessageType::kStatsRequest);
  ASSERT_EQ(frame.size(), 1u);
  std::vector<uint8_t> chunk;
  for (int i = 0; i < 4; i++) {
    chunk.insert(chunk.end(), {1, 0, 0, 0, frame[0]});
  }
  // Each send waits until the daemon has taken it (the socket's send queue,
  // SIOCOUTQ, is empty) before the next, so a daemon that keeps reading
  // takes all of them a few frames at a time. A daemon whose replies are
  // stuck stops taking them.
  constexpr size_t kFrames = 20000;
  size_t taken = 0;
  bool stalled = false;
  while (taken < kFrames && !stalled) {
    const ssize_t w =
        ::send(flood, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    ASSERT_EQ(w, static_cast<ssize_t>(chunk.size()))
        << "send failed: " << std::strerror(errno);
    const auto give_up = std::chrono::steady_clock::now() + Millis(1000);
    int queued = 0;
    while (::ioctl(flood, SIOCOUTQ, &queued) == 0 && queued > 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    stalled = queued > 0;
    if (!stalled) {
      taken += 4;
    }
  }
  EXPECT_TRUE(stalled) << "all " << taken << " requests were taken";
  EXPECT_LT(taken, kFrames);

  serve::ServeClient::Options copt;
  copt.transport.recv_deadline = Millis(3000);
  copt.transport.send_deadline = Millis(3000);
  auto other = serve::ServeClient::Connect(opt.socket_path, copt);
  ASSERT_TRUE(other.ok());
  auto stats = other->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"zaatar.serve.stats.v1\""), std::string::npos);
  ::close(flood);
  server.Stop();
}

TEST(ServeDaemonTest, StopReturnsWhileConnectionsAreBlocked) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  opt.workers = 1;
  serve::Server server(opt, StubBuilder(/*prove_delay=*/Millis(300)));
  ASSERT_TRUE(server.Start().ok());

  serve::ServeClient::Options copt;
  copt.backoff.max_retries = 0;
  // Idle after its hello.
  auto idle = serve::ServeClient::Connect(opt.socket_path, copt);
  ASSERT_TRUE(idle.ok());
  ASSERT_TRUE(idle->Hello(serve::kFieldTagF128, "stub/1", "idle").ok());
  // Mid-frame: a length prefix that promises 100 bytes, and nothing else.
  auto partial = protocol::ConnectUnix(opt.socket_path);
  ASSERT_TRUE(partial.ok());
  const uint8_t prefix[4] = {100, 0, 0, 0};
  ASSERT_EQ(::send(*partial, prefix, sizeof(prefix), MSG_NOSIGNAL), 4);
  // Running a 300 ms verification.
  auto busy = serve::ServeClient::Connect(opt.socket_path, copt);
  ASSERT_TRUE(busy.ok());
  ASSERT_TRUE(busy->Hello(serve::kFieldTagF128, "stub/1", "busy").ok());
  std::thread prove([&] { (void)busy->Prove({1}); });
  std::this_thread::sleep_for(Millis(100));

  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, Millis(2000));
  prove.join();
  auto after = idle->Stats();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kTruncated)
      << after.status().ToString();
  ::close(*partial);
}

TEST(ServeDaemonTest, HostileFrameGetsTypedErrorThenClose) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  serve::Server server(opt, StubBuilder(Millis(0)));
  ASSERT_TRUE(server.Start().ok());

  auto fd = protocol::ConnectUnix(opt.socket_path);
  ASSERT_TRUE(fd.ok());
  protocol::TransportOptions topt;
  topt.recv_deadline = Millis(3000);
  protocol::PipeTransport link(*fd, topt);
  ASSERT_TRUE(link.Send({0xFF}).ok());  // unknown message type
  auto reply = link.Receive();
  ASSERT_TRUE(reply.ok());
  auto env = serve::DecodeEnvelope(*reply);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->type, serve::MessageType::kError);
  auto eof = link.Receive();
  EXPECT_FALSE(eof.ok());
  server.Stop();
}

TEST(ServeDaemonTest, ShutdownMessageStopsDaemon) {
  serve::ServerOptions opt;
  opt.socket_path = TestSocketPath();
  serve::Server server(opt, StubBuilder(Millis(0)));
  ASSERT_TRUE(server.Start().ok());
  auto client = serve::ServeClient::Connect(opt.socket_path, {});
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Shutdown().ok());
  for (int i = 0; i < 100 && !server.stop_requested(); i++) {
    std::this_thread::sleep_for(Millis(10));
  }
  EXPECT_TRUE(server.stop_requested());
  server.Stop();
}

}  // namespace
}  // namespace zaatar
