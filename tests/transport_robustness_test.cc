// Failure-hardening of the transport and session layers (DESIGN.md §13):
// the deadline matrix ({Send, Receive} x {expired, not-expired,
// peer-dies-mid-frame} on PipeTransport) with exact Status codes, the
// prefix-then-silence regression, concurrent Close() vs a blocked Receive()
// on another thread (the TSan target for the fd-ownership discipline), the
// backoff schedule, and the RetryingSession retryable-vs-final
// classification.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/constraints/qap.h"
#include "src/constraints/transform.h"
#include "src/field/fields.h"
#include "src/pcp/zaatar_pcp.h"
#include "src/protocol/session.h"
#include "tests/test_util.h"

namespace zaatar {
namespace {

using F = F128;
using Adapter = ZaatarAdapter<F>;
using protocol::BackoffPolicy;
using protocol::BackoffSchedule;
using protocol::IsTransportFailure;
using protocol::PipeTransport;
using protocol::Transport;
using protocol::TransportOptions;
using protocol::TransportPair;
using protocol::VerifierSession;

using Millis = std::chrono::milliseconds;

Millis ElapsedSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<Millis>(std::chrono::steady_clock::now() -
                                            start);
}

TransportOptions RecvDeadline(int ms) {
  TransportOptions o;
  o.recv_deadline = Millis(ms);
  return o;
}

TransportOptions SendDeadline(int ms) {
  TransportOptions o;
  o.send_deadline = Millis(ms);
  return o;
}

// ----- deadline matrix: Receive -----

TEST(DeadlineMatrixTest, PipeReceiveExpires) {
  auto pair = PipeTransport::CreatePair(RecvDeadline(60));
  ASSERT_TRUE(pair.ok());
  auto start = std::chrono::steady_clock::now();
  auto got = pair->left->Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ElapsedSince(start).count(), 5000);
}

TEST(DeadlineMatrixTest, PipeReceiveWithinDeadline) {
  auto pair = PipeTransport::CreatePair(RecvDeadline(2000));
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(pair->right->Send({9, 8, 7}).ok());
  auto got = pair->left->Receive();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, (std::vector<uint8_t>{9, 8, 7}));
}

TEST(DeadlineMatrixTest, PipeReceivePeerDiesMidFrame) {
  // The peer promises an 8-byte frame, delivers half, and dies: the break in
  // the byte stream must surface as kTruncated ("closed mid-frame"), not a
  // hang and not a deadline.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  PipeTransport receiver(fds[0], RecvDeadline(5000));
  const uint8_t partial[] = {8, 0, 0, 0, 0xAA, 0xBB, 0xCC, 0xDD};
  ASSERT_EQ(::write(fds[1], partial, sizeof(partial)),
            static_cast<ssize_t>(sizeof(partial)));
  ::close(fds[1]);
  auto got = receiver.Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTruncated);
}

// ----- deadline matrix: Send -----

TEST(DeadlineMatrixTest, PipeSendExpires) {
  // A frame much larger than the kernel socket buffer with no reader: the
  // write blocks at the buffer boundary until the send deadline fires.
  auto pair = PipeTransport::CreatePair(SendDeadline(100));
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> big(4u << 20, 0x5A);
  auto start = std::chrono::steady_clock::now();
  Status sent = pair->left->Send(big);
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ElapsedSince(start).count(), 5000);
}

TEST(DeadlineMatrixTest, PipeSendWithinDeadline) {
  auto pair = PipeTransport::CreatePair(SendDeadline(10000));
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> big(4u << 20, 0x5A);
  std::thread reader([&] {
    auto got = pair->right->Receive();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), big.size());
  });
  ASSERT_TRUE(pair->left->Send(big).ok());
  reader.join();
}

TEST(DeadlineMatrixTest, PipeSendPeerDiesMidFrame) {
  // The peer shuts down while a large frame is mid-flight: EPIPE surfaces as
  // kTruncated.
  auto pair = PipeTransport::CreatePair(SendDeadline(10000));
  ASSERT_TRUE(pair.ok());
  std::vector<uint8_t> big(4u << 20, 0x5A);
  std::thread killer([&] {
    std::this_thread::sleep_for(Millis(20));
    pair->right->Close();
  });
  Status sent = pair->left->Send(big);
  killer.join();
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.code(), StatusCode::kTruncated);
}

// ----- prefix-then-silence regression -----

// A peer that sends only the 4-byte length prefix and then goes silent must
// cost one bounded allocation and a recv deadline — never an unbounded wait
// and never an eager out-of-memory allocation.
TEST(TransportHardeningTest, PrefixThenSilenceHitsRecvDeadline) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  PipeTransport receiver(fds[0], RecvDeadline(120));
  const uint8_t prefix[] = {0, 16, 0, 0};  // claims 4096 bytes, sends none
  ASSERT_EQ(::write(fds[1], prefix, 4), 4);
  auto start = std::chrono::steady_clock::now();
  auto got = receiver.Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ElapsedSince(start).count(), 5000);
  ::close(fds[1]);
}

TEST(TransportHardeningTest, HostileHugePrefixThenSilenceStaysBounded) {
  // The prefix claims the full 1 GiB frame cap; the receiver must reserve at
  // most kMaxEagerReserveBytes before the deadline fires.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  PipeTransport receiver(fds[0], RecvDeadline(120));
  const uint64_t claim = protocol::kMaxFrameBytes;
  uint8_t prefix[4];
  for (int i = 0; i < 4; i++) {
    prefix[i] = static_cast<uint8_t>(claim >> (8 * i));
  }
  ASSERT_EQ(::write(fds[1], prefix, 4), 4);
  auto got = receiver.Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  ::close(fds[1]);
}

TEST(TransportHardeningTest, OverCapPrefixRejectedBeforeAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  PipeTransport receiver(fds[0], RecvDeadline(5000));
  const uint8_t prefix[] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB claim
  ASSERT_EQ(::write(fds[1], prefix, 4), 4);
  auto got = receiver.Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kLengthOverflow);
  ::close(fds[1]);
}

// ----- concurrent Close() vs blocked Receive() (TSan regression) -----

// Close() from another thread while a Receive() is blocked on the same
// PipeTransport object. The shutdown(2)-then-destructor-close(2) discipline
// means the reader always operates on a valid fd; under TSan this test also
// proves the fd handoff is race-free.
TEST(TransportHardeningTest, CloseFromAnotherThreadUnblocksReceive) {
  for (int round = 0; round < 8; round++) {
    auto pair = PipeTransport::CreatePair();
    ASSERT_TRUE(pair.ok());
    Status observed = Status::Ok();
    std::thread receiver([&] {
      auto got = pair->left->Receive();
      observed = got.status();
    });
    std::this_thread::sleep_for(Millis(round % 3 == 0 ? 0 : 10));
    pair->left->Close();
    receiver.join();
    EXPECT_FALSE(observed.ok());
    EXPECT_EQ(observed.code(), StatusCode::kTruncated) << observed.ToString();
  }
}

// ----- backoff schedule -----

TEST(BackoffScheduleTest, DeterministicGivenSeed) {
  BackoffPolicy policy;
  policy.initial = Millis(10);
  policy.multiplier = 2.0;
  policy.cap = Millis(200);
  policy.jitter_seed = 42;
  BackoffSchedule a(policy);
  BackoffSchedule b(policy);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(a.NextDelay().count(), b.NextDelay().count()) << "step " << i;
  }
  // A different seed decorrelates (overwhelmingly likely to differ in ten
  // draws of >=6 bits of jitter each).
  policy.jitter_seed = 43;
  BackoffSchedule c(policy);
  BackoffSchedule d(BackoffPolicy{policy.max_retries, policy.initial,
                                  policy.multiplier, policy.cap, 42});
  bool any_differ = false;
  for (int i = 0; i < 10; i++) {
    any_differ |= c.NextDelay().count() != d.NextDelay().count();
  }
  EXPECT_TRUE(any_differ);
}

TEST(BackoffScheduleTest, PinnedScheduleSeed42) {
  // The exact delays for a fixed policy+seed, hard-coded: any change to the
  // jitter arithmetic (range, rounding, draw order) shows up here as a
  // value diff, not a hidden distribution shift.
  BackoffPolicy policy;
  policy.initial = Millis(10);
  policy.multiplier = 2.0;
  policy.cap = Millis(200);
  policy.jitter_seed = 42;
  BackoffSchedule schedule(policy);
  const int64_t kExpected[] = {9, 18, 22, 58, 92, 136, 187, 133};
  for (size_t i = 0; i < std::size(kExpected); i++) {
    EXPECT_EQ(schedule.NextDelay().count(), kExpected[i]) << "step " << i;
  }
}

TEST(BackoffScheduleTest, JitterIsHalfOpenNeverDrawsBase) {
  // U[0.5, 1.0) is half-open: with base pinned at an odd 3 the only legal
  // draws are {1, 2} — the documented range's floored image. The old
  // inclusive-and-biased-high jitter drew {2, 3}, overshooting the base.
  BackoffPolicy policy;
  policy.initial = Millis(3);
  policy.multiplier = 1.0;
  policy.cap = Millis(3);
  policy.jitter_seed = 9;
  BackoffSchedule schedule(policy);
  bool saw_one = false;
  bool saw_two = false;
  for (int i = 0; i < 64; i++) {
    const int64_t d = schedule.NextDelay().count();
    EXPECT_GE(d, 1) << "step " << i;
    EXPECT_LE(d, 2) << "step " << i;
    saw_one |= d == 1;
    saw_two |= d == 2;
  }
  EXPECT_TRUE(saw_one);
  EXPECT_TRUE(saw_two);
}

// ----- CallDeadline budget semantics -----

TEST(CallDeadlineTest, ZeroBudgetExpiresImmediatelyWithOnePoll) {
  // Regression: a zero-millisecond budget used to mean "infinite". It now
  // means "already expired" — Expired() from construction, and the poll
  // timeout is 0, i.e. the caller gets exactly one non-blocking readiness
  // probe before the typed kDeadlineExceeded.
  protocol::internal::CallDeadline deadline(Millis(0));
  EXPECT_FALSE(deadline.infinite());
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.PollTimeoutMs(), 0);
  EXPECT_EQ(deadline.Remaining().count(), 0);
}

TEST(CallDeadlineTest, NegativeBudgetIsInfinite) {
  protocol::internal::CallDeadline deadline(Millis(-1));
  EXPECT_TRUE(deadline.infinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_EQ(deadline.PollTimeoutMs(), -1);
}

TEST(CallDeadlineTest, OptionBudgetKeepsWaitForeverConvention) {
  // TransportOptions' "0 = wait forever" is translated at the call sites,
  // so the options-layer contract is unchanged by the CallDeadline fix.
  EXPECT_EQ(protocol::internal::OptionBudget(Millis(0)).count(), -1);
  EXPECT_EQ(protocol::internal::OptionBudget(Millis(5)).count(), 5);
  EXPECT_EQ(protocol::internal::OptionBudget(Millis(-7)).count(), -7);
}

TEST(BackoffScheduleTest, GrowsExponentiallyAndRespectsCap) {
  BackoffPolicy policy;
  policy.initial = Millis(10);
  policy.multiplier = 2.0;
  policy.cap = Millis(100);
  policy.jitter_seed = 7;
  BackoffSchedule schedule(policy);
  int64_t expected_base = 10;
  for (int i = 0; i < 8; i++) {
    int64_t delay = schedule.NextDelay().count();
    // Jitter keeps each delay in [base/2, base]; base is capped.
    EXPECT_GE(delay, expected_base / 2) << "step " << i;
    EXPECT_LE(delay, expected_base) << "step " << i;
    EXPECT_LE(delay, policy.cap.count()) << "step " << i;
    EXPECT_GT(delay, 0) << "step " << i;
    expected_base = std::min<int64_t>(expected_base * 2, policy.cap.count());
  }
  EXPECT_EQ(schedule.attempts(), 8u);
}

// ----- RetryingSession classification -----

// A tiny honest Zaatar batch, mirroring protocol_test's fixture.
struct RetryFixture {
  Prg sys_prg;
  RandomSystem<F> rs;
  ZaatarTransform<F> transform;
  Qap<F> qap;
  ZaatarProof<F> proof;
  Prg setup_prg;
  VerifierSession<F, Adapter> verifier;

  explicit RetryFixture(uint64_t seed)
      : sys_prg(seed),
        rs(MakeRandomSatisfiedSystem<F>(sys_prg, 8, 2, 2, 14)),
        transform(GingerToZaatar(rs.system)),
        qap(transform.r1cs),
        proof(BuildZaatarProof(qap, transform.ExtendAssignment(rs.assignment))),
        setup_prg(seed + 1),
        verifier(ZaatarPcp<F>::GenerateQueries(qap, PcpParams::Light(),
                                               setup_prg),
                 setup_prg) {}

  std::array<const std::vector<F>*, 2> Vectors() const {
    return {&proof.z, &proof.h};
  }
};

// Runs an honest single-instance prover session over `link`; exits quietly
// on any channel failure.
void RunHonestProver(Transport* link, const RetryFixture& f, uint32_t resume) {
  protocol::ProverSession<F> session;
  if (!session.StartAtInstance(resume).ok()) return;
  if (!session.ReceiveSetup(*link).ok()) return;
  (void)session.ProveBatch(*link, resume + 1, /*threads=*/1, [&f](uint32_t) {
    return protocol::ProverSession<F>::OwnedVectors{f.proof.z, f.proof.h};
  });
}

TEST(RetryingSessionTest, ReconnectsAfterDeadPeerAndAccepts) {
  RetryFixture f(900);
  std::vector<std::unique_ptr<Transport>> peer_links;
  std::vector<std::thread> peers;
  int connections = 0;
  protocol::TransportFactory factory =
      [&](uint32_t resume) -> StatusOr<std::unique_ptr<Transport>> {
    ZAATAR_ASSIGN_OR_RETURN(TransportPair pair,
                            PipeTransport::CreatePair(RecvDeadline(2000)));
    if (connections++ == 0) {
      pair.right->Close();  // connection 0: the peer is already dead
    } else {
      peer_links.push_back(std::move(pair.right));
      peers.emplace_back(RunHonestProver, peer_links.back().get(), std::cref(f),
                         resume);
    }
    return std::move(pair.left);
  };

  BackoffPolicy policy;
  policy.max_retries = 3;
  policy.jitter_seed = 5;
  std::vector<Millis> slept;
  protocol::RetryingSession<F, Adapter> session(
      std::move(f.verifier), factory, policy,
      [&](Millis d) { slept.push_back(d); });

  auto result = session.DecideNext(f.rs.BoundValues());
  for (auto& t : peers) t.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->accepted()) << result->detail;
  EXPECT_EQ(session.total_retries(), 1u);
  EXPECT_EQ(session.connections(), 2u);
  EXPECT_EQ(slept.size(), 1u);
}

TEST(RetryingSessionTest, ExhaustedBudgetReturnsTransportFailure) {
  RetryFixture f(901);
  int factory_calls = 0;
  protocol::TransportFactory factory =
      [&](uint32_t) -> StatusOr<std::unique_ptr<Transport>> {
    factory_calls++;
    return TruncatedError("no route to prover");
  };
  BackoffPolicy policy;
  policy.max_retries = 2;
  policy.jitter_seed = 5;
  std::vector<Millis> slept;
  protocol::RetryingSession<F, Adapter> session(
      std::move(f.verifier), factory, policy,
      [&](Millis d) { slept.push_back(d); });

  auto result = session.DecideNext(f.rs.BoundValues());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(IsTransportFailure(result.status()));
  EXPECT_EQ(factory_calls, 3);  // initial + 2 retries
  EXPECT_EQ(session.total_retries(), 2u);
  EXPECT_EQ(slept.size(), 2u);
}

// A socketpair(2) that fails is a channel failure: the factory's status
// costs one retry, and the next connection decides the instance.
TEST(RetryingSessionTest, SocketpairFailureIsRetried) {
  // No descriptors can be made while this process's soft RLIMIT_NOFILE is 0.
  auto create_without_descriptors = [] {
    struct rlimit saved {};
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    struct rlimit none = saved;
    none.rlim_cur = 0;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &none), 0);
    auto pair = PipeTransport::CreatePair(RecvDeadline(2000));
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    return pair;
  };
  auto failed = create_without_descriptors();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(IsTransportFailure(failed.status()))
      << failed.status().ToString();

  RetryFixture f(905);
  std::vector<std::unique_ptr<Transport>> peer_links;
  std::vector<std::thread> peers;
  int factory_calls = 0;
  protocol::TransportFactory factory =
      [&](uint32_t resume) -> StatusOr<std::unique_ptr<Transport>> {
    ZAATAR_ASSIGN_OR_RETURN(
        TransportPair pair,
        factory_calls++ == 0 ? create_without_descriptors()
                             : PipeTransport::CreatePair(RecvDeadline(2000)));
    peer_links.push_back(std::move(pair.right));
    peers.emplace_back(RunHonestProver, peer_links.back().get(), std::cref(f),
                       resume);
    return std::move(pair.left);
  };
  BackoffPolicy policy;
  policy.max_retries = 3;
  policy.jitter_seed = 5;
  protocol::RetryingSession<F, Adapter> session(
      std::move(f.verifier), factory, policy, [](Millis) {});

  auto result = session.DecideNext(f.rs.BoundValues());
  for (auto& t : peers) t.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->accepted()) << result->detail;
  EXPECT_EQ(factory_calls, 2);
  EXPECT_EQ(session.total_retries(), 1u);
  EXPECT_EQ(session.connections(), 1u);
}

TEST(RetryingSessionTest, ProtocolRejectIsFinalNeverRetried) {
  // A garbled proof frame is a protocol outcome (kMalformed verdict), not a
  // transport failure: it must be decided exactly once, with zero retries —
  // otherwise a malicious prover could farm fresh attempts at an instance.
  RetryFixture f(902);
  int connections = 0;
  std::vector<std::unique_ptr<Transport>> peer_links;
  std::vector<std::thread> peers;
  protocol::TransportFactory factory =
      [&](uint32_t) -> StatusOr<std::unique_ptr<Transport>> {
    connections++;
    ZAATAR_ASSIGN_OR_RETURN(TransportPair pair,
                            PipeTransport::CreatePair(RecvDeadline(2000)));
    peer_links.push_back(std::move(pair.right));
    Transport* link = peer_links.back().get();
    peers.emplace_back([link] {
      (void)link->Receive();  // drain the setup
      (void)link->Send({0xBA, 0xAD, 0xF0, 0x0D});
      (void)link->Receive();  // drain the verdict
    });
    return std::move(pair.left);
  };
  BackoffPolicy policy;
  policy.max_retries = 3;
  policy.jitter_seed = 5;
  protocol::RetryingSession<F, Adapter> session(
      std::move(f.verifier), factory, policy, [](Millis) {});

  auto result = session.DecideNext(f.rs.BoundValues());
  for (auto& t : peers) t.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->verdict, VerifyVerdict::kMalformed);
  EXPECT_EQ(connections, 1);
  EXPECT_EQ(session.total_retries(), 0u);
}

TEST(RetryingSessionTest, SkipInstanceKeepsCursorAligned) {
  // After a skip, the next proof the session accepts is for the instance
  // AFTER the skipped one — the degradation path cannot desync the batch.
  RetryFixture f(903);
  auto setup_bytes = f.verifier.EmitSetup();
  ASSERT_TRUE(setup_bytes.ok());
  auto skipped = f.verifier.SkipInstanceTransportFailed("recv deadline");
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped->verdict, VerifyVerdict::kTransportFailed);
  EXPECT_FALSE(skipped->accepted());
  ASSERT_EQ(f.verifier.results().size(), 1u);

  // An honest proof labeled instance 1 is accepted; labeled 0 it would be
  // stale (the slot was consumed by the skip).
  protocol::ProverSession<F> prover;
  ASSERT_TRUE(prover.StartAtInstance(1).ok());
  ASSERT_TRUE(prover.IngestSetup(*setup_bytes).ok());
  ASSERT_TRUE(prover.Commit(f.Vectors()).ok());
  auto proof_bytes = prover.Decommit();
  ASSERT_TRUE(proof_bytes.ok());
  auto decided = f.verifier.HandleProof(*proof_bytes, f.rs.BoundValues());
  ASSERT_TRUE(decided.ok());
  EXPECT_TRUE(decided->accepted()) << decided->detail;
}

// Decorator that forwards everything but fails the Nth Send with a
// transport-class error — the deterministic stand-in for "the verdict frame
// died on the wire after the proof was decided".
class SendFailTransport final : public Transport {
 public:
  SendFailTransport(std::unique_ptr<Transport> inner, int fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}

  Status Send(const std::vector<uint8_t>& frame) override {
    if (sends_++ == fail_at_) {
      return TruncatedError("injected send failure");
    }
    return inner_->Send(frame);
  }
  StatusOr<std::vector<uint8_t>> Receive() override {
    return inner_->Receive();
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Transport> inner_;
  int fail_at_;
  int sends_ = 0;
};

TEST(RetryingSessionTest, RecordedButUnsentVerdictStandsAndCursorAdvances) {
  // The verifier receives the proof, decides it, records the verdict — and
  // then the verdict frame fails to send. The decision is FINAL: DecideNext
  // must return the recorded verdict without re-deciding (a re-decision
  // would hand a malicious prover a second attempt at a decided instance),
  // and the next instance's reconnect must ask the replacement prover to
  // resume at instance 1, not replay instance 0.
  RetryFixture f(904);
  std::vector<std::unique_ptr<Transport>> peer_links;
  std::vector<std::thread> peers;
  std::vector<uint32_t> resume_points;
  protocol::TransportFactory factory =
      [&](uint32_t resume) -> StatusOr<std::unique_ptr<Transport>> {
    resume_points.push_back(resume);
    ZAATAR_ASSIGN_OR_RETURN(TransportPair pair,
                            PipeTransport::CreatePair(RecvDeadline(2000)));
    peer_links.push_back(std::move(pair.right));
    peers.emplace_back(RunHonestProver, peer_links.back().get(), std::cref(f),
                       resume);
    if (resume_points.size() == 1) {
      // Connection 0: send 0 is the setup, send 1 is the instance-0 verdict
      // — kill exactly that one.
      return std::unique_ptr<Transport>(std::make_unique<SendFailTransport>(
          std::move(pair.left), /*fail_at=*/1));
    }
    return std::move(pair.left);
  };

  BackoffPolicy policy;
  policy.max_retries = 3;
  policy.jitter_seed = 5;
  protocol::RetryingSession<F, Adapter> session(
      std::move(f.verifier), factory, policy, [](Millis) {});

  auto first = session.DecideNext(f.rs.BoundValues());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first->accepted()) << first->detail;
  // The verdict came from the record, not a retry: no backoff was consumed
  // and the failed connection was dropped without a replacement yet.
  EXPECT_EQ(session.total_retries(), 0u);
  EXPECT_EQ(session.connections(), 1u);
  EXPECT_FALSE(session.connected());
  ASSERT_EQ(session.session().results().size(), 1u);

  // Next instance: the lazy reconnect must hand the factory the cursor
  // AFTER the decided-but-unsent instance.
  auto second = session.DecideNext(f.rs.BoundValues());
  for (auto& t : peers) t.join();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->accepted()) << second->detail;
  ASSERT_EQ(resume_points.size(), 2u);
  EXPECT_EQ(resume_points[0], 0u);
  EXPECT_EQ(resume_points[1], 1u);
  EXPECT_EQ(session.session().results().size(), 2u);
  EXPECT_EQ(session.total_retries(), 0u);
}

TEST(RetryingSessionTest, TransportFailureClassifier) {
  EXPECT_TRUE(IsTransportFailure(TruncatedError("x")));
  EXPECT_TRUE(IsTransportFailure(DeadlineExceededError("x")));
  EXPECT_TRUE(IsTransportFailure(LengthOverflowError("x")));
  EXPECT_FALSE(IsTransportFailure(MalformedError("x")));
  EXPECT_FALSE(IsTransportFailure(PhaseViolationError("x")));
  EXPECT_FALSE(IsTransportFailure(Status::Ok()));
}

}  // namespace
}  // namespace zaatar
