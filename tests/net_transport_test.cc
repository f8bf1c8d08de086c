// The socket transport (src/net/): frame codec against every
// fragmentation the stream can produce, envelope round trips, the
// bounded at-most-once dedup cache, and live loopback RPC over
// Unix-domain and TCP sockets — including server restart between and
// during calls, reconnect backoff, retries attaching to a running
// execution, handlers slower than the call timeout, and the
// at-most-once-across-eviction regression — and the ServerService
// stack a concordd/concord_client pair runs, in one process.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/strings.h"
#include "net/address.h"
#include "net/frame.h"
#include "net/rpc_client.h"
#include "net/rpc_server.h"
#include "net/wire.h"
#include "rpc/dedup_cache.h"
#include "rpc/network.h"
#include "storage/repository.h"
#include "txn/client_tm.h"
#include "txn/scope_authority.h"
#include "txn/server_service.h"
#include "txn/server_tm.h"

namespace concord::net {
namespace {

std::string TestSocketPath(const char* tag) {
  return "/tmp/concord_net_test_" + std::string(tag) + "_" +
         std::to_string(getpid()) + ".sock";
}

// --- Frame codec -----------------------------------------------------------

TEST(FrameCodec, RoundTripsEveryType) {
  for (FrameType type :
       {FrameType::kRequest, FrameType::kReply, FrameType::kGoodbye}) {
    std::string wire;
    AppendFrame(&wire, type, "payload bytes");
    FrameDecoder decoder;
    decoder.Feed(wire);
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, "payload bytes");
    EXPECT_TRUE(decoder.Next().status().IsUnavailable());
  }
}

TEST(FrameCodec, ReassemblesAtEverySplitPoint) {
  // One frame, split into two Feeds at every possible byte boundary:
  // the decoder must produce the identical frame regardless of where
  // the kernel happened to cut the stream.
  std::string wire;
  AppendFrame(&wire, FrameType::kRequest, "split-point payload");
  for (size_t split = 0; split <= wire.size(); ++split) {
    FrameDecoder decoder;
    decoder.Feed(std::string_view(wire).substr(0, split));
    if (split < wire.size()) {
      EXPECT_TRUE(decoder.Next().status().IsUnavailable())
          << "complete frame from " << split << " bytes?";
      decoder.Feed(std::string_view(wire).substr(split));
    }
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << "split at " << split;
    EXPECT_EQ(frame->payload, "split-point payload");
  }
}

TEST(FrameCodec, SingleByteFeedAcrossBackToBackFrames) {
  std::string wire;
  AppendFrame(&wire, FrameType::kRequest, "first");
  AppendFrame(&wire, FrameType::kReply, "second frame payload");
  AppendFrame(&wire, FrameType::kGoodbye, "x");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (char byte : wire) {
    decoder.Feed(std::string_view(&byte, 1));
    auto frame = decoder.Next();
    if (frame.ok()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].payload, "first");
  EXPECT_EQ(frames[1].payload, "second frame payload");
  EXPECT_EQ(frames[2].type, FrameType::kGoodbye);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodec, RandomFragmentationFuzz) {
  // 100 random frame sequences, each delivered in random-size chunks:
  // every frame must come back intact and in order.
  std::mt19937 rng(20260808);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::string> payloads;
    std::string wire;
    int frames = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < frames; ++f) {
      size_t len = 1 + rng() % 5000;
      std::string payload(len, '\0');
      for (char& c : payload) c = static_cast<char>(rng());
      AppendFrame(&wire, FrameType::kRequest, payload);
      payloads.push_back(std::move(payload));
    }
    FrameDecoder decoder;
    size_t offset = 0;
    size_t decoded = 0;
    while (offset < wire.size()) {
      size_t chunk = 1 + rng() % 512;
      chunk = std::min(chunk, wire.size() - offset);
      decoder.Feed(std::string_view(wire).substr(offset, chunk));
      offset += chunk;
      while (true) {
        auto frame = decoder.Next();
        if (!frame.ok()) {
          ASSERT_TRUE(frame.status().IsUnavailable())
              << frame.status().ToString();
          break;
        }
        ASSERT_LT(decoded, payloads.size());
        EXPECT_EQ(frame->payload, payloads[decoded]);
        ++decoded;
      }
    }
    EXPECT_EQ(decoded, payloads.size());
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameCodec, RejectsZeroLengthFrame) {
  // Hand-build a header with payload_len = 0 (AppendFrame refuses to).
  std::string wire;
  AppendFrame(&wire, FrameType::kRequest, "x");
  wire[5] = wire[6] = wire[7] = wire[8] = 0;  // len field := 0
  FrameDecoder decoder;
  decoder.Feed(wire);
  EXPECT_FALSE(decoder.Next().ok());
  EXPECT_TRUE(decoder.broken());
}

TEST(FrameCodec, RejectsOversizedFrame) {
  std::string wire;
  AppendFrame(&wire, FrameType::kRequest, "x");
  wire[5] = wire[6] = wire[7] = wire[8] = (char)0xFF;  // len ~= 4GiB
  FrameDecoder decoder;
  decoder.Feed(wire);
  EXPECT_FALSE(decoder.Next().ok());
  EXPECT_TRUE(decoder.broken());
}

TEST(FrameCodec, GarbageHeaderIsSticky) {
  FrameDecoder decoder;
  decoder.Feed("GET / HTTP/1.1\r\n");
  EXPECT_FALSE(decoder.Next().ok());
  EXPECT_TRUE(decoder.broken());
  // A valid frame after the garbage must NOT resynchronize the stream.
  std::string wire;
  AppendFrame(&wire, FrameType::kRequest, "late");
  decoder.Feed(wire);
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(FrameCodec, BadTypeAndBadCrcTearDown) {
  std::string wire;
  AppendFrame(&wire, FrameType::kRequest, "abc");
  std::string bad_type = wire;
  bad_type[4] = 42;  // no such FrameType
  FrameDecoder type_decoder;
  type_decoder.Feed(bad_type);
  EXPECT_TRUE(type_decoder.Next().status().IsProtocolViolation());

  std::string bad_crc = wire;
  bad_crc.back() ^= 0x01;  // corrupt payload, CRC now mismatches
  FrameDecoder crc_decoder;
  crc_decoder.Feed(bad_crc);
  EXPECT_FALSE(crc_decoder.Next().ok());
  EXPECT_TRUE(crc_decoder.broken());
}

TEST(FrameCodec, HonorsCustomPayloadBound) {
  std::string wire;
  AppendFrame(&wire, FrameType::kRequest, std::string(128, 'p'));
  FrameDecoder decoder(/*max_payload=*/64);
  decoder.Feed(wire);
  EXPECT_FALSE(decoder.Next().ok());
}

// --- Envelopes -------------------------------------------------------------

TEST(WireEnvelopes, RequestRoundTrip) {
  RequestEnvelope request;
  request.client_id = 7;
  request.call_id = 1234;
  request.acked_below = 1200;
  request.method = "txn.ServerService/Execute";
  request.payload = std::string("\x00\x01payload", 9);
  auto decoded = DecodeRequestEnvelope(EncodeRequestEnvelope(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->client_id, 7u);
  EXPECT_EQ(decoded->call_id, 1234u);
  EXPECT_EQ(decoded->acked_below, 1200u);
  EXPECT_EQ(decoded->method, request.method);
  EXPECT_EQ(decoded->payload, request.payload);
}

TEST(WireEnvelopes, ReplyRoundTripCarriesTypedStatus) {
  ReplyEnvelope reply;
  reply.call_id = 99;
  reply.status = Status::NotFound("no such DOV");
  auto decoded = DecodeReplyEnvelope(EncodeReplyEnvelope(reply));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->call_id, 99u);
  EXPECT_TRUE(decoded->status.IsNotFound());
  EXPECT_NE(decoded->status.ToString().find("no such DOV"), std::string::npos);
}

TEST(WireEnvelopes, TruncationAndTrailingBytesRejected) {
  RequestEnvelope request;
  request.client_id = 1;
  request.call_id = 2;
  request.method = "m";
  request.payload = "p";
  std::string bytes = EncodeRequestEnvelope(request);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        DecodeRequestEnvelope(std::string_view(bytes).substr(0, len)).ok())
        << "decoded from " << len << " of " << bytes.size() << " bytes";
  }
  EXPECT_FALSE(DecodeRequestEnvelope(bytes + "trailing").ok());
}

// --- DedupCache ------------------------------------------------------------

TEST(DedupCache, HitRefreshesAndCounts) {
  rpc::DedupCache cache(4);
  cache.Insert(1, 10, "r10");
  EXPECT_TRUE(cache.Contains(1, 10));
  auto hit = cache.Lookup(1, 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "r10");
  EXPECT_FALSE(cache.Lookup(1, 11).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(DedupCache, EnforcesPerPeerBound) {
  rpc::DedupCache cache(3);
  for (uint64_t call = 0; call < 10; ++call) {
    cache.Insert(1, call, IndexedName("r", static_cast<long long>(call)));
  }
  EXPECT_EQ(cache.PeerEntries(1), 3u);
  EXPECT_EQ(cache.stats().evictions, 7u);
  // The three most recent survive; the horizon has passed the rest.
  EXPECT_TRUE(cache.Contains(1, 9));
  EXPECT_TRUE(cache.Contains(1, 8));
  EXPECT_TRUE(cache.Contains(1, 7));
  EXPECT_FALSE(cache.Contains(1, 0));
  // Peers are bounded independently.
  cache.Insert(2, 0, "other");
  EXPECT_EQ(cache.PeerEntries(2), 1u);
  EXPECT_EQ(cache.PeerEntries(1), 3u);
}

TEST(DedupCache, PinnedEntriesSurviveEviction) {
  rpc::DedupCache cache(2);
  cache.Insert(1, 1, "pinned", /*pinned=*/true);
  for (uint64_t call = 2; call < 12; ++call) {
    cache.Insert(1, call, "r");
  }
  // The pinned entry outlives ten younger inserts into a 2-slot peer.
  EXPECT_TRUE(cache.Contains(1, 1));
  EXPECT_EQ(cache.PeerEntries(1), 2u);
  cache.Unpin(1, 1, /*keep=*/true);
  cache.Insert(1, 100, "r");
  cache.Insert(1, 101, "r");
  EXPECT_FALSE(cache.Contains(1, 1));  // unpinned: evictable again
}

TEST(DedupCache, PruneBelowDropsAckedEntries) {
  rpc::DedupCache cache(64);
  for (uint64_t call = 0; call < 10; ++call) cache.Insert(1, call, "r");
  cache.PruneBelow(1, 7);
  EXPECT_EQ(cache.PeerEntries(1), 3u);
  EXPECT_FALSE(cache.Contains(1, 6));
  EXPECT_TRUE(cache.Contains(1, 7));
  EXPECT_EQ(cache.stats().pruned, 7u);
  cache.ErasePeer(1);
  EXPECT_EQ(cache.PeerEntries(1), 0u);
}

// --- Loopback RPC ----------------------------------------------------------

class LoopbackRpcTest : public ::testing::TestWithParam<bool> {
 protected:
  Address ListenAddress(const char* tag) {
    if (GetParam()) return Address::Tcp("127.0.0.1", 0);
    return Address::Unix(TestSocketPath(tag));
  }
};

INSTANTIATE_TEST_SUITE_P(UnixAndTcp, LoopbackRpcTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tcp" : "Unix";
                         });

TEST_P(LoopbackRpcTest, EchoAndConcurrentCallers) {
  RpcServer server(ListenAddress("echo"));
  std::atomic<int> executed{0};
  server.RegisterMethod("test/echo",
                        [&](const std::string& request) -> Result<std::string> {
                          ++executed;
                          return "echo:" + request;
                        });
  ASSERT_TRUE(server.Start().ok());
  RpcChannel channel(/*client_id=*/1, server.bound_address());

  auto reply = channel.Call("test/echo", "one");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "echo:one");

  // Concurrent callers take turns on one connection.
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> ok_replies{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        std::string body = std::to_string(t) + ":" + std::to_string(i);
        auto r = channel.Call("test/echo", body);
        if (r.ok() && *r == "echo:" + body) ++ok_replies;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_replies.load(), kThreads * kCallsPerThread);
  EXPECT_EQ(executed.load(), kThreads * kCallsPerThread + 1);
  channel.Shutdown();
  server.Shutdown();
}

TEST_P(LoopbackRpcTest, TypedHandlerErrorsAndUnknownMethod) {
  RpcServer server(ListenAddress("err"));
  server.RegisterMethod("test/fail",
                        [](const std::string&) -> Result<std::string> {
                          return Status::FailedPrecondition("typed failure");
                        });
  ASSERT_TRUE(server.Start().ok());
  RpcChannel channel(1, server.bound_address());
  auto failed = channel.Call("test/fail", "x");
  EXPECT_TRUE(failed.status().IsFailedPrecondition())
      << failed.status().ToString();
  auto unknown = channel.Call("test/nope", "x");
  EXPECT_TRUE(unknown.status().IsNotFound()) << unknown.status().ToString();
  channel.Shutdown();
  server.Shutdown();
}

TEST_P(LoopbackRpcTest, LargePayloadRoundTrip) {
  RpcServer server(ListenAddress("large"));
  server.RegisterMethod("test/echo",
                        [](const std::string& request) -> Result<std::string> {
                          return request;
                        });
  ASSERT_TRUE(server.Start().ok());
  RpcChannel channel(1, server.bound_address());
  std::string big(3 << 20, 'b');  // 3 MiB: many partial reads/writes
  for (size_t i = 0; i < big.size(); i += 4096) big[i] = char('a' + i % 26);
  auto reply = channel.Call("test/echo", big);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, big);
  channel.Shutdown();
  server.Shutdown();
}

TEST(LoopbackRpc, ConnectsLazilyAndRidesOutSlowServerStart) {
  // The channel exists before the server: first call retries through
  // connect backoff until the listener appears.
  Address address = Address::Unix(TestSocketPath("slowstart"));
  RpcChannel::Options options;
  options.call_timeout_ms = 10000;
  RpcChannel channel(1, address, options);
  RpcServer server(address);
  server.RegisterMethod("test/echo",
                        [](const std::string& request)
                            -> Result<std::string> { return request; });
  std::thread late_server([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ASSERT_TRUE(server.Start().ok());
  });
  auto reply = channel.Call("test/echo", "patient");
  late_server.join();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "patient");
  EXPECT_GT(channel.stats().connect_failures, 0u);
  channel.Shutdown();
  server.Shutdown();
}

// Raw wire helpers: speak the protocol directly to control call ids.

int RawConnect(const Address& address) {
  auto connecting = StartConnect(address);
  EXPECT_TRUE(connecting.ok()) << connecting.status().ToString();
  if (!connecting.ok()) return -1;
  for (int spin = 0; spin < 1000; ++spin) {
    if (FinishConnect(*connecting).ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return *connecting;
}

std::string RequestFrame(const RequestEnvelope& request) {
  std::string wire;
  AppendFrame(&wire, FrameType::kRequest, EncodeRequestEnvelope(request));
  return wire;
}

void RawSendRequest(int fd, const RequestEnvelope& request) {
  std::string wire = RequestFrame(request);
  ASSERT_EQ(write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
}

/// Reads from a nonblocking fd until one complete frame decodes (or
/// the peer closes: an empty optional).
std::optional<Frame> RawReadFrame(int fd, FrameDecoder* decoder) {
  char buffer[4096];
  for (int spin = 0; spin < 10000; ++spin) {
    auto frame = decoder->Next();
    if (frame.ok()) return std::move(*frame);
    ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    if (n <= 0) return std::nullopt;
    decoder->Feed(std::string_view(buffer, static_cast<size_t>(n)));
  }
  return std::nullopt;
}

std::string RawReadReplyPayload(int fd, FrameDecoder* decoder) {
  auto frame = RawReadFrame(fd, decoder);
  EXPECT_TRUE(frame.has_value());
  if (!frame.has_value()) return "";
  auto reply = DecodeReplyEnvelope(frame->payload);
  EXPECT_TRUE(reply.ok());
  return reply.ok() ? reply->payload : "";
}

/// Polls `done` every millisecond until it holds (true) or 10 s pass.
template <typename Predicate>
bool WaitUntil(Predicate done) {
  for (int spin = 0; spin < 10000; ++spin) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(LoopbackRpc, DuplicateCallIdsAnsweredFromDedupCache) {
  // Two raw requests with the SAME (client, call) id: the handler must
  // run once, the second reply must come from the server's dedup cache.
  Address address = Address::Unix(TestSocketPath("dedup"));
  RpcServer server(address);
  std::atomic<int> executed{0};
  server.RegisterMethod("test/count",
                        [&](const std::string&) -> Result<std::string> {
                          return std::to_string(++executed);
                        });
  ASSERT_TRUE(server.Start().ok());

  int fd = RawConnect(server.bound_address());
  ASSERT_GE(fd, 0);
  RequestEnvelope request;
  request.client_id = 77;
  request.call_id = 5;
  request.method = "test/count";
  request.payload = "x";
  // Send the request, await its reply, then send the IDENTICAL request
  // again — the retry-after-reply shape a reconnecting client produces.
  FrameDecoder decoder;
  std::vector<std::string> replies;
  for (int attempt = 0; attempt < 2; ++attempt) {
    RawSendRequest(fd, request);
    replies.push_back(RawReadReplyPayload(fd, &decoder));
  }
  CloseFd(fd);
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(replies[0], "1");
  EXPECT_EQ(replies[1], "1");  // cached, not re-executed
  EXPECT_GE(server.stats().dedup_hits + server.stats().duplicate_in_flight,
            1u);
  server.Shutdown();
}

TEST(LoopbackRpc, RetryAttachesToInFlightExecutionAndBothGetTheReply) {
  // The same (client, call) id arrives on a second connection while
  // the first execution is still blocked in its handler: the retry
  // attaches, the handler runs once, and the worker that ran it writes
  // the one reply to both connections.
  Address address = Address::Unix(TestSocketPath("attach"));
  RpcServer server(address);
  std::atomic<int> executed{0};
  std::atomic<bool> release{false};
  server.RegisterMethod("test/blocking",
                        [&](const std::string&) -> Result<std::string> {
                          int run = ++executed;
                          while (!release.load()) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                          }
                          return "run " + std::to_string(run);
                        });
  ASSERT_TRUE(server.Start().ok());

  RequestEnvelope request;
  request.client_id = 78;
  request.call_id = 3;
  request.method = "test/blocking";
  request.payload = "x";
  int first = RawConnect(address);
  int second = RawConnect(address);
  ASSERT_GE(first, 0);
  ASSERT_GE(second, 0);
  RawSendRequest(first, request);
  ASSERT_TRUE(WaitUntil([&] { return executed.load() == 1; }));
  RawSendRequest(second, request);
  ASSERT_TRUE(
      WaitUntil([&] { return server.stats().duplicate_in_flight >= 1; }));
  release = true;

  FrameDecoder first_decoder;
  FrameDecoder second_decoder;
  EXPECT_EQ(RawReadReplyPayload(first, &first_decoder), "run 1");
  EXPECT_EQ(RawReadReplyPayload(second, &second_decoder), "run 1");
  CloseFd(first);
  CloseFd(second);
  EXPECT_EQ(executed.load(), 1);
  EXPECT_EQ(server.stats().requests_executed, 1u);
  server.Shutdown();
}

TEST(LoopbackRpc, AckedBelowPrunesServerDedup) {
  Address address = Address::Unix(TestSocketPath("ack"));
  RpcServer server(address);
  server.RegisterMethod("test/echo",
                        [](const std::string& request)
                            -> Result<std::string> { return request; });
  ASSERT_TRUE(server.Start().ok());
  RpcChannel channel(/*client_id=*/9, address);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(channel.Call("test/echo", "x").ok());
  }
  // Sequential callers ack everything below the live call: at most the
  // last call's entry can remain.
  EXPECT_LE(server.dedup().PeerEntries(9), 1u);
  channel.Shutdown();
  server.Shutdown();
}

TEST(LoopbackRpc, AtMostOncePerIncarnationAcrossServerRestart) {
  // Kill the server between calls; the channel reconnects to the new
  // incarnation and keeps working. (At-most-once across the restart is
  // the transaction layer's job — this pins the transport contract:
  // fresh incarnation, fresh dedup table, calls still succeed.)
  Address address = Address::Unix(TestSocketPath("restart"));
  std::atomic<int> executed{0};
  auto handler = [&](const std::string& request) -> Result<std::string> {
    ++executed;
    return request;
  };
  auto first = std::make_unique<RpcServer>(address);
  first->RegisterMethod("test/echo", handler);
  ASSERT_TRUE(first->Start().ok());

  RpcChannel::Options options;
  options.call_timeout_ms = 10000;
  RpcChannel channel(1, address, options);
  ASSERT_TRUE(channel.Call("test/echo", "before").ok());
  first->Shutdown();
  first.reset();

  auto second = std::make_unique<RpcServer>(address);
  second->RegisterMethod("test/echo", handler);
  ASSERT_TRUE(second->Start().ok());
  auto reply = channel.Call("test/echo", "after");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "after");
  EXPECT_EQ(executed.load(), 2);
  EXPECT_GE(channel.stats().reconnects, 1u);
  channel.Shutdown();
  second->Shutdown();
}

TEST(LoopbackRpc, ConnectionLostMidCallResendsSameCallIdToNewIncarnation) {
  // The connection drops while a call is unreplied: a stand-in listener
  // reads the request and hangs up without answering, then a real
  // server binds the same address. The channel must reconnect, re-send
  // the SAME call id, and return the new incarnation's reply.
  Address address = Address::Unix(TestSocketPath("midcall"));
  auto listen_fd = ListenOn(address);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status().ToString();
  std::atomic<int> executed{0};
  std::unique_ptr<RpcServer> server;
  uint64_t dropped_call_id = 0;
  std::thread stand_in([&] {
    Result<int> fd = Status::Unavailable("no peer yet");
    ASSERT_TRUE(WaitUntil([&] {
      fd = AcceptOn(*listen_fd);
      return fd.ok();
    }));
    FrameDecoder decoder;
    auto frame = RawReadFrame(*fd, &decoder);
    ASSERT_TRUE(frame.has_value());
    auto request = DecodeRequestEnvelope(frame->payload);
    ASSERT_TRUE(request.ok());
    dropped_call_id = request->call_id;
    CloseFd(*fd);
    CloseFd(*listen_fd);
    server = std::make_unique<RpcServer>(address);
    server->RegisterMethod("test/echo",
                           [&](const std::string& payload)
                               -> Result<std::string> {
                             ++executed;
                             return "new:" + payload;
                           });
    ASSERT_TRUE(server->Start().ok());
  });

  RpcChannel::Options options;
  options.call_timeout_ms = 10000;
  RpcChannel channel(/*client_id=*/12, address, options);
  auto reply = channel.Call("test/echo", "survivor");
  stand_in.join();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "new:survivor");
  EXPECT_EQ(executed.load(), 1);
  EXPECT_GE(channel.stats().retries, 1u);
  EXPECT_GE(channel.stats().reconnects, 1u);
  // The new incarnation executed the re-sent id, not a fresh one.
  EXPECT_TRUE(server->dedup().Contains(12, dropped_call_id));
  channel.Shutdown();
  server->Shutdown();
}

TEST(LoopbackRpc, SlowHandlerTimesOutWithoutStallingChannelOrLoop) {
  // A handler that outlives call_timeout_ms: its call fails in doubt,
  // its late reply is dropped, the next call on the same channel works
  // (the timed-out reader handed its role over), and while the handler
  // still blocks a second channel is served promptly (a blocked handler
  // holds only the worker running it).
  Address address = Address::Unix(TestSocketPath("slow"));
  RpcServer::Options server_options;
  server_options.worker_threads = 2;
  RpcServer server(address, server_options);
  std::atomic<bool> release{false};
  std::atomic<bool> slow_returned{false};
  server.RegisterMethod("test/slow",
                        [&](const std::string&) -> Result<std::string> {
                          while (!release.load()) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                          }
                          slow_returned = true;
                          return std::string("late");
                        });
  server.RegisterMethod("test/echo",
                        [](const std::string& payload)
                            -> Result<std::string> { return payload; });
  ASSERT_TRUE(server.Start().ok());

  RpcChannel::Options options;
  options.call_timeout_ms = 300;
  RpcChannel channel(1, address, options);
  auto slow = channel.Call("test/slow", "x");
  EXPECT_TRUE(slow.status().IsUnavailable()) << slow.status().ToString();
  EXPECT_EQ(channel.stats().timeouts, 1u);

  auto next = channel.Call("test/echo", "next");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, "next");

  RpcChannel other(2, address, options);
  auto start = std::chrono::steady_clock::now();
  auto prompt = other.Call("test/echo", "prompt");
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(prompt.ok()) << prompt.status().ToString();
  EXPECT_EQ(*prompt, "prompt");
  EXPECT_LT(elapsed, std::chrono::milliseconds(options.call_timeout_ms));
  EXPECT_FALSE(slow_returned.load());

  // Let the late reply reach the channel; it must not be mistaken for
  // the reply of a later call.
  release = true;
  ASSERT_TRUE(
      WaitUntil([&] { return server.stats().requests_executed == 3; }));
  auto after = channel.Call("test/echo", "after");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, "after");
  EXPECT_EQ(channel.stats().timeouts, 1u);
  EXPECT_EQ(channel.stats().retries, 0u);
  other.Shutdown();
  channel.Shutdown();
  server.Shutdown();
}

TEST(LoopbackRpc, ChannelShutdownFailsRunningAndQueuedCalls) {
  // Call A blocks in its handler and call B waits for its turn on the
  // same channel: Shutdown from a third thread returns promptly and
  // fails both, long before their deadlines.
  Address address = Address::Unix(TestSocketPath("chanstop"));
  RpcServer server(address);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  server.RegisterMethod("test/blocking",
                        [&](const std::string&) -> Result<std::string> {
                          entered = true;
                          WaitUntil([&] { return release.load(); });
                          return std::string("late");
                        });
  ASSERT_TRUE(server.Start().ok());

  RpcChannel::Options options;
  options.call_timeout_ms = 10000;
  RpcChannel channel(1, address, options);
  Status a = Status::OK();
  Status b = Status::OK();
  std::thread caller_a(
      [&] { a = channel.Call("test/blocking", "a").status(); });
  ASSERT_TRUE(WaitUntil([&] { return entered.load(); }));
  std::thread caller_b(
      [&] { b = channel.Call("test/blocking", "b").status(); });
  ASSERT_TRUE(WaitUntil([&] { return channel.stats().calls == 2; }));

  auto start = std::chrono::steady_clock::now();
  std::thread stopper([&] { channel.Shutdown(); });
  stopper.join();
  auto elapsed = std::chrono::steady_clock::now() - start;
  caller_a.join();
  caller_b.join();
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));
  EXPECT_TRUE(a.IsUnavailable()) << a.ToString();
  EXPECT_TRUE(b.IsUnavailable()) << b.ToString();
  EXPECT_EQ(channel.stats().timeouts, 0u);
  release = true;
  server.Shutdown();
}

TEST(LoopbackRpc, QueuedCallIsBoundedByItsOwnDeadline) {
  // Call B waits for its turn behind call A, whose handler blocks; B's
  // handler blocks too. The wait counts against B's own deadline, so B
  // fails by that deadline, not a full timeout after A gave up. Once
  // the handlers are released, the next call on the channel succeeds
  // (the two late replies are read and dropped).
  Address address = Address::Unix(TestSocketPath("queued"));
  RpcServer server(address);
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  server.RegisterMethod("test/blocking",
                        [&](const std::string&) -> Result<std::string> {
                          ++entered;
                          WaitUntil([&] { return release.load(); });
                          return std::string("late");
                        });
  server.RegisterMethod("test/echo",
                        [](const std::string& payload)
                            -> Result<std::string> { return payload; });
  ASSERT_TRUE(server.Start().ok());

  RpcChannel::Options options;
  options.call_timeout_ms = 400;
  RpcChannel channel(1, address, options);
  Status a = Status::OK();
  std::thread caller_a(
      [&] { a = channel.Call("test/blocking", "a").status(); });
  ASSERT_TRUE(WaitUntil([&] { return entered.load() == 1; }));
  auto start = std::chrono::steady_clock::now();
  auto b = channel.Call("test/blocking", "b");
  auto elapsed = std::chrono::steady_clock::now() - start;
  caller_a.join();
  EXPECT_TRUE(a.IsUnavailable()) << a.ToString();
  EXPECT_TRUE(b.status().IsUnavailable()) << b.status().ToString();
  EXPECT_LT(elapsed,
            std::chrono::milliseconds(options.call_timeout_ms + 200));
  EXPECT_EQ(channel.stats().timeouts, 2u);

  release = true;
  auto next = channel.Call("test/echo", "next");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, "next");
  channel.Shutdown();
  server.Shutdown();
}

TEST(LoopbackRpc, TwoRequestsInOneWriteRunConcurrently) {
  // Two request frames reach the server in one write(2), and the first
  // handler cannot finish until the second has run: the server must
  // run them side by side, not one behind the other.
  Address address = Address::Unix(TestSocketPath("pair"));
  RpcServer server(address);
  std::atomic<bool> second_ran{false};
  server.RegisterMethod("test/first",
                        [&](const std::string&) -> Result<std::string> {
                          bool saw = WaitUntil([&] { return second_ran.load(); });
                          return std::string(saw ? "saw second" : "alone");
                        });
  server.RegisterMethod("test/second",
                        [&](const std::string&) -> Result<std::string> {
                          second_ran = true;
                          return std::string("second");
                        });
  ASSERT_TRUE(server.Start().ok());

  int fd = RawConnect(address);
  ASSERT_GE(fd, 0);
  RequestEnvelope first;
  first.client_id = 80;
  first.call_id = 1;
  first.method = "test/first";
  first.payload = "x";
  RequestEnvelope second = first;
  second.call_id = 2;
  second.method = "test/second";
  std::string wire = RequestFrame(first) + RequestFrame(second);
  ASSERT_EQ(write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));

  FrameDecoder decoder;
  std::map<uint64_t, std::string> replies;
  for (int i = 0; i < 2; ++i) {
    auto frame = RawReadFrame(fd, &decoder);
    ASSERT_TRUE(frame.has_value());
    auto reply = DecodeReplyEnvelope(frame->payload);
    ASSERT_TRUE(reply.ok());
    replies[reply->call_id] = reply->payload;
  }
  CloseFd(fd);
  EXPECT_EQ(replies[1], "saw second");
  EXPECT_EQ(replies[2], "second");
  EXPECT_EQ(server.stats().requests_executed, 2u);
  server.Shutdown();
}

TEST(LoopbackRpc, PeerThatStopsReadingStallsOnlyItself) {
  // A raw peer asks for a reply far larger than the socket buffers and
  // reads none of it. Another channel is still served promptly, and
  // the stalled peer later reads the whole reply intact.
  Address address = Address::Unix(TestSocketPath("stall"));
  RpcServer server(address);
  std::string big(4 << 20, 'b');
  for (size_t i = 0; i < big.size(); i += 4096) big[i] = char('a' + i % 26);
  server.RegisterMethod("test/big",
                        [&](const std::string&) -> Result<std::string> {
                          return big;
                        });
  server.RegisterMethod("test/echo",
                        [](const std::string& payload)
                            -> Result<std::string> { return payload; });
  ASSERT_TRUE(server.Start().ok());

  int fd = RawConnect(address);
  ASSERT_GE(fd, 0);
  RequestEnvelope request;
  request.client_id = 81;
  request.call_id = 1;
  request.method = "test/big";
  request.payload = "x";
  RawSendRequest(fd, request);
  ASSERT_TRUE(
      WaitUntil([&] { return server.stats().requests_executed == 1; }));

  RpcChannel::Options options;
  options.call_timeout_ms = 5000;
  RpcChannel other(2, address, options);
  auto start = std::chrono::steady_clock::now();
  auto prompt = other.Call("test/echo", "prompt");
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(prompt.ok()) << prompt.status().ToString();
  EXPECT_EQ(*prompt, "prompt");
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));

  FrameDecoder decoder;
  EXPECT_TRUE(RawReadReplyPayload(fd, &decoder) == big);
  CloseFd(fd);
  other.Shutdown();
  server.Shutdown();
}

TEST(LoopbackRpc, ShutdownDeliversBlockedReplyAndSaysGoodbye) {
  // Shutdown while a handler blocks: an idle connection gets kGoodbye
  // and then EOF, and the blocked call's reply still reaches its
  // connection before EOF.
  Address address = Address::Unix(TestSocketPath("drain"));
  RpcServer server(address);
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  server.RegisterMethod("test/blocking",
                        [&](const std::string&) -> Result<std::string> {
                          entered = true;
                          WaitUntil([&] { return release.load(); });
                          return std::string("drained");
                        });
  server.RegisterMethod("test/echo",
                        [](const std::string& payload)
                            -> Result<std::string> { return payload; });
  ASSERT_TRUE(server.Start().ok());

  RequestEnvelope request;
  request.client_id = 82;
  request.call_id = 1;
  request.method = "test/echo";
  request.payload = "hello";
  int idle = RawConnect(address);
  ASSERT_GE(idle, 0);
  FrameDecoder idle_decoder;
  RawSendRequest(idle, request);  // one call, so the server holds it
  ASSERT_EQ(RawReadReplyPayload(idle, &idle_decoder), "hello");

  int busy = RawConnect(address);
  ASSERT_GE(busy, 0);
  request.call_id = 2;
  request.method = "test/blocking";
  RawSendRequest(busy, request);
  ASSERT_TRUE(WaitUntil([&] { return entered.load(); }));

  std::thread shutdown([&] { server.Shutdown(); });
  auto goodbye = RawReadFrame(idle, &idle_decoder);
  ASSERT_TRUE(goodbye.has_value());
  EXPECT_EQ(goodbye->type, FrameType::kGoodbye);
  release = true;

  FrameDecoder busy_decoder;
  std::optional<std::string> reply;
  while (auto frame = RawReadFrame(busy, &busy_decoder)) {
    if (frame->type != FrameType::kReply) continue;
    auto envelope = DecodeReplyEnvelope(frame->payload);
    ASSERT_TRUE(envelope.ok());
    reply = envelope->payload;
  }
  EXPECT_EQ(reply, std::optional<std::string>("drained"));
  EXPECT_FALSE(RawReadFrame(idle, &idle_decoder).has_value());  // EOF
  shutdown.join();
  CloseFd(idle);
  CloseFd(busy);
}

/// Threads of this process, from /proc/self/task.
size_t ProcessThreads() {
  size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(LoopbackRpc, ServerRunsExactlyItsWorkerThreads) {
  RpcServer::Options options;
  options.worker_threads = 3;
  RpcServer server(Address::Unix(TestSocketPath("threads")), options);
  // A thread can stay listed for a moment after its join returns, so
  // let earlier tests' threads finish leaving before counting.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  size_t before = ProcessThreads();
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(ProcessThreads(), before + 3);
  server.Shutdown();
  EXPECT_TRUE(WaitUntil([&] { return ProcessThreads() == before; }))
      << ProcessThreads() << " threads, " << before << " before Start";
}

TEST(LoopbackRpc, ShutdownUnlinksOnlyItsOwnSocketPath) {
  // The path is gone after Shutdown...
  Address address = Address::Unix(TestSocketPath("unlink"));
  RpcServer alone(address);
  ASSERT_TRUE(alone.Start().ok());
  EXPECT_TRUE(std::filesystem::exists(address.path));
  alone.Shutdown();
  EXPECT_FALSE(std::filesystem::exists(address.path));

  // ...unless a later server re-bound it: that one keeps its socket.
  auto handler = [](const std::string& payload) -> Result<std::string> {
    return payload;
  };
  RpcServer first(address);
  first.RegisterMethod("test/echo", handler);
  ASSERT_TRUE(first.Start().ok());
  RpcServer second(address);
  second.RegisterMethod("test/echo", handler);
  ASSERT_TRUE(second.Start().ok());
  first.Shutdown();
  EXPECT_TRUE(std::filesystem::exists(address.path));
  RpcChannel channel(1, address);
  auto reply = channel.Call("test/echo", "still bound");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  channel.Shutdown();
  second.Shutdown();
  EXPECT_FALSE(std::filesystem::exists(address.path));
}

TEST(LoopbackRpc, GarbageSpeakerIsTornDownWithoutHarmingOthers) {
  Address address = Address::Unix(TestSocketPath("garbage"));
  RpcServer server(address);
  server.RegisterMethod("test/echo",
                        [](const std::string& request)
                            -> Result<std::string> { return request; });
  ASSERT_TRUE(server.Start().ok());

  // A peer speaking HTTP at us: connection torn down, error counted.
  auto connecting = StartConnect(address);
  ASSERT_TRUE(connecting.ok());
  int fd = *connecting;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const char kGarbage[] = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_GT(write(fd, kGarbage, sizeof(kGarbage) - 1), 0);
  char buffer[128];
  for (int spin = 0; spin < 2000; ++spin) {
    ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n == 0) break;  // server closed on us — expected
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CloseFd(fd);
  EXPECT_GE(server.stats().protocol_errors, 1u);

  // An honest client on the same server still works.
  RpcChannel channel(1, address);
  auto reply = channel.Call("test/echo", "still fine");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  channel.Shutdown();
  server.Shutdown();
}

TEST(LoopbackRpc, CallTimesOutAgainstDeadAddress) {
  RpcChannel::Options options;
  options.call_timeout_ms = 300;
  RpcChannel channel(1, Address::Unix(TestSocketPath("nobody")), options);
  auto reply = channel.Call("test/echo", "anyone?");
  EXPECT_TRUE(reply.status().IsUnavailable()) << reply.status().ToString();
  EXPECT_GE(channel.stats().timeouts, 1u);
  channel.Shutdown();
}

// --- ServerService over a socket ------------------------------------------

/// The socket stack of a concordd/concord_client pair, in one process:
/// an RpcServer serving ServerServiceHandler on a Unix socket, and
/// workstations whose ClientTm reaches it through a ServerStub bound to
/// an RpcChannel. The server and each workstation keep their own clock
/// and Network, as separate processes do.
class SocketServerServiceTest : public ::testing::Test {
 protected:
  /// One workstation process: its ClientTm's envelopes cross the
  /// socket. `client_id` is also its NodeId, the namespace of its DOPs.
  struct Workstation {
    Workstation(uint64_t client_id, const Address& server)
        : network(&clock, /*seed=*/7, NodeId(client_id)),
          node(network.AddNode("ws" + std::to_string(client_id))),
          channel(client_id, server),
          stub(NodeId(1000),
               [this](const std::string& method, const std::string& request) {
                 return channel.Call(method, request);
               }),
          tm(&stub, &network, node, &clock) {}

    SimClock clock;
    rpc::Network network;
    NodeId node;
    RpcChannel channel;
    txn::ServerStub stub;
    txn::ClientTm tm;
  };

  SocketServerServiceTest()
      : server_network_(&server_clock_, /*seed=*/1), repo_(&server_clock_) {
    char tmpl[] = "/tmp/concord_net_service_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) {
      ADD_FAILURE() << "mkdtemp failed: " << std::strerror(errno);
      std::abort();
    }
    dir_ = dir;
    storage::DesignObjectType* type = repo_.schema().DefineType("cell");
    type->AddAttr({"value", storage::AttrType::kInt, true, 0.0, 1e9});
    dot_ = type->id();
    tm_ = std::make_unique<txn::ServerTm>(
        &repo_, &server_network_, server_network_.AddNode("server"), &scope_);
    server_ = std::make_unique<RpcServer>(Address::Unix(dir_ + "/server.sock"));
    server_->RegisterMethod(txn::kServerServiceMethod,
                            txn::ServerServiceHandler(tm_.get()));
  }

  ~SocketServerServiceTest() override {
    server_->Shutdown();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  storage::DesignObject Cell(int64_t value) const {
    storage::DesignObject object(dot_);
    object.SetAttr("value", value);
    return object;
  }

  std::string dir_;
  SimClock server_clock_;
  rpc::Network server_network_;
  storage::Repository repo_;
  txn::PermissiveScopeAuthority scope_;
  DotId dot_;
  std::unique_ptr<txn::ServerTm> tm_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(SocketServerServiceTest, ClientTmCommitsAndAFreshClientChecksOut) {
  ASSERT_TRUE(server_->Start().ok());
  const DaId da(1);
  DovId derived;
  {
    Workstation ws(1, server_->bound_address());
    // Checkin and End-of-DOP in one envelope...
    auto first_dop = ws.tm.BeginDop(da);
    ASSERT_TRUE(first_dop.ok()) << first_dop.status().ToString();
    auto first = ws.tm.CheckinCommit(*first_dop, Cell(41), {});
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    // ...and as separate envelopes, deriving from the first version.
    auto dop = ws.tm.BeginDop(da);
    ASSERT_TRUE(dop.ok()) << dop.status().ToString();
    ASSERT_TRUE(ws.tm.Checkout(*dop, *first).ok());
    auto second = ws.tm.Checkin(*dop, Cell(42), {*first});
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    Status committed = ws.tm.CommitDop(*dop);
    ASSERT_TRUE(committed.ok()) << committed.ToString();
    derived = *second;
    EXPECT_GE(ws.channel.stats().calls, 5u);
  }
  EXPECT_TRUE(repo_.Contains(derived));

  Workstation fresh(2, server_->bound_address());
  auto dop = fresh.tm.BeginDop(da);
  ASSERT_TRUE(dop.ok()) << dop.status().ToString();
  Status checked_out = fresh.tm.Checkout(*dop, derived);
  ASSERT_TRUE(checked_out.ok()) << checked_out.ToString();
  auto input = fresh.tm.Input(*dop, derived);
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  EXPECT_EQ(input->GetAttr("value")->as_int(), 42);
  EXPECT_TRUE(fresh.tm.CommitDop(*dop).ok());
}

}  // namespace
}  // namespace concord::net
