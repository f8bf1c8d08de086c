#include <gtest/gtest.h>

#include "rpc/network.h"
#include "rpc/transactional_rpc.h"

namespace concord::rpc {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : network_(&clock_, 7) {
    server_ = network_.AddNode("server");
    ws_ = network_.AddNode("ws1");
  }
  SimClock clock_;
  Network network_;
  NodeId server_;
  NodeId ws_;
};

TEST_F(NetworkTest, SendAdvancesClockByLatency) {
  SimTime before = clock_.Now();
  ASSERT_TRUE(network_.Send(ws_, server_).ok());
  EXPECT_EQ(clock_.Now() - before, network_.lan_latency());
  before = clock_.Now();
  ASSERT_TRUE(network_.Send(ws_, ws_).ok());
  EXPECT_EQ(clock_.Now() - before, network_.local_latency());
}

TEST_F(NetworkTest, DownNodesRejectTraffic) {
  network_.SetNodeUp(server_, false);
  EXPECT_TRUE(network_.Send(ws_, server_).IsUnavailable());
  EXPECT_TRUE(network_.Send(server_, ws_).IsUnavailable());
  network_.SetNodeUp(server_, true);
  EXPECT_TRUE(network_.Send(ws_, server_).ok());
  EXPECT_EQ(network_.stats().messages_rejected_node_down, 2u);
}

TEST_F(NetworkTest, LossIsSeededAndCounted) {
  network_.set_loss_probability(0.5);
  int ok = 0;
  int lost = 0;
  for (int i = 0; i < 200; ++i) {
    if (network_.Send(ws_, server_).ok()) {
      ++ok;
    } else {
      ++lost;
    }
  }
  EXPECT_GT(ok, 50);
  EXPECT_GT(lost, 50);
  EXPECT_EQ(network_.stats().messages_lost, static_cast<uint64_t>(lost));
}

TEST_F(NetworkTest, IntraNodeMessagesNeverLost) {
  network_.set_loss_probability(1.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(network_.Send(ws_, ws_).ok());
  }
}

TEST_F(NetworkTest, NodeNames) {
  EXPECT_EQ(*network_.NodeName(server_), "server");
  EXPECT_FALSE(network_.NodeName(NodeId(99)).ok());
}

// --- TransactionalRpc ------------------------------------------------------

class RpcFixture : public ::testing::Test {
 protected:
  RpcFixture() : network_(&clock_, 7), rpc_(&network_) {
    server_ = network_.AddNode("server");
    ws_ = network_.AddNode("ws1");
  }
  SimClock clock_;
  Network network_;
  TransactionalRpc rpc_;
  NodeId server_;
  NodeId ws_;
};

TEST_F(RpcFixture, CallExecutesHandler) {
  rpc_.RegisterHandler(server_, "echo", [](const std::string& req) {
    return Result<std::string>("echo:" + req);
  });
  auto reply = rpc_.Call(ws_, server_, "echo", "hi");
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*reply, "echo:hi");
}

TEST_F(RpcFixture, UnknownMethodFails) {
  EXPECT_TRUE(rpc_.Call(ws_, server_, "nope", "").status().IsNotFound());
}

TEST_F(RpcFixture, RetriesOverMessageLossExactlyOnce) {
  int executions = 0;
  rpc_.RegisterHandler(server_, "inc", [&](const std::string&) {
    ++executions;
    return Result<std::string>("done");
  });
  network_.set_loss_probability(0.4);
  int successes = 0;
  for (int i = 0; i < 50; ++i) {
    if (rpc_.Call(ws_, server_, "inc", "").ok()) ++successes;
  }
  // At-most-once: each call id executes at most once, even across
  // retries (lost replies re-send the cached response). A call may
  // execute yet still fail if every reply is lost, so
  // successes <= executions <= calls.
  EXPECT_LE(successes, executions);
  EXPECT_LE(executions, 50);
  EXPECT_GT(rpc_.stats().retries, 0u);
  EXPECT_GT(rpc_.stats().duplicate_suppressed, 0u);
}

TEST_F(RpcFixture, CrashedCalleeFailsFast) {
  rpc_.RegisterHandler(server_, "x",
                       [](const std::string&) { return Result<std::string>(""); });
  network_.SetNodeUp(server_, false);
  EXPECT_TRUE(rpc_.Call(ws_, server_, "x", "").status().IsUnavailable());
  EXPECT_EQ(rpc_.stats().failures, 1u);
}

TEST_F(RpcFixture, ApplicationErrorDeliveredWithoutRetry) {
  int executions = 0;
  rpc_.RegisterHandler(server_, "fail", [&](const std::string&) {
    ++executions;
    return Result<std::string>(Status::Aborted("app error"));
  });
  auto reply = rpc_.Call(ws_, server_, "fail", "");
  EXPECT_TRUE(reply.status().IsAborted());
  EXPECT_EQ(executions, 1);
}

TEST_F(RpcFixture, ClearNodeStateDropsDedup) {
  rpc_.RegisterHandler(server_, "y",
                       [](const std::string&) { return Result<std::string>("ok"); });
  rpc_.Call(ws_, server_, "y", "").ok();
  rpc_.ClearNodeState(server_);  // simulated crash wipes dedup table
  EXPECT_TRUE(rpc_.Call(ws_, server_, "y", "").ok());
}

}  // namespace
}  // namespace concord::rpc
