#ifndef CONCORD_NET_NET_SERVER_SERVICE_H_
#define CONCORD_NET_NET_SERVER_SERVICE_H_

#include <memory>
#include <utility>

#include "net/rpc_client.h"
#include "txn/server_service.h"

namespace concord::net {

/// txn::ServerService over a real socket: the second transport backend
/// behind the seam ClientTm programs against (next to the simulated
/// RemoteServerStub). Encodes the
/// batch with the existing wire codec, ships it through an RpcChannel,
/// and decodes the reply — the transaction layers cannot tell the
/// difference, which is the whole point of the seam.
class NetServerService : public txn::ServerService {
 public:
  /// `server_node` is the NodeId the remote concordd serves (shard
  /// routing and message accounting key off it; it is configuration,
  /// not discovered over the wire).
  NetServerService(NodeId server_node, std::shared_ptr<RpcChannel> channel)
      : server_node_(server_node), channel_(std::move(channel)) {}

  NodeId server_node() const override { return server_node_; }

  Result<txn::BatchReply> Execute(const txn::BatchRequest& batch) override {
    CONCORD_ASSIGN_OR_RETURN(
        std::string reply,
        channel_->Call(txn::kServerServiceMethod,
                       txn::EncodeBatchRequest(batch)));
    return txn::DecodeBatchReply(reply);
  }

  RpcChannel& channel() { return *channel_; }

 private:
  const NodeId server_node_;
  std::shared_ptr<RpcChannel> channel_;
};

}  // namespace concord::net

#endif  // CONCORD_NET_NET_SERVER_SERVICE_H_
