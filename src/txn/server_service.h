#ifndef CONCORD_TXN_SERVER_SERVICE_H_
#define CONCORD_TXN_SERVER_SERVICE_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"
#include "rpc/transactional_rpc.h"
#include "storage/version.h"

namespace concord::txn {

/// Typed request/response protocol for the full server-TM surface.
///
/// The paper routes every workstation<->server interaction over
/// "reliable communication protocols (transactional RPC, reliable
/// messages) which insulate the cooperation protocols from network
/// failures and workstation crashes" (Sect. 5.4). This header is that
/// boundary made explicit: one request struct per critical interaction
/// of Sect. 5.2, a reply carrying a typed Status plus the payload, and
/// a BatchRequest envelope that ships several requests in ONE server
/// round trip. Everything is serializable with the common/serde codec
/// (see EncodeBatchRequest below), so the same envelope runs marshalled
/// through one ServerStub over either transport — the simulated LAN
/// (TransactionalRpc::Bind) or a real socket (RpcChannel::Call) — and
/// is served by one ServerServiceHandler, without the caller noticing
/// anything but the message counters.
///
/// The 2PC legs of a critical interaction ride the same envelope:
/// PrepareRequest is the server-side phase-1 vote, DecideRequest the
/// phase-2 outcome. The client-TM brackets every interaction as
/// [Prepare, ops..., Decide], which collapses the old
/// prepare-roundtrip + operation + outcome-roundtrip into a single
/// request/reply exchange while keeping both legs visible (and
/// individually accountable) in the protocol stream.

// --- Requests -------------------------------------------------------------

/// Begin-of-DOP: register `dop` for DA `da` at the server-TM.
struct BeginDopRequest {
  DopId dop;
  DaId da;
};

/// Checkout of an input version (scope test, derivation-lock
/// compatibility test, optional lock acquisition, read).
struct CheckoutRequest {
  DopId dop;
  DovId dov;
  bool take_derivation_lock = false;
};

/// Checkin of a derived version (its own ACID unit at the repository).
struct CheckinRequest {
  DopId dop;
  storage::DesignObject object;
  std::vector<DovId> predecessors;
  SimTime created_at = 0;
};

/// End-of-DOP, commit outcome: release the DOP's derivation locks.
struct CommitDopRequest {
  DopId dop;
};

/// End-of-DOP, abort outcome.
struct AbortDopRequest {
  DopId dop;
};

/// DA registered for a DOP (introspection / recovery).
struct DaOfDopRequest {
  DopId dop;
};

/// 2PC phase 1: the server's vote for transaction `txn`. The server-TM
/// always votes yes when reachable (each repository operation is its
/// own ACID unit there); the leg exists so unreachability is detected
/// before any state-changing request and so the protocol's message
/// pattern stays observable.
struct PrepareRequest {
  TxnId txn;
};

/// 2PC phase 2: the coordinator's decision.
struct DecideRequest {
  TxnId txn;
  bool commit = true;
};

/// One operation in the envelope. The alternative order is the wire
/// tag — append new request types at the end, never reorder.
using ServerRequest =
    std::variant<BeginDopRequest, CheckoutRequest, CheckinRequest,
                 CommitDopRequest, AbortDopRequest, DaOfDopRequest,
                 PrepareRequest, DecideRequest>;

/// The envelope: requests executed on the server, one round trip for
/// the lot. DispatchBatch runs the data requests one ServerTm::Execute
/// call each, in envelope order. By default the ops form a dependent
/// chain: data requests after a failed data request are skipped (their
/// reply carries kAborted) — so [Checkin, CommitDop] cannot commit a
/// DOP whose checkin failed the integrity test — while the
/// Prepare/Decide control legs always execute. Setting `independent`
/// declares the ops unrelated: every one executes regardless of the
/// others' failures. The recovery warm-up uses this — one withdrawn
/// input must not keep the still-visible ones cold.
struct BatchRequest {
  std::vector<ServerRequest> ops;
  bool independent = false;
};

// --- Replies --------------------------------------------------------------

/// Reply payload for requests that only acknowledge.
struct AckReply {};

struct CheckoutReply {
  storage::DovRecord record;
};

struct CheckinReply {
  DovId dov;
};

struct DaOfDopReply {
  DaId da;
};

struct PrepareReply {
  bool vote = false;
};

/// One reply per request, same order. `status` carries the typed
/// application outcome (lock conflict, scope denial, unknown DOP, ...)
/// end to end — transport-level failures surface as the Execute()
/// result instead, so retries never mask an application error.
struct ServerReply {
  Status status;
  std::variant<AckReply, CheckoutReply, CheckinReply, DaOfDopReply,
               PrepareReply>
      body;
};

struct BatchReply {
  std::vector<ServerReply> ops;
};

// --- Service interface ----------------------------------------------------

class ServerTm;

/// The client side of the server-TM protocol. Exactly one transport
/// primitive — Execute, one envelope per server round trip — so every
/// implementation funnels through the same serializable surface.
/// ClientTm programs only against this interface; it neither includes
/// nor stores a ServerTm.
class ServerService {
 public:
  virtual ~ServerService() = default;

  /// Node the service's server-TM runs on (for message accounting).
  virtual NodeId server_node() const = 0;

  /// Ships the envelope, executes it on the server, returns the
  /// replies (one per request, same order). Non-OK only for transport
  /// failure: server unreachable, retries exhausted, malformed wire
  /// payload. Application outcomes ride inside the replies.
  virtual Result<BatchReply> Execute(const BatchRequest& batch) = 0;
};

/// The one client-side stub: encodes the envelope, runs
/// kServerServiceMethod through `call`, decodes the reply and checks
/// it answers every request. The transport is whatever `call` is bound
/// to; a retried call's reply comes from the server's at-most-once
/// table, so a checkin never executes twice.
class ServerStub final : public ServerService {
 public:
  /// `server_node` is the NodeId the far end serves (shard routing and
  /// message accounting key off it).
  ServerStub(NodeId server_node, rpc::CallFn call)
      : server_node_(server_node), call_(std::move(call)) {}

  NodeId server_node() const override { return server_node_; }

  /// Transport errors come back unchanged; an undecodable reply is
  /// kInvalidArgument, a reply of the wrong arity kInternal.
  Result<BatchReply> Execute(const BatchRequest& batch) override;

 private:
  const NodeId server_node_;
  const rpc::CallFn call_;
};

/// Executes the envelope against a server-TM: the shared server-side
/// dispatch behind every endpoint (ServerServiceHandler below).
/// One loop serves every envelope shape: each data op is one
/// ServerTm::Execute call, in envelope order, and the skip-after-failure
/// rule documented on BatchRequest holds unless the envelope is
/// independent. A phase-1 envelope ([Prepare, ops...] with no
/// Decide) makes those calls staged ones, which stage its state changes
/// in the server-TM's 2PC ledger, and persists the stage before the
/// yes-vote.
BatchReply DispatchBatch(ServerTm& server, const BatchRequest& batch);

// --- Wire codec (common/serde framing) ------------------------------------

std::string EncodeBatchRequest(const BatchRequest& batch);
Result<BatchRequest> DecodeBatchRequest(std::string_view payload);

std::string EncodeBatchReply(const BatchReply& reply);
Result<BatchReply> DecodeBatchReply(std::string_view payload);

/// RPC method name the server-side endpoint registers under.
inline constexpr const char* kServerServiceMethod = "txn.ServerService/Execute";

/// The one server-side handler: decodes a BatchRequest, runs
/// DispatchBatch against `server` and encodes the BatchReply. Register
/// it under kServerServiceMethod on either transport. Application
/// statuses travel INSIDE the (OK) reply, so the transport's dedup table
/// caches every executed envelope: a retry after a lost reply re-sends
/// the recorded outcome instead of re-executing.
rpc::TransactionalRpc::Handler ServerServiceHandler(ServerTm* server);

}  // namespace concord::txn

#endif  // CONCORD_TXN_SERVER_SERVICE_H_
