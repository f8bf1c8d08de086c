#include "txn/server_service.h"

#include <utility>

#include "common/serde.h"
#include "storage/wal_codec.h"
#include "txn/server_tm.h"

namespace concord::txn {

namespace {

// Wire tags. Stable on-the-wire values matching the ServerRequest
// variant order — append only, never reorder.
constexpr uint8_t kTagBeginDop = 0;
constexpr uint8_t kTagCheckout = 1;
constexpr uint8_t kTagCheckin = 2;
constexpr uint8_t kTagCommitDop = 3;
constexpr uint8_t kTagAbortDop = 4;
constexpr uint8_t kTagDaOfDop = 5;
constexpr uint8_t kTagPrepare = 6;
constexpr uint8_t kTagDecide = 7;

// Reply body tags, matching the ServerReply::body variant order.
constexpr uint8_t kBodyAck = 0;
constexpr uint8_t kBodyCheckout = 1;
constexpr uint8_t kBodyCheckin = 2;
constexpr uint8_t kBodyDaOfDop = 3;
constexpr uint8_t kBodyPrepare = 4;

/// Upper bound on the per-envelope request count: a corrupt count must
/// read as a malformed payload, not as an allocation request.
constexpr uint32_t kMaxBatchOps = 1u << 20;

void EncodeStatus(std::string* out, const Status& status) {
  PutByte(out, static_cast<uint8_t>(status.code()));
  PutLengthPrefixed(out, status.ok() ? std::string_view() : status.message());
}

bool DecodeStatus(ByteReader* in, Status* status) {
  uint8_t code = 0;
  std::string_view message;
  if (!in->ReadByte(&code) ||
      code > static_cast<uint8_t>(StatusCode::kWrongShard) ||
      !in->ReadLengthPrefixed(&message)) {
    return false;
  }
  *status = code == 0 ? Status::OK()
                      : Status(static_cast<StatusCode>(code),
                               std::string(message));
  return true;
}

void EncodeDovIdList(std::string* out, const std::vector<DovId>& ids) {
  PutFixed32(out, static_cast<uint32_t>(ids.size()));
  for (DovId id : ids) PutFixed64(out, id.value());
}

bool DecodeDovIdList(ByteReader* in, std::vector<DovId>* ids) {
  uint32_t count = 0;
  if (!in->ReadFixed32(&count)) return false;
  // Never reserve from a raw wire count: each id costs 8 bytes of
  // input, so anything beyond remaining()/8 is provably malformed and
  // must fail in the read loop, not as a giant allocation.
  if (count > in->remaining() / sizeof(uint64_t)) return false;
  ids->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t value = 0;
    if (!in->ReadFixed64(&value)) return false;
    ids->push_back(DovId(value));
  }
  return true;
}

void EncodeRequest(std::string* out, const ServerRequest& op) {
  if (const auto* begin = std::get_if<BeginDopRequest>(&op)) {
    PutByte(out, kTagBeginDop);
    PutFixed64(out, begin->dop.value());
    PutFixed64(out, begin->da.value());
  } else if (const auto* checkout = std::get_if<CheckoutRequest>(&op)) {
    PutByte(out, kTagCheckout);
    PutFixed64(out, checkout->dop.value());
    PutFixed64(out, checkout->dov.value());
    PutByte(out, checkout->take_derivation_lock ? 1 : 0);
  } else if (const auto* checkin = std::get_if<CheckinRequest>(&op)) {
    PutByte(out, kTagCheckin);
    PutFixed64(out, checkin->dop.value());
    PutLengthPrefixed(out, storage::EncodeDesignObject(checkin->object));
    EncodeDovIdList(out, checkin->predecessors);
    PutFixed64(out, static_cast<uint64_t>(checkin->created_at));
  } else if (const auto* commit = std::get_if<CommitDopRequest>(&op)) {
    PutByte(out, kTagCommitDop);
    PutFixed64(out, commit->dop.value());
  } else if (const auto* abort = std::get_if<AbortDopRequest>(&op)) {
    PutByte(out, kTagAbortDop);
    PutFixed64(out, abort->dop.value());
  } else if (const auto* da_of = std::get_if<DaOfDopRequest>(&op)) {
    PutByte(out, kTagDaOfDop);
    PutFixed64(out, da_of->dop.value());
  } else if (const auto* prepare = std::get_if<PrepareRequest>(&op)) {
    PutByte(out, kTagPrepare);
    PutFixed64(out, prepare->txn.value());
  } else if (const auto* decide = std::get_if<DecideRequest>(&op)) {
    PutByte(out, kTagDecide);
    PutFixed64(out, decide->txn.value());
    PutByte(out, decide->commit ? 1 : 0);
  }
}

bool DecodeRequest(ByteReader* in, ServerRequest* op) {
  uint8_t tag = 0;
  if (!in->ReadByte(&tag)) return false;
  switch (tag) {
    case kTagBeginDop: {
      uint64_t dop = 0;
      uint64_t da = 0;
      if (!in->ReadFixed64(&dop) || !in->ReadFixed64(&da)) return false;
      *op = BeginDopRequest{DopId(dop), DaId(da)};
      return true;
    }
    case kTagCheckout: {
      uint64_t dop = 0;
      uint64_t dov = 0;
      uint8_t lock = 0;
      if (!in->ReadFixed64(&dop) || !in->ReadFixed64(&dov) ||
          !in->ReadByte(&lock)) {
        return false;
      }
      *op = CheckoutRequest{DopId(dop), DovId(dov), lock != 0};
      return true;
    }
    case kTagCheckin: {
      CheckinRequest checkin;
      uint64_t dop = 0;
      std::string_view object_bytes;
      uint64_t created_at = 0;
      if (!in->ReadFixed64(&dop) || !in->ReadLengthPrefixed(&object_bytes)) {
        return false;
      }
      auto object = storage::DecodeDesignObject(object_bytes);
      if (!object.ok()) return false;
      checkin.dop = DopId(dop);
      checkin.object = std::move(*object);
      if (!DecodeDovIdList(in, &checkin.predecessors) ||
          !in->ReadFixed64(&created_at)) {
        return false;
      }
      checkin.created_at = static_cast<SimTime>(created_at);
      *op = std::move(checkin);
      return true;
    }
    case kTagCommitDop: {
      uint64_t dop = 0;
      if (!in->ReadFixed64(&dop)) return false;
      *op = CommitDopRequest{DopId(dop)};
      return true;
    }
    case kTagAbortDop: {
      uint64_t dop = 0;
      if (!in->ReadFixed64(&dop)) return false;
      *op = AbortDopRequest{DopId(dop)};
      return true;
    }
    case kTagDaOfDop: {
      uint64_t dop = 0;
      if (!in->ReadFixed64(&dop)) return false;
      *op = DaOfDopRequest{DopId(dop)};
      return true;
    }
    case kTagPrepare: {
      uint64_t txn = 0;
      if (!in->ReadFixed64(&txn)) return false;
      *op = PrepareRequest{TxnId(txn)};
      return true;
    }
    case kTagDecide: {
      uint64_t txn = 0;
      uint8_t commit = 0;
      if (!in->ReadFixed64(&txn) || !in->ReadByte(&commit)) return false;
      *op = DecideRequest{TxnId(txn), commit != 0};
      return true;
    }
    default:
      return false;
  }
}

void EncodeReply(std::string* out, const ServerReply& reply) {
  EncodeStatus(out, reply.status);
  if (const auto* checkout = std::get_if<CheckoutReply>(&reply.body)) {
    PutByte(out, kBodyCheckout);
    PutLengthPrefixed(out, storage::EncodeDovRecord(checkout->record));
  } else if (const auto* checkin = std::get_if<CheckinReply>(&reply.body)) {
    PutByte(out, kBodyCheckin);
    PutFixed64(out, checkin->dov.value());
  } else if (const auto* da_of = std::get_if<DaOfDopReply>(&reply.body)) {
    PutByte(out, kBodyDaOfDop);
    PutFixed64(out, da_of->da.value());
  } else if (const auto* prepare = std::get_if<PrepareReply>(&reply.body)) {
    PutByte(out, kBodyPrepare);
    PutByte(out, prepare->vote ? 1 : 0);
  } else {
    PutByte(out, kBodyAck);
  }
}

bool DecodeReply(ByteReader* in, ServerReply* reply) {
  uint8_t tag = 0;
  if (!DecodeStatus(in, &reply->status) || !in->ReadByte(&tag)) return false;
  switch (tag) {
    case kBodyAck:
      reply->body = AckReply{};
      return true;
    case kBodyCheckout: {
      std::string_view record_bytes;
      if (!in->ReadLengthPrefixed(&record_bytes)) return false;
      auto record = storage::DecodeDovRecord(record_bytes);
      if (!record.ok()) return false;
      reply->body = CheckoutReply{std::move(*record)};
      return true;
    }
    case kBodyCheckin: {
      uint64_t dov = 0;
      if (!in->ReadFixed64(&dov)) return false;
      reply->body = CheckinReply{DovId(dov)};
      return true;
    }
    case kBodyDaOfDop: {
      uint64_t da = 0;
      if (!in->ReadFixed64(&da)) return false;
      reply->body = DaOfDopReply{DaId(da)};
      return true;
    }
    case kBodyPrepare: {
      uint8_t vote = 0;
      if (!in->ReadByte(&vote)) return false;
      reply->body = PrepareReply{vote != 0};
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

// --- Server-side dispatch -------------------------------------------------

BatchReply DispatchBatch(ServerTm& server, const BatchRequest& batch) {
  // Envelope shapes:
  //  - [Prepare, ops..., Decide]: the single-participant degenerate
  //    case — both 2PC legs ride one envelope, ops apply directly.
  //  - [Prepare, ops...]: phase 1 of a multi-participant transaction —
  //    the ops run as staged executor calls, which stage their state
  //    changes in the ledger. Registrations are enlistment, not data:
  //    they apply immediately and SURVIVE a Decide(abort), exactly like
  //    the degenerate envelope (where a failed checkin skips the commit
  //    but leaves the Begin-of-DOP standing). The client records the
  //    node as a participant on the Begin reply, so both sides agree
  //    the node is enlisted whatever the outcome — End-of-DOP releases
  //    the registration either way.
  //  - [Decide]: phase 2 — resolves the staged transaction.
  //  - no control ops at all: plain direct execution.
  const PrepareRequest* prepare = nullptr;
  bool has_decide = false;
  for (const ServerRequest& op : batch.ops) {
    if (const auto* p = std::get_if<PrepareRequest>(&op)) {
      if (prepare == nullptr) prepare = p;
    } else if (std::holds_alternative<DecideRequest>(op)) {
      has_decide = true;
    }
  }
  const bool phase_one = prepare != nullptr && !has_decide;
  const TxnId stage = phase_one ? prepare->txn : TxnId();

  BatchReply out;
  out.ops.resize(batch.ops.size());
  // An independent envelope's data ops are order-free: one executor
  // call runs them all as partition wavefronts, every executor the
  // envelope touches working its slice at once. The loop below then
  // only answers the control legs. A dependent envelope runs one op
  // per call, so a failure can skip the rest.
  if (batch.independent) server.Execute(batch.ops, out.ops, stage);
  bool failed = false;
  for (size_t i = 0; i < batch.ops.size(); ++i) {
    const ServerRequest& op = batch.ops[i];
    ServerReply& reply = out.ops[i];
    if (std::holds_alternative<PrepareRequest>(op)) {
      // Reachability IS the vote: in the degenerate envelope every
      // repository write is its own ACID unit, and in phase 1 arrival
      // plus successful staging is the vote (the persist gate below
      // may still flip it).
      reply.body = PrepareReply{true};
    } else if (const auto* decide = std::get_if<DecideRequest>(&op)) {
      // In the degenerate envelope the ops already applied and the
      // ledger holds nothing — Decide acknowledges trivially. As a
      // standalone phase-2 envelope it resolves the staged txn.
      reply.status = server.Decide(decide->txn, decide->commit);
    } else if (batch.independent) {
      // Answered by the executor call above.
    } else if (failed) {
      reply.status = Status::Aborted(
          "skipped: an earlier request in the batch failed");
    } else {
      server.Execute({&op, 1}, {&reply, 1}, stage);
    }
    if (!reply.status.ok()) failed = true;
  }
  // Durability gate on a phase-1 yes-vote: the staged effects must
  // survive a kill -9 between this reply and the coordinator's Decide,
  // so the ledger entry is persisted BEFORE the vote leaves the server.
  // A server that cannot persist flips its vote to no (the coordinator
  // then aborts). Skipped when an op already failed — the coordinator
  // cannot commit such a transaction.
  if (phase_one && !failed) {
    Status persisted = server.PersistPrepared(stage);
    if (!persisted.ok()) {
      for (size_t i = 0; i < batch.ops.size(); ++i) {
        if (std::holds_alternative<PrepareRequest>(batch.ops[i])) {
          out.ops[i].status = persisted;
          out.ops[i].body = PrepareReply{false};
        }
      }
    }
  }
  return out;
}

// --- Wire codec -----------------------------------------------------------

std::string EncodeBatchRequest(const BatchRequest& batch) {
  std::string out;
  PutByte(&out, batch.independent ? 1 : 0);
  PutFixed32(&out, static_cast<uint32_t>(batch.ops.size()));
  for (const ServerRequest& op : batch.ops) EncodeRequest(&out, op);
  return out;
}

Result<BatchRequest> DecodeBatchRequest(std::string_view payload) {
  ByteReader in(payload);
  uint8_t independent = 0;
  uint32_t count = 0;
  // Every encoded request costs at least a tag byte, so a count beyond
  // the remaining bytes is provably corrupt — reject before reserving.
  if (!in.ReadByte(&independent) || !in.ReadFixed32(&count) ||
      count > kMaxBatchOps || count > in.remaining()) {
    return Status::InvalidArgument("malformed batch-request header");
  }
  BatchRequest batch;
  batch.independent = independent != 0;
  batch.ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ServerRequest op;
    if (!DecodeRequest(&in, &op)) {
      return Status::InvalidArgument("malformed batch-request payload");
    }
    batch.ops.push_back(std::move(op));
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("batch request has trailing bytes");
  }
  return batch;
}

std::string EncodeBatchReply(const BatchReply& reply) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(reply.ops.size()));
  for (const ServerReply& op : reply.ops) EncodeReply(&out, op);
  return out;
}

Result<BatchReply> DecodeBatchReply(std::string_view payload) {
  ByteReader in(payload);
  uint32_t count = 0;
  // A reply costs at least the status byte + message length prefix.
  if (!in.ReadFixed32(&count) || count > kMaxBatchOps ||
      count > in.remaining()) {
    return Status::InvalidArgument("malformed batch-reply header");
  }
  BatchReply reply;
  reply.ops.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ServerReply op;
    if (!DecodeReply(&in, &op)) {
      return Status::InvalidArgument("malformed batch-reply payload");
    }
    reply.ops.push_back(std::move(op));
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("batch reply has trailing bytes");
  }
  return reply;
}

// --- Stub and handler -----------------------------------------------------

Result<BatchReply> ServerStub::Execute(const BatchRequest& batch) {
  CONCORD_ASSIGN_OR_RETURN(
      std::string wire, call_(kServerServiceMethod, EncodeBatchRequest(batch)));
  CONCORD_ASSIGN_OR_RETURN(BatchReply reply, DecodeBatchReply(wire));
  if (reply.ops.size() != batch.ops.size()) {
    return Status::Internal("server-service reply arity mismatch");
  }
  return reply;
}

rpc::TransactionalRpc::Handler ServerServiceHandler(ServerTm* server) {
  return [server](const std::string& request) -> Result<std::string> {
    CONCORD_ASSIGN_OR_RETURN(BatchRequest batch, DecodeBatchRequest(request));
    return EncodeBatchReply(DispatchBatch(*server, batch));
  };
}

}  // namespace concord::txn
