#include "baselines/rowa_site.h"

#include <algorithm>

#include "common/logging.h"

namespace miniraid {

RowaSite::RowaSite(SiteId id, const BaselineSiteOptions& options,
                   Transport* transport, SiteRuntime* runtime)
    : id_(id),
      options_(options),
      transport_(transport),
      runtime_(runtime),
      db_(options.db_size) {}

void RowaSite::OnMessage(const Message& msg) {
  if (!up_ && msg.type != MsgType::kRecoverSite) return;
  switch (msg.type) {
    case MsgType::kTxnRequest:
      HandleTxnRequest(msg);
      break;
    case MsgType::kPrepare:
      HandlePrepare(msg);
      break;
    case MsgType::kPrepareAck:
      HandlePrepareAck(msg);
      break;
    case MsgType::kCommit:
      HandleCommit(msg);
      break;
    case MsgType::kCommitAck:
      HandleCommitAck(msg);
      break;
    case MsgType::kCopyRequest:
      HandleCopyRequest(msg);
      break;
    case MsgType::kCopyReply:
      HandleCopyReply(msg);
      break;
    case MsgType::kFailSite:
      up_ = false;
      recovering_ = false;
      if (coord_) {
        runtime_->CancelTimer(coord_->timer);
        coord_.reset();
      }
      if (part_) {
        runtime_->CancelTimer(part_->timer);
        part_.reset();
      }
      break;
    case MsgType::kRecoverSite:
      StartRecovery();
      break;
    default:
      break;
  }
}

void RowaSite::HandleTxnRequest(const Message& msg) {
  if (recovering_ || coord_) return;  // client times out
  ++counters_.txns_coordinated;
  coord_.emplace();
  coord_->txn = msg.As<TxnRequestArgs>().txn;
  coord_->client = msg.from;

  for (const Operation& op : coord_->txn.ops) {
    if (op.is_read()) {
      const ItemState state = *db_.Read(op.item);
      coord_->reads.push_back(ItemCopy{op.item, state.value, state.version});
    } else {
      auto it = std::find_if(
          coord_->writes.begin(), coord_->writes.end(),
          [&op](const ItemWrite& w) { return w.item == op.item; });
      if (it == coord_->writes.end()) {
        coord_->writes.push_back(ItemWrite{op.item, op.value});
      } else {
        it->value = op.value;
      }
    }
  }

  // Read-one: a read-only transaction is served entirely from the local
  // copy; only updates must reach every site.
  if (coord_->writes.empty()) {
    FinishCommit();
    return;
  }

  // Write-ALL: every other site must acknowledge, up or not.
  for (SiteId t = 0; t < options_.n_sites; ++t) {
    if (t == id_) continue;
    coord_->awaiting.insert(t);
    (void)transport_->Send(MakeMessage(
        id_, t,
        PrepareArgs{coord_->txn.id, {}, {}, {RoundMember{coord_->txn.id,
                                                         coord_->writes}}}));
  }
  if (coord_->awaiting.empty()) {
    FinishCommit();
    return;
  }
  coord_->timer =
      runtime_->ScheduleAfter(options_.ack_timeout, [this] { Timeout(); });
}

void RowaSite::HandlePrepareAck(const Message& msg) {
  if (!coord_ || coord_->committing) return;
  if (msg.As<PrepareAckArgs>().round != coord_->txn.id) return;
  coord_->awaiting.erase(msg.from);
  if (!coord_->awaiting.empty()) return;
  runtime_->CancelTimer(coord_->timer);
  coord_->committing = true;
  for (SiteId t = 0; t < options_.n_sites; ++t) {
    if (t == id_) continue;
    coord_->awaiting.insert(t);
    (void)transport_->Send(MakeMessage(
        id_, t, CommitArgs{coord_->txn.id, {coord_->txn.id}, {}}));
  }
  coord_->timer =
      runtime_->ScheduleAfter(options_.ack_timeout, [this] { Timeout(); });
}

void RowaSite::HandleCommitAck(const Message& msg) {
  if (!coord_ || !coord_->committing) return;
  if (msg.As<CommitAckArgs>().round != coord_->txn.id) return;
  coord_->awaiting.erase(msg.from);
  if (!coord_->awaiting.empty()) return;
  runtime_->CancelTimer(coord_->timer);
  FinishCommit();
}

void RowaSite::Timeout() {
  if (!coord_) return;
  if (coord_->committing) {
    // Commit already decided; complete locally (the silent site must copy
    // the whole database at recovery anyway).
    FinishCommit();
    return;
  }
  // Strict ROWA: any unreachable site blocks updates — abort.
  for (SiteId t = 0; t < options_.n_sites; ++t) {
    if (t == id_ || coord_->awaiting.count(t)) continue;
    (void)transport_->Send(MakeMessage(
        id_, t, CommitArgs{coord_->txn.id, {}, {coord_->txn.id}}));
  }
  ++counters_.txns_aborted_participant;
  Reply(TxnOutcome::kAbortedParticipantFailed);
}

void RowaSite::FinishCommit() {
  for (const ItemWrite& write : coord_->writes) {
    (void)db_.CommitWrite(write.item, write.value, coord_->txn.id);
  }
  ++counters_.txns_committed;
  Reply(TxnOutcome::kCommitted);
}

void RowaSite::Reply(TxnOutcome outcome) {
  if (coord_->timer != kInvalidTimer) runtime_->CancelTimer(coord_->timer);
  (void)transport_->Send(MakeMessage(
      id_, coord_->client,
      TxnResult{coord_->txn.id, outcome, 0, coord_->reads}));
  coord_.reset();
}

void RowaSite::HandlePrepare(const Message& msg) {
  if (recovering_) return;  // not serving until refreshed
  const auto& args = msg.As<PrepareArgs>();
  if (args.members.size() != 1) return;  // rounds of one only
  if (part_) {
    runtime_->CancelTimer(part_->timer);
    part_.reset();
  }
  ++counters_.prepares_handled;
  part_.emplace();
  part_->txn = args.round;
  part_->coordinator = msg.from;
  part_->staged = args.members.front().writes;
  (void)transport_->Send(
      MakeMessage(id_, msg.from, PrepareAckArgs{args.round, true, {}, {}}));
  part_->timer = runtime_->ScheduleAfter(3 * options_.ack_timeout, [this] {
    if (part_) part_.reset();  // coordinator gone; discard
  });
}

void RowaSite::HandleCommit(const Message& msg) {
  const auto& args = msg.As<CommitArgs>();
  if (!part_ || part_->txn != args.round) return;
  runtime_->CancelTimer(part_->timer);
  if (args.commits.empty()) {  // abort-only frame: discard
    ++counters_.aborts_handled;
    part_.reset();
    return;
  }
  for (const ItemWrite& write : part_->staged) {
    (void)db_.CommitWrite(write.item, write.value, part_->txn);
  }
  (void)transport_->Send(
      MakeMessage(id_, part_->coordinator, CommitAckArgs{part_->txn}));
  ++counters_.commits_handled;
  part_.reset();
}

void RowaSite::StartRecovery() {
  if (up_) return;
  up_ = true;
  recovering_ = true;
  ++counters_.control1_initiated;
  // No fail-locks: the whole database must be refreshed before serving.
  std::vector<ItemId> all(options_.db_size);
  for (ItemId item = 0; item < options_.db_size; ++item) all[item] = item;
  for (SiteId t = 0; t < options_.n_sites; ++t) {
    if (t == id_) continue;
    (void)transport_->Send(MakeMessage(id_, t, CopyRequestArgs{0, all}));
  }
}

void RowaSite::HandleCopyReply(const Message& msg) {
  if (!recovering_) return;
  const auto& args = msg.As<CopyReplyArgs>();
  if (args.copies.size() < options_.db_size) return;  // partial: ignore
  for (const ItemCopy& copy : args.copies) {
    (void)db_.InstallCopy(copy.item, ItemState{copy.value, copy.version});
  }
  recovering_ = false;
}

void RowaSite::HandleCopyRequest(const Message& msg) {
  if (recovering_) return;
  const auto& args = msg.As<CopyRequestArgs>();
  ++counters_.copy_requests_served;
  CopyReplyArgs reply;
  reply.txn = args.txn;
  for (ItemId item : args.items) {
    const ItemState state = *db_.Read(item);
    reply.copies.push_back(ItemCopy{item, state.value, state.version});
  }
  (void)transport_->Send(MakeMessage(id_, msg.from, std::move(reply)));
}

}  // namespace miniraid
