#include "baselines/quorum_site.h"

#include <algorithm>

#include "common/logging.h"

namespace miniraid {

QuorumSite::QuorumSite(SiteId id, const BaselineSiteOptions& options,
                       Transport* transport, SiteRuntime* runtime)
    : id_(id),
      options_(options),
      transport_(transport),
      runtime_(runtime),
      db_(options.db_size) {}

void QuorumSite::OnMessage(const Message& msg) {
  if (!up_ && msg.type != MsgType::kRecoverSite) return;
  switch (msg.type) {
    case MsgType::kTxnRequest:
      HandleTxnRequest(msg);
      break;
    case MsgType::kCopyRequest:
      HandleCopyRequest(msg);
      break;
    case MsgType::kCopyReply:
      HandleCopyReply(msg);
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
    case MsgType::kFailSite:
      up_ = false;
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
      // No recovery protocol: quorum intersection masks staleness.
      up_ = true;
      ++counters_.control1_initiated;
      break;
    default:
      break;
  }
}

void QuorumSite::HandleTxnRequest(const Message& msg) {
  if (coord_) return;
  ++counters_.txns_coordinated;
  coord_.emplace();
  coord_->txn = msg.As<TxnRequestArgs>().txn;
  coord_->client = msg.from;

  const std::vector<ItemId> read_set = coord_->txn.ReadSet();
  // Seed the quorum with the local copy.
  for (ItemId item : read_set) {
    coord_->freshest[item] = *db_.Read(item);
  }
  if (read_set.empty() || QuorumSize() == 1) {
    StartWritePhase();
    return;
  }
  coord_->phase = Coordination::Phase::kReadQuorum;
  for (SiteId t = 0; t < options_.n_sites; ++t) {
    if (t == id_) continue;
    (void)transport_->Send(
        MakeMessage(id_, t, CopyRequestArgs{coord_->txn.id, read_set}));
  }
  coord_->timer =
      runtime_->ScheduleAfter(options_.ack_timeout, [this] { Timeout(); });
}

void QuorumSite::HandleCopyReply(const Message& msg) {
  if (!coord_ || coord_->phase != Coordination::Phase::kReadQuorum) return;
  const auto& args = msg.As<CopyReplyArgs>();
  if (args.txn != coord_->txn.id) return;
  for (const ItemCopy& copy : args.copies) {
    ItemState& best = coord_->freshest[copy.item];
    if (copy.version > best.version) {
      best = ItemState{copy.value, copy.version};
    }
  }
  if (++coord_->replies < QuorumSize()) return;
  runtime_->CancelTimer(coord_->timer);
  coord_->timer = kInvalidTimer;
  StartWritePhase();
}

void QuorumSite::StartWritePhase() {
  Coordination& c = *coord_;
  for (const Operation& op : c.txn.ops) {
    if (op.is_read()) {
      const ItemState& state = c.freshest[op.item];
      c.reads.push_back(ItemCopy{op.item, state.value, state.version});
    } else {
      auto it = std::find_if(
          c.writes.begin(), c.writes.end(),
          [&op](const ItemWrite& w) { return w.item == op.item; });
      if (it == c.writes.end()) {
        c.writes.push_back(ItemWrite{op.item, op.value});
      } else {
        it->value = op.value;
      }
    }
  }
  if (c.writes.empty() || QuorumSize() == 1) {
    FinishCommit();
    return;
  }
  c.phase = Coordination::Phase::kWriteQuorum;
  c.replies = 1;  // self
  for (SiteId t = 0; t < options_.n_sites; ++t) {
    if (t == id_) continue;
    (void)transport_->Send(MakeMessage(
        id_, t,
        PrepareArgs{c.txn.id, {}, {}, {RoundMember{c.txn.id, c.writes}}}));
  }
  c.timer =
      runtime_->ScheduleAfter(options_.ack_timeout, [this] { Timeout(); });
}

void QuorumSite::HandlePrepareAck(const Message& msg) {
  if (!coord_ || coord_->phase != Coordination::Phase::kWriteQuorum) return;
  if (msg.As<PrepareAckArgs>().round != coord_->txn.id) return;
  coord_->acked.insert(msg.from);
  if (++coord_->replies < QuorumSize()) return;
  runtime_->CancelTimer(coord_->timer);
  // Write quorum assembled: the transaction commits. Tell everyone who
  // staged it (laggards simply stay stale; reads route around them).
  coord_->phase = Coordination::Phase::kCommitWait;
  coord_->replies = 1;
  for (SiteId t : coord_->acked) {
    (void)transport_->Send(MakeMessage(
        id_, t, CommitArgs{coord_->txn.id, {coord_->txn.id}, {}}));
  }
  coord_->timer =
      runtime_->ScheduleAfter(options_.ack_timeout, [this] { Timeout(); });
}

void QuorumSite::HandleCommitAck(const Message& msg) {
  if (!coord_ || coord_->phase != Coordination::Phase::kCommitWait) return;
  if (msg.As<CommitAckArgs>().round != coord_->txn.id) return;
  if (++coord_->replies < QuorumSize()) return;
  runtime_->CancelTimer(coord_->timer);
  FinishCommit();
}

void QuorumSite::Timeout() {
  if (!coord_) return;
  switch (coord_->phase) {
    case Coordination::Phase::kReadQuorum:
    case Coordination::Phase::kWriteQuorum:
      // Quorum unavailable: too many silent sites.
      for (SiteId t : coord_->acked) {
        (void)transport_->Send(MakeMessage(
            id_, t, CommitArgs{coord_->txn.id, {}, {coord_->txn.id}}));
      }
      ++counters_.txns_aborted_participant;
      Reply(TxnOutcome::kAbortedParticipantFailed);
      break;
    case Coordination::Phase::kCommitWait:
      // Commit was already decided at write-quorum time.
      FinishCommit();
      break;
  }
}

void QuorumSite::FinishCommit() {
  for (const ItemWrite& write : coord_->writes) {
    (void)db_.CommitWrite(write.item, write.value, coord_->txn.id);
  }
  ++counters_.txns_committed;
  Reply(TxnOutcome::kCommitted);
}

void QuorumSite::Reply(TxnOutcome outcome) {
  if (coord_->timer != kInvalidTimer) runtime_->CancelTimer(coord_->timer);
  (void)transport_->Send(MakeMessage(
      id_, coord_->client,
      TxnResult{coord_->txn.id, outcome, 0, coord_->reads}));
  coord_.reset();
}

void QuorumSite::HandleCopyRequest(const Message& msg) {
  const auto& args = msg.As<CopyRequestArgs>();
  ++counters_.copy_requests_served;
  CopyReplyArgs reply;
  reply.txn = args.txn;
  for (ItemId item : args.items) {
    if (item >= options_.db_size) continue;
    const ItemState state = *db_.Read(item);
    // Quorum reads always answer — even a stale copy contributes its
    // version to the vote.
    reply.copies.push_back(ItemCopy{item, state.value, state.version});
  }
  (void)transport_->Send(MakeMessage(id_, msg.from, std::move(reply)));
}

void QuorumSite::HandlePrepare(const Message& msg) {
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
    if (part_) part_.reset();
  });
}

void QuorumSite::HandleCommit(const Message& msg) {
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

}  // namespace miniraid
