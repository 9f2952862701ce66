// Commit rounds and group commit (BatchingOptions) end to end: concurrent
// coordinations that share a participant set drain into one kPrepare /
// kCommit round, a lone transaction is a round of one with the classic
// 2PC frame count, coalesced fail-lock maintenance writes the same bits
// separate rounds would, a refused member aborts alone (its round-mates
// commit), and the round handlers tolerate duplicates and answer decision
// queries per member.

#include <gtest/gtest.h>

#include <map>

#include "core/cluster.h"

namespace miniraid {
namespace {

constexpr SiteId kProbe = 77;  // unregistered endpoint injecting messages

ClusterOptions Options(uint32_t n_sites, uint32_t db_size = 12) {
  ClusterOptions options;
  options.n_sites = n_sites;
  options.db_size = db_size;
  options.site.concurrency.mode = ConcurrencyMode::kTwoPhaseLocking;
  options.site.batching.max_batch = 4;
  // Generous linger (virtual time is free) so members submitted together
  // deterministically coalesce regardless of transport latency.
  options.site.batching.batch_linger = Milliseconds(50);
  return options;
}

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

std::vector<TxnResult> RunConcurrently(
    SimCluster& cluster,
    const std::vector<std::pair<TxnSpec, SiteId>>& batch) {
  std::vector<std::optional<TxnResult>> slots(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    cluster.managing().Submit(
        batch[i].first, batch[i].second,
        [&slots, i](const TxnResult& reply) { slots[i] = reply; });
  }
  cluster.RunUntilIdle();
  std::vector<TxnResult> replies;
  for (auto& slot : slots) {
    EXPECT_TRUE(slot.has_value()) << "missing reply";
    replies.push_back(slot.value_or(TxnResult{}));
  }
  return replies;
}

/// Captures everything sent to the probe id.
class Probe : public MessageHandler {
 public:
  void OnMessage(const Message& msg) override { received.push_back(msg); }
  size_t CountOf(MsgType type) const {
    size_t n = 0;
    for (const Message& msg : received) {
      if (msg.type == type) ++n;
    }
    return n;
  }
  std::vector<Message> received;
};

TEST(BatchingTest, SharedParticipantSetDrainsInOneBatchRound) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  // Disjoint write sets, same coordinator: under full replication both
  // coordinations pin the identical participant set and coalesce.
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  for (const TxnResult& reply : replies) {
    EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  }
  const SiteCounters& coord = cluster.site(0).counters();
  EXPECT_EQ(coord.batch_rounds_coordinated, 1u);
  EXPECT_EQ(coord.batch_members_coordinated, 2u);
  EXPECT_EQ(coord.txns_committed, 2u);
  // One kPrepare frame per participant carrying both members (each staged
  // member still counts under prepares_handled).
  for (SiteId s = 1; s <= 2; ++s) {
    EXPECT_EQ(cluster.site(s).counters().batch_prepares_handled, 1u)
        << "site " << s;
    EXPECT_EQ(cluster.site(s).counters().prepares_handled, 2u) << "site " << s;
    EXPECT_EQ(cluster.site(s).db().Read(0)->value, 10);
    EXPECT_EQ(cluster.site(s).db().Read(1)->value, 20);
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(BatchingTest, BatchingOffByDefaultEvenUnderLocking) {
  ClusterOptions options = Options(3);
  options.site.batching = BatchingOptions{};  // max_batch = 1: disabled
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  for (const TxnResult& reply : replies) {
    EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  }
  // Each transaction commits through a round of its own.
  EXPECT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 2u);
  EXPECT_EQ(cluster.site(0).counters().batch_members_coordinated, 2u);
  for (SiteId s = 1; s <= 2; ++s) {
    EXPECT_EQ(cluster.site(s).counters().batch_prepares_handled, 2u);
    EXPECT_EQ(cluster.site(s).counters().prepares_handled, 2u) << "site " << s;
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(BatchingTest, RoundOfOnePutsTheClassicFrameCountOnTheWire) {
  // A transaction that commits alone is a round of one and costs exactly
  // the classic 2PC exchange: per commit, n-1 kPrepare + n-1 kPrepareAck
  // and n-1 kCommit + n-1 kCommitAck, plus the request and the reply. Both
  // with batching off and with a lone member flushed by the linger timer.
  constexpr uint32_t kSites = 4;
  constexpr uint64_t kTxns = 3;
  for (const uint32_t max_batch : {1u, 4u}) {
    ClusterOptions options = Options(kSites);
    options.site.batching.max_batch = max_batch;
    std::map<MsgType, uint64_t> frames;
    options.transport.faults.drop_filter = [&frames](const Message& msg) {
      ++frames[msg.type];
      return false;  // count only
    };
    auto cluster_owner = MakeSimCluster(options);
    SimCluster& cluster = *cluster_owner;
    const uint64_t before = cluster.Stats().messages_sent;
    for (TxnId id = 1; id <= kTxns; ++id) {
      ASSERT_EQ(cluster.RunTxn(MakeTxn(id, {Operation::Write(id, 30)}), 0)
                    .outcome,
                TxnOutcome::kCommitted);
    }
    const uint64_t per_phase = 2 * (kSites - 1) * kTxns;
    EXPECT_EQ(frames[MsgType::kPrepare] + frames[MsgType::kPrepareAck],
              per_phase)
        << "max_batch " << max_batch;
    EXPECT_EQ(frames[MsgType::kCommit] + frames[MsgType::kCommitAck],
              per_phase)
        << "max_batch " << max_batch;
    EXPECT_EQ(cluster.Stats().messages_sent - before,
              2 * per_phase + 2 * kTxns)
        << "max_batch " << max_batch;
    EXPECT_EQ(cluster.site(0).counters().batch_rounds_coordinated, kTxns);
    EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
  }
}

TEST(BatchingTest, CoalescedMaintenanceWritesTheSingletonFailLocks) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  // Fail site 2 and let a throwaway transaction detect and announce it.
  cluster.Fail(2);
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0).outcome,
            TxnOutcome::kAbortedParticipantFailed);
  const uint64_t rounds = cluster.site(0).counters().batch_rounds_coordinated;

  // A batched pair commits at {0, 1}; the coalesced maintenance must set
  // the down site's bit for BOTH written items at both participants —
  // exactly what two separate rounds' maintenance would have written.
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(2, {Operation::Write(5, 50)}), 0},
                {MakeTxn(3, {Operation::Write(6, 60)}), 0}});
  for (const TxnResult& reply : replies) {
    EXPECT_EQ(reply.outcome, TxnOutcome::kCommitted);
  }
  EXPECT_EQ(cluster.site(0).counters().batch_rounds_coordinated, rounds + 1);
  for (SiteId viewer : {0u, 1u}) {
    const FailLockTable& table = cluster.site(viewer).fail_locks();
    EXPECT_TRUE(table.IsSet(5, 2)) << "viewer " << viewer;
    EXPECT_TRUE(table.IsSet(6, 2)) << "viewer " << viewer;
    EXPECT_FALSE(table.IsSet(5, 0));
    EXPECT_FALSE(table.IsSet(6, 1));
  }

  // Recovery + copier repair converge the tables, as after separate rounds.
  cluster.Recover(2);
  EXPECT_EQ(cluster.RunTxn(MakeTxn(4, {Operation::Read(5), Operation::Read(6)}),
                           2)
                .outcome,
            TxnOutcome::kCommitted);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_FALSE(cluster.site(s).fail_locks().IsSet(5, 2)) << "site " << s;
    EXPECT_FALSE(cluster.site(s).fail_locks().IsSet(6, 2)) << "site " << s;
  }
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(BatchingTest, RefusedMemberAbortsAloneBatchMatesCommit) {
  // Contention: an older writer from another coordinator holds item 1
  // while a batch {txn on item 0, txn on item 1} forms at coordinator 0.
  // Whatever interleaving the simulator produces, the uncontended member
  // (item 0) must always commit — a batch-mate's wait-die refusal aborts
  // only the refused member, never the whole round.
  for (uint32_t round = 0; round < 8; ++round) {
    auto cluster_owner = MakeSimCluster(Options(3));
    SimCluster& cluster = *cluster_owner;
    const TxnId base = 10 * (round + 1);
    // Ids: the contending writer is OLDER (smaller id) than the batch
    // members, so under wait-die the batch member requesting item 1 is the
    // one refused when they collide.
    const auto replies = RunConcurrently(
        cluster, {{MakeTxn(base + 1, {Operation::Write(1, 100)}), 1},
                  {MakeTxn(base + 2, {Operation::Write(0, 200)}), 0},
                  {MakeTxn(base + 3, {Operation::Write(1, 300)}), 0}});
    EXPECT_EQ(replies[1].outcome, TxnOutcome::kCommitted)
        << "round " << round << ": uncontended batch member must commit";
    for (const TxnResult& reply : replies) {
      EXPECT_TRUE(reply.outcome == TxnOutcome::kCommitted ||
                  reply.outcome == TxnOutcome::kAbortedLockConflict)
          << "round " << round;
    }
    EXPECT_TRUE(cluster.CheckReplicaAgreement().ok()) << "round " << round;
  }
}

TEST(BatchingTest, DuplicatePrepareAfterCommitReAcksFromOutcomeCache) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  const auto replies = RunConcurrently(
      cluster, {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  ASSERT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 1u);
  const uint64_t staged = cluster.site(1).counters().batch_prepares_handled;

  // Retransmit the whole round from a probe: every member is in the
  // participant's recent-outcome cache as committed, so the site must ack
  // acceptance without re-staging anything or touching the database.
  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  PrepareArgs dup;
  dup.round = 1;
  dup.participants = {0, 1, 2};
  dup.members = {RoundMember{1, {ItemWrite{0, 10}}},
                 RoundMember{2, {ItemWrite{1, 20}}}};
  (void)cluster.transport().Send(MakeMessage(kProbe, 1, std::move(dup)));
  cluster.RunUntilIdle();

  ASSERT_EQ(probe.CountOf(MsgType::kPrepareAck), 1u);
  const auto& ack = probe.received.front().As<PrepareAckArgs>();
  EXPECT_TRUE(ack.accepted);
  EXPECT_TRUE(ack.refused.empty());
  EXPECT_GE(cluster.site(1).counters().duplicate_msgs_ignored, 2u);
  EXPECT_EQ(cluster.site(1).db().Read(0)->version, 1u);  // LWW: version = txn
  EXPECT_EQ(cluster.site(1).db().Read(1)->version, 2u);
  // batch_prepares_handled counts frames, and the duplicate frame still
  // arrived; but no member was staged anew.
  EXPECT_EQ(cluster.site(1).counters().batch_prepares_handled, staged + 1);
}

TEST(BatchingTest, DuplicateCommitAfterTeardownReAcksWithoutReapplying) {
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  (void)RunConcurrently(cluster,
                        {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                         {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  ASSERT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 1u);
  const uint64_t committed = cluster.site(1).counters().commits_handled;

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(
      MakeMessage(kProbe, 1, CommitArgs{1, {1, 2}, {}}));
  cluster.RunUntilIdle();

  // Both members are cached as committed: the site re-acks the whole round
  // (the retrying coordinator may still be waiting) without re-applying.
  EXPECT_EQ(probe.CountOf(MsgType::kCommitAck), 1u);
  EXPECT_EQ(cluster.site(1).counters().commits_handled, committed);
  EXPECT_GE(cluster.site(1).counters().duplicate_msgs_ignored, 2u);
  EXPECT_EQ(cluster.site(1).db().Read(0)->version, 1u);  // LWW: version = txn
  EXPECT_EQ(cluster.site(1).db().Read(1)->version, 2u);
}

TEST(BatchingTest, PostBatchDecisionQueryAnswersEveryMember) {
  // The round outcome demux must
  // record EACH member transaction individually, so an in-doubt
  // participant's later decision query about any one member is answered
  // from the cache — never by presumed abort.
  auto cluster_owner = MakeSimCluster(Options(3));
  SimCluster& cluster = *cluster_owner;
  (void)RunConcurrently(cluster,
                        {{MakeTxn(1, {Operation::Write(0, 10)}), 0},
                         {MakeTxn(2, {Operation::Write(1, 20)}), 0}});
  ASSERT_EQ(cluster.site(0).counters().batch_rounds_coordinated, 1u);

  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  (void)cluster.transport().Send(MakeMessage(kProbe, 0, DecisionQueryArgs{1}));
  (void)cluster.transport().Send(MakeMessage(kProbe, 0, DecisionQueryArgs{2}));
  cluster.RunUntilIdle();

  ASSERT_EQ(probe.CountOf(MsgType::kCommit), 2u);
  for (const Message& answer : probe.received) {
    EXPECT_TRUE(answer.As<CommitArgs>().aborts.empty());
  }
  EXPECT_EQ(cluster.site(0).counters().decision_queries_answered, 2u);
  EXPECT_EQ(cluster.site(0).counters().decisions_presumed_abort, 0u);
}

TEST(BatchingTest, DecisionAnswerForOneMemberKeepsTheRoundAckPending) {
  // A participant whose round is still collecting (one member waits on a
  // lock) receives a decision answer aborting its other member. The answer
  // names one member only: the round's ack must still go out, carrying the
  // aborted member as refused, once the waiting member's lock arrives.
  ClusterOptions options = Options(2);
  options.site.ack_timeout = Seconds(10);  // keep patience timers quiet
  auto cluster_owner = MakeSimCluster(options);
  SimCluster& cluster = *cluster_owner;
  Probe probe;
  cluster.transport().Register(kProbe, &probe);
  auto step = [&cluster] {
    cluster.runtime().RunUntil(cluster.Now() + Milliseconds(50));
  };
  // Round 6: a younger transaction (20) takes item 1 at site 1 and acks.
  (void)cluster.transport().Send(MakeMessage(
      kProbe, 1, PrepareArgs{6, {}, {1, kProbe},
                             {RoundMember{20, {ItemWrite{1, 200}}}}}));
  step();
  ASSERT_EQ(probe.CountOf(MsgType::kPrepareAck), 1u);
  // Round 5: member 10 locks item 0 at once; the older member 11 waits
  // (wait-die) behind transaction 20 on item 1.
  (void)cluster.transport().Send(MakeMessage(
      kProbe, 1,
      PrepareArgs{5, {}, {1, kProbe},
                  {RoundMember{10, {ItemWrite{0, 100}}},
                   RoundMember{11, {ItemWrite{1, 110}}}}}));
  step();
  ASSERT_EQ(probe.CountOf(MsgType::kPrepareAck), 1u);  // round 5 waits
  // A decision answer (round 0) aborts member 10 alone.
  (void)cluster.transport().Send(
      MakeMessage(kProbe, 1, CommitArgs{0, {}, {10}}));
  step();
  EXPECT_EQ(probe.CountOf(MsgType::kPrepareAck), 1u);  // 11 still waits
  // Round 6 aborts, releasing item 1: member 11 is granted, and round 5's
  // ack goes out with member 10 refused.
  (void)cluster.transport().Send(
      MakeMessage(kProbe, 1, CommitArgs{6, {}, {20}}));
  step();
  ASSERT_EQ(probe.CountOf(MsgType::kPrepareAck), 2u);
  const auto& ack = probe.received.back().As<PrepareAckArgs>();
  EXPECT_EQ(ack.round, 5u);
  EXPECT_TRUE(ack.accepted);
  EXPECT_EQ(ack.refused, std::vector<TxnId>{10});
}

}  // namespace
}  // namespace miniraid
