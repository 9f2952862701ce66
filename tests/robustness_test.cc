// Adversarial robustness: duplicate deliveries, stray and stale protocol
// messages, out-of-range untrusted input, and randomized message fuzzing
// against a live cluster. The contract: a site never crashes, never
// corrupts its replica, and keeps serving transactions.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cluster.h"
#include "txn/workload.h"

namespace miniraid {
namespace {

TxnSpec MakeTxn(TxnId id, std::vector<Operation> ops) {
  TxnSpec txn;
  txn.id = id;
  txn.ops = std::move(ops);
  return txn;
}

ClusterOptions SmallOptions() {
  ClusterOptions options;
  options.n_sites = 3;
  options.db_size = 8;
  return options;
}

TEST(RobustnessTest, OutOfRangeItemsRejectedNotCrashed) {
  auto cluster_owner = MakeSimCluster(SmallOptions());
  SimCluster& cluster = *cluster_owner;
  const TxnResult reply =
      cluster.RunTxn(MakeTxn(1, {Operation::Write(999, 1)}), 0);
  EXPECT_EQ(reply.outcome, TxnOutcome::kRejectedInvalid);
  // The cluster still works.
  EXPECT_EQ(cluster.RunTxn(MakeTxn(2, {Operation::Write(1, 1)}), 0).outcome,
            TxnOutcome::kCommitted);
}

TEST(RobustnessTest, DuplicateCommitIsIdempotent) {
  auto cluster_owner = MakeSimCluster(SmallOptions());
  SimCluster& cluster = *cluster_owner;
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(2, 5)}), 0).outcome,
            TxnOutcome::kCommitted);
  // Replay the commit to a participant after the transaction finished.
  (void)cluster.transport().Send(MakeMessage(0, 1, CommitArgs{1, {1}, {}}));
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.site(1).db().Read(2)->value, 5);
  EXPECT_EQ(cluster.site(1).db().Read(2)->version, 1u);
  EXPECT_TRUE(cluster.CheckReplicaAgreement().ok());
}

TEST(RobustnessTest, StrayAcksAndRepliesIgnored) {
  auto cluster_owner = MakeSimCluster(SmallOptions());
  SimCluster& cluster = *cluster_owner;
  (void)cluster.transport().Send(
      MakeMessage(1, 0, PrepareAckArgs{77, true, {}, {}}));
  (void)cluster.transport().Send(MakeMessage(1, 0, CommitAckArgs{77}));
  CopyReplyArgs stray_copy;
  stray_copy.txn = 77;
  stray_copy.copies = {ItemCopy{1, 999, 42}};
  (void)cluster.transport().Send(MakeMessage(1, 0, stray_copy));
  cluster.RunUntilIdle();
  // The stray copy reply must not have been installed.
  EXPECT_EQ(cluster.site(0).db().Read(1)->version, 0u);
  EXPECT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0).outcome,
            TxnOutcome::kCommitted);
}

TEST(RobustnessTest, StaleAbortForFinishedTxnIgnored) {
  auto cluster_owner = MakeSimCluster(SmallOptions());
  SimCluster& cluster = *cluster_owner;
  ASSERT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(2, 5)}), 0).outcome,
            TxnOutcome::kCommitted);
  (void)cluster.transport().Send(MakeMessage(0, 1, CommitArgs{1, {}, {1}}));
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.site(1).db().Read(2)->value, 5);
}

TEST(RobustnessTest, MalformedClearFailLocksIgnored) {
  auto cluster_owner = MakeSimCluster(SmallOptions());
  SimCluster& cluster = *cluster_owner;
  ClearFailLocksArgs bad;
  bad.txn = 1;
  bad.refreshed_site = 99;           // no such site
  bad.items = {0, 1, 7, 9999};       // includes out-of-range items
  (void)cluster.transport().Send(MakeMessage(1, 0, bad));
  ClearFailLocksArgs bad_items;
  bad_items.txn = 2;
  bad_items.refreshed_site = 1;
  bad_items.items = {9999};
  (void)cluster.transport().Send(MakeMessage(1, 0, bad_items));
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Read(0)}), 0).outcome,
            TxnOutcome::kCommitted);
}

TEST(RobustnessTest, MalformedControlMessagesIgnored) {
  auto cluster_owner = MakeSimCluster(SmallOptions());
  SimCluster& cluster = *cluster_owner;
  (void)cluster.transport().Send(
      MakeMessage(1, 0, RecoveryAnnounceArgs{99, 5}));
  CopyCreateArgs bad_create;
  bad_create.backup_site = 99;
  bad_create.copies = {ItemCopy{0, 1, 1}};
  (void)cluster.transport().Send(MakeMessage(1, 0, bad_create));
  FailureAnnounceArgs bad_failure;
  bad_failure.failed_sites = {FailedSiteEntry{99, 1},
                              FailedSiteEntry{0, 1}};  // includes receiver
  (void)cluster.transport().Send(MakeMessage(1, 0, bad_failure));
  cluster.RunUntilIdle();
  // Receiver did not mark itself down and still coordinates.
  EXPECT_TRUE(cluster.site(0).is_up());
  EXPECT_EQ(cluster.RunTxn(MakeTxn(1, {Operation::Write(0, 1)}), 0).outcome,
            TxnOutcome::kCommitted);
}

TEST(RobustnessTest, WireFuzzAgainstLiveCluster) {
  // Generate random (structurally valid, semantically junk) messages of
  // every type, deliver them between real transactions, and require the
  // cluster to stay consistent and alive.
  auto cluster_owner = MakeSimCluster(SmallOptions());
  SimCluster& cluster = *cluster_owner;
  UniformWorkloadOptions wopts;
  wopts.db_size = 8;
  wopts.max_txn_size = 4;
  wopts.seed = 1;
  UniformWorkload workload(wopts);
  Rng fuzz(997);

  auto random_payload = [&fuzz]() -> Payload {
    const auto pick = fuzz.NextBounded(12);
    const TxnId txn = fuzz.NextBounded(1000);
    const ItemId item = static_cast<ItemId>(fuzz.NextBounded(16));
    const SiteId site = static_cast<SiteId>(fuzz.NextBounded(8));
    switch (pick) {
      case 0:
        return PrepareArgs{
            txn, {}, {site},
            {RoundMember{txn, {ItemWrite{item, Value(fuzz.Next())}}}}};
      case 1:
        return PrepareAckArgs{txn, true, {}, {txn}};
      case 2:
        return CommitArgs{txn, {txn}, {}};
      case 3:
        return CommitAckArgs{txn};
      case 4:
        return CommitArgs{txn, {}, {txn}};
      case 5:
        return CopyRequestArgs{txn, {item, item}};
      case 6:
        return CopyReplyArgs{txn, {ItemCopy{item, 7, fuzz.Next() % 4}}};
      case 7:
        return ClearFailLocksArgs{txn, site, {item}};
      case 8:
        return RecoveryAnnounceArgs{site, fuzz.Next() % 8};
      case 9:
        return RecoveryInfoArgs{{}, {FailLockRow{item, fuzz.Next()}}};
      case 10:
        return FailureAnnounceArgs{{FailedSiteEntry{site, fuzz.Next() % 4}}};
      default:
        return CopyCreateArgs{site, {ItemCopy{item, 1, 1}}};
    }
  };

  uint64_t committed = 0;
  for (int round = 0; round < 120; ++round) {
    for (int j = 0; j < 3; ++j) {
      const SiteId from = static_cast<SiteId>(fuzz.NextBounded(4));
      const SiteId to = static_cast<SiteId>(fuzz.NextBounded(3));
      (void)cluster.transport().Send(MakeMessage(from, to, random_payload()));
    }
    cluster.RunUntilIdle();
    const TxnResult reply = cluster.RunTxn(
        workload.Next(), static_cast<SiteId>(fuzz.NextBounded(3)));
    committed += reply.outcome == TxnOutcome::kCommitted;
  }
  // Fuzz traffic may spuriously mark sites down (forged type-2) or stale,
  // but the cluster must keep making progress and stay uncorrupted for
  // every copy it believes fresh.
  EXPECT_GT(committed, 60u);
}

}  // namespace
}  // namespace miniraid
