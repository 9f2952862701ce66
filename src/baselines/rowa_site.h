#ifndef MINIRAID_BASELINES_ROWA_SITE_H_
#define MINIRAID_BASELINES_ROWA_SITE_H_

#include <optional>
#include <set>
#include <vector>

#include "common/runtime.h"
#include "common/thread_annotations.h"
#include "db/database.h"
#include "net/transport.h"
#include "replication/counters.h"

namespace miniraid {

struct BaselineSiteOptions {
  uint32_t n_sites = 2;
  uint32_t db_size = 50;
  SiteId managing_site = kInvalidSite;
  Duration ack_timeout = Milliseconds(1000);
};

/// Strict read-one/write-ALL baseline: the protocol ROWAA improves on.
/// Writes must reach every site; a single down site therefore blocks all
/// update transactions (they abort on the ack timeout) until it recovers.
/// Recovery copies the entire database from an operational peer before the
/// site serves transactions again — there are no fail-locks to tell fresh
/// copies from stale ones, so everything must be refreshed.
///
/// Shares the mini-RAID wire protocol (Prepare/Commit/CopyRequest/...) so
/// it runs over the same transports and drivers. Every commit is a round
/// of one whose round id is the transaction id; an abort is a Commit frame
/// with the transaction in its `aborts` list.
class RowaSite : public MessageHandler {
 public:
  RowaSite(SiteId id, const BaselineSiteOptions& options,
           Transport* transport, SiteRuntime* runtime);

  void OnMessage(const Message& msg) override;

  SiteId id() const { return id_; }
  bool is_up() const { return up_; }
  const Database& db() const { return db_; }
  const SiteCounters& counters() const { return counters_; }

 private:
  struct Coordination {
    TxnSpec txn;
    SiteId client = kInvalidSite;
    std::set<SiteId> awaiting;
    std::vector<ItemWrite> writes;
    std::vector<ItemCopy> reads;
    bool committing = false;
    TimerId timer = kInvalidTimer;
  };

  struct Participation {
    TxnId txn = 0;
    SiteId coordinator = kInvalidSite;
    std::vector<ItemWrite> staged;
    TimerId timer = kInvalidTimer;
  };

  void HandleTxnRequest(const Message& msg);
  void HandlePrepareAck(const Message& msg);
  void HandleCommitAck(const Message& msg);
  void Timeout();
  void FinishCommit();
  void Reply(TxnOutcome outcome);

  void HandlePrepare(const Message& msg);
  void HandleCommit(const Message& msg);

  void StartRecovery();
  void HandleCopyReply(const Message& msg);
  void HandleCopyRequest(const Message& msg);

  const SiteId id_;
  const BaselineSiteOptions options_;
  Transport* const transport_;
  SiteRuntime* const runtime_;

  // Baseline sites exist only inside BaselineCluster's single-threaded
  // SimRuntime: message handlers, timers, and the driver all execute on the
  // simulation's driving (client) thread, so no two contexts ever overlap.
  bool up_ MR_CONTEXT_CONFINED(client) = true;
  bool recovering_ MR_CONTEXT_CONFINED(client) = false;
  Database db_;
  SiteCounters counters_ MR_CONTEXT_CONFINED(client);
  std::optional<Coordination> coord_ MR_CONTEXT_CONFINED(client);
  std::optional<Participation> part_ MR_CONTEXT_CONFINED(client);
};

}  // namespace miniraid

#endif  // MINIRAID_BASELINES_ROWA_SITE_H_
