#ifndef MINIRAID_BASELINES_QUORUM_SITE_H_
#define MINIRAID_BASELINES_QUORUM_SITE_H_

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "baselines/rowa_site.h"
#include "common/runtime.h"
#include "common/thread_annotations.h"
#include "db/database.h"
#include "net/transport.h"
#include "replication/counters.h"

namespace miniraid {

/// Majority-quorum consensus baseline ([Bern84]-style voting with version
/// numbers): every read collects versions from a majority of sites and
/// takes the freshest; every write installs at a majority. Tolerates any
/// minority of failed sites with no recovery protocol at all (a recovered
/// site simply rejoins; quorum intersection masks its staleness), but pays
/// quorum messages on every read — the classic trade against ROWAA, which
/// reads locally and pays at recovery time instead. Writes commit through
/// rounds of one (round id = transaction id), as in RowaSite.
class QuorumSite : public MessageHandler {
 public:
  QuorumSite(SiteId id, const BaselineSiteOptions& options,
             Transport* transport, SiteRuntime* runtime);

  void OnMessage(const Message& msg) override;

  SiteId id() const { return id_; }
  bool is_up() const { return up_; }
  const Database& db() const { return db_; }
  const SiteCounters& counters() const { return counters_; }

  /// Majority size for this cluster: floor(n/2) + 1.
  uint32_t QuorumSize() const { return options_.n_sites / 2 + 1; }

 private:
  struct Coordination {
    TxnSpec txn;
    SiteId client = kInvalidSite;

    enum class Phase { kReadQuorum, kWriteQuorum, kCommitWait };
    Phase phase = Phase::kReadQuorum;

    uint32_t replies = 1;  // self counts toward both quorums
    std::map<ItemId, ItemState> freshest;
    std::set<SiteId> acked;
    std::vector<ItemWrite> writes;
    std::vector<ItemCopy> reads;
    TimerId timer = kInvalidTimer;
  };

  struct Participation {
    TxnId txn = 0;
    SiteId coordinator = kInvalidSite;
    std::vector<ItemWrite> staged;
    TimerId timer = kInvalidTimer;
  };

  void HandleTxnRequest(const Message& msg);
  void HandleCopyReply(const Message& msg);
  void StartWritePhase();
  void HandlePrepareAck(const Message& msg);
  void HandleCommitAck(const Message& msg);
  void Timeout();
  void FinishCommit();
  void Reply(TxnOutcome outcome);

  void HandleCopyRequest(const Message& msg);
  void HandlePrepare(const Message& msg);
  void HandleCommit(const Message& msg);

  const SiteId id_;
  const BaselineSiteOptions options_;
  Transport* const transport_;
  SiteRuntime* const runtime_;

  // Baseline sites exist only inside BaselineCluster's single-threaded
  // SimRuntime: message handlers, timers, and the driver all execute on the
  // simulation's driving (client) thread, so no two contexts ever overlap.
  bool up_ MR_CONTEXT_CONFINED(client) = true;
  Database db_;
  SiteCounters counters_ MR_CONTEXT_CONFINED(client);
  std::optional<Coordination> coord_ MR_CONTEXT_CONFINED(client);
  std::optional<Participation> part_ MR_CONTEXT_CONFINED(client);
};

}  // namespace miniraid

#endif  // MINIRAID_BASELINES_QUORUM_SITE_H_
