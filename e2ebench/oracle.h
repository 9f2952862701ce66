#ifndef MINIRAID_E2EBENCH_ORACLE_H_
#define MINIRAID_E2EBENCH_ORACLE_H_

// The benchmark's own one-copy oracle. It is fed only what the client
// submitted and what the cluster replied, in reply order, and keeps its own
// record of the committed database; it shares no code with the protocol
// engine. Memory stays bounded in the run length so the oracle does not
// swamp the process's peak RSS.

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/invariants.h"
#include "msg/message.h"
#include "txn/transaction.h"

namespace e2ebench {

using miniraid::ItemCopy;
using miniraid::ItemId;
using miniraid::TxnId;
using miniraid::TxnResult;
using miniraid::TxnSpec;
using miniraid::Value;
using miniraid::Version;

class OneCopyOracle {
 public:
  /// `latest_reads`: every read must return the latest write committed
  /// before its transaction was submitted. That is the one-copy guarantee
  /// for a client with one transaction in flight. Without it, a read must
  /// only name a committed (or the initial) write of its item.
  OneCopyOracle(uint32_t n_items, bool latest_reads);

  /// Records one attempt as the client saw it, in the order replies came.
  void Record(const TxnSpec& txn, const TxnResult& result);

  /// Verdict over everything recorded: read violations, plus reads that
  /// named a write which never committed. Empty = all reads were one-copy.
  std::vector<std::string> ReadViolations() const;

  /// Compares the oracle's committed state with every up-to-date copy: a
  /// copy is up to date unless an up site's fail-lock table marks it.
  std::vector<std::string> CheckFinalState(
      const std::vector<miniraid::SiteSnapshot>& sites) const;

  /// Violations found so far (reads checked at Record time only).
  size_t violation_count() const { return violation_count_; }
  uint64_t reads_checked() const { return reads_checked_; }

 private:
  struct Write {
    Version version = 0;
    Value value = 0;
  };
  /// A read whose writer has not replied yet (concurrent mode only).
  struct PendingRead {
    ItemId item = 0;
    Value value = 0;
    TxnId reader = 0;
  };
  /// Committed writes kept per item for the concurrent check, newest last.
  static constexpr size_t kHistory = 32;

  void Violation(std::string what);
  void CheckRead(TxnId reader, const ItemCopy& read);

  bool latest_reads_;
  /// Highest committed writer per item and its value (the one-copy state).
  std::vector<Write> latest_;
  std::vector<std::deque<Write>> history_;
  std::unordered_set<TxnId> aborted_;
  std::unordered_map<TxnId, std::vector<PendingRead>> pending_;
  std::vector<std::string> violations_;
  size_t violation_count_ = 0;
  uint64_t reads_checked_ = 0;
};

}  // namespace e2ebench

#endif  // MINIRAID_E2EBENCH_ORACLE_H_
