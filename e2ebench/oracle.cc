#include "oracle.h"

#include <algorithm>
#include <map>

namespace e2ebench {

namespace {

/// Last value each item is written to by `txn` (later writes in one
/// transaction replace earlier ones).
std::map<ItemId, Value> FinalWrites(const TxnSpec& txn) {
  std::map<ItemId, Value> writes;
  for (const miniraid::Operation& op : txn.ops) {
    if (op.is_write()) writes[op.item] = op.value;
  }
  return writes;
}

std::string Describe(TxnId reader, ItemId item, Version version, Value value) {
  return "txn " + std::to_string(reader) + " read item " +
         std::to_string(item) + " = (version " + std::to_string(version) +
         ", value " + std::to_string(value) + ")";
}

}  // namespace

OneCopyOracle::OneCopyOracle(uint32_t n_items, bool latest_reads)
    : latest_reads_(latest_reads), latest_(n_items), history_(n_items) {}

void OneCopyOracle::Violation(std::string what) {
  ++violation_count_;
  // A broken run can produce millions; the first few say what went wrong.
  if (violations_.size() < 20) violations_.push_back(std::move(what));
}

void OneCopyOracle::CheckRead(TxnId reader, const ItemCopy& read) {
  ++reads_checked_;
  if (read.item >= latest_.size()) {
    Violation(Describe(reader, read.item, read.version, read.value) +
              ": item out of range");
    return;
  }
  if (latest_reads_) {
    const Write& want = latest_[read.item];
    if (read.version != want.version || read.value != want.value) {
      Violation(Describe(reader, read.item, read.version, read.value) +
                ", latest committed write is (version " +
                std::to_string(want.version) + ", value " +
                std::to_string(want.value) + ")");
    }
    return;
  }
  if (read.version == 0) {
    if (read.value != 0) {
      Violation(Describe(reader, read.item, read.version, read.value) +
                ": initial version with a non-initial value");
    }
    return;
  }
  for (const Write& w : history_[read.item]) {
    if (w.version != read.version) continue;
    if (w.value != read.value) {
      Violation(Describe(reader, read.item, read.version, read.value) +
                ", but that txn wrote " + std::to_string(w.value));
    }
    return;
  }
  if (aborted_.count(read.version) != 0) {
    Violation(Describe(reader, read.item, read.version, read.value) +
              ": written by an aborted txn");
    return;
  }
  pending_[read.version].push_back(PendingRead{read.item, read.value, reader});
}

void OneCopyOracle::Record(const TxnSpec& txn, const TxnResult& result) {
  if (!result.committed()) {
    aborted_.insert(txn.id);
    auto it = pending_.find(txn.id);
    if (it != pending_.end()) {
      for (const PendingRead& r : it->second) {
        Violation(Describe(r.reader, r.item, txn.id, r.value) +
                  ": written by an aborted txn");
      }
      pending_.erase(it);
    }
    return;
  }
  for (const ItemCopy& read : result.reads) CheckRead(txn.id, read);

  const std::map<ItemId, Value> writes = FinalWrites(txn);
  for (const auto& [item, value] : writes) {
    if (item >= latest_.size()) continue;  // rejected by the cluster anyway
    if (txn.id > latest_[item].version) latest_[item] = Write{txn.id, value};
    if (!latest_reads_) {
      std::deque<Write>& h = history_[item];
      h.push_back(Write{txn.id, value});
      if (h.size() > kHistory) h.pop_front();
    }
  }
  auto it = pending_.find(txn.id);
  if (it != pending_.end()) {
    for (const PendingRead& r : it->second) {
      auto w = writes.find(r.item);
      if (w == writes.end() || w->second != r.value) {
        Violation(Describe(r.reader, r.item, txn.id, r.value) +
                  ": no such write by that txn");
      }
    }
    pending_.erase(it);
  }
}

std::vector<std::string> OneCopyOracle::ReadViolations() const {
  std::vector<std::string> out = violations_;
  for (const auto& [writer, reads] : pending_) {
    for (const PendingRead& r : reads) {
      if (out.size() >= 40) return out;
      out.push_back(Describe(r.reader, r.item, writer, r.value) +
                    ": that write never committed");
    }
  }
  return out;
}

std::vector<std::string> OneCopyOracle::CheckFinalState(
    const std::vector<miniraid::SiteSnapshot>& sites) const {
  std::vector<std::string> out;
  for (const miniraid::SiteSnapshot& site : sites) {
    for (ItemId item = 0; item < latest_.size(); ++item) {
      if (item >= site.db.size() || !site.db[item].has_value()) continue;
      const bool stale = std::any_of(
          sites.begin(), sites.end(), [&](const miniraid::SiteSnapshot& up) {
            return up.status == miniraid::SiteStatus::kUp &&
                   up.fail_locks.IsSet(item, site.id);
          });
      if (stale) continue;
      const miniraid::ItemState& copy = *site.db[item];
      const Write& want = latest_[item];
      if (copy.version != want.version || copy.value != want.value) {
        out.push_back("site " + std::to_string(site.id) + " item " +
                      std::to_string(item) + " holds (version " +
                      std::to_string(copy.version) + ", value " +
                      std::to_string(copy.value) + "), oracle has (version " +
                      std::to_string(want.version) + ", value " +
                      std::to_string(want.value) + ")");
        if (out.size() >= 20) return out;
      }
    }
  }
  return out;
}

}  // namespace e2ebench
