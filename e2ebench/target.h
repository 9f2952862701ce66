#ifndef MINIRAID_E2EBENCH_TARGET_H_
#define MINIRAID_E2EBENCH_TARGET_H_

// What the load generator drives: the public Cluster API for timed runs, or
// the decorated cluster of the traced run (tracing.h).

#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/invariants.h"
#include "msg/message.h"
#include "replication/site.h"

namespace e2ebench {

using miniraid::SiteId;

/// Nanoseconds on the monotonic clock that Python's time.monotonic() also
/// reads, so run.py can time set-up from the process's launch.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Target {
 public:
  using Callback = std::function<void(const miniraid::TxnResult&)>;

  virtual ~Target() = default;

  /// Submits one attempt; `submit_ns` is when the client began the call.
  /// `callback` runs once, in the managing site's context.
  virtual void Submit(const miniraid::TxnSpec& txn, SiteId coordinator,
                      int64_t submit_ns, Callback callback) = 0;
  /// Blocking, as Cluster::Fail / Cluster::Recover.
  virtual void Fail(SiteId site) = 0;
  virtual void Recover(SiteId site) = 0;
  /// Runs `fn` on the site's own thread and waits.
  virtual void Inspect(SiteId site,
                       const std::function<void(miniraid::Site&)>& fn) = 0;
  virtual std::vector<miniraid::SiteSnapshot> Snapshots() = 0;
  virtual std::vector<miniraid::InvariantViolation> CheckInvariants() = 0;
  /// Messages the transports accepted so far.
  virtual uint64_t MessagesSent() = 0;
  virtual uint32_t n_sites() const = 0;
};

}  // namespace e2ebench

#endif  // MINIRAID_E2EBENCH_TARGET_H_
