#ifndef MINIRAID_E2EBENCH_TRACING_H_
#define MINIRAID_E2EBENCH_TRACING_H_

// The traced run. A cluster is assembled from the public classes the way
// RealCluster::Start does it, with a timing Transport decorator under every
// endpoint and a timing MessageHandler decorator in the slot a
// ReliableChannel would take. Spans are recorded from outside the program:
// one span per handler invocation (plus one per client submission on the
// managing loop), each naming the span and the Send that caused it.

#include <array>
#include <climits>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/cluster_api.h"
#include "core/managing_site.h"
#include "core/submit_window.h"
#include "net/event_loop.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "target.h"

namespace e2ebench {

using miniraid::MsgType;
using miniraid::TxnId;

constexpr uint64_t kNoSpan = ~uint64_t{0};
inline uint64_t SpanId(uint32_t endpoint, uint64_t index) {
  return (uint64_t{endpoint} << 48) | index;
}

/// One handler invocation (or one client submission run on the managing
/// loop). Times are NowNs().
struct Span {
  int64_t start = 0;
  int64_t end = 0;
  /// Send start of the handled message, or the client's submit start.
  int64_t cause_start = 0;
  /// Span inside which the causing Send ran; kNoSpan if none.
  uint64_t cause_span = kNoSpan;
  /// Time that span spent in earlier Sends before the causing one (a
  /// fan-out's earlier messages delay this one).
  int64_t cause_prior_send_ns = 0;
  /// Time spent inside Send calls made by this span.
  int64_t child_send_ns = 0;
  /// Client txn of a submission span or of a TxnReply handler, else 0.
  TxnId txn = 0;
  MsgType type = MsgType::kTxnRequest;
  bool submit = false;
};

/// Spans per endpoint, indexed by endpoint id (sites, then managing).
struct TraceData {
  std::vector<std::vector<Span>> spans;
  /// Endpoint spans past this time may be missing (a span cap was hit).
  int64_t complete_until = INT64_MAX;
};

/// A committed client transaction that needed one attempt.
struct ClientTxn {
  TxnId id = 0;
  int64_t submit_ns = 0;
  int64_t reply_ns = 0;
};

struct PathReport {
  size_t txns = 0;
  /// Paths that walked back from the reply to the client submission.
  size_t complete = 0;
  /// Median over txns of (sum of critical-path spans) / latency.
  double median_ratio = 0;
};

/// Walks each transaction's critical path back from the managing site's
/// TxnReply handler to the client submission. Each step adds a handler's
/// self time, the Sends its span made before the causing one, and that
/// message's delivery (Send start to handler start).
PathReport AnalyzeCriticalPaths(const TraceData& trace,
                                const std::vector<ClientTxn>& txns);

/// The spans must sum to within a tenth of the client latency, at the
/// median, and every analysed path must be complete.
bool CriticalPathHolds(const PathReport& report);

/// Aggregates kept without a cap, plus the capped span record.
class TraceRecorder {
 public:
  static constexpr size_t kMaxSpansPerEndpoint = 200000;
  static constexpr size_t kMaxCaptured = 20000;
  static constexpr size_t kTypes = 32;

  explicit TraceRecorder(uint32_t n_endpoints);

  // Called by the decorators.
  /// Counts and sizes `msg`; the time this takes is tracing overhead and
  /// is left out of the sender's self time.
  void Account(uint32_t from, const miniraid::Message& msg);
  void BeforeSend(uint32_t from, const miniraid::Message& msg, int64_t start);
  void AfterSend(uint32_t from, int64_t start, int64_t end);
  void BeginHandler(uint32_t at, const miniraid::Message& msg, int64_t start);
  void BeginSubmit(TxnId txn, int64_t submit_ns, int64_t start);
  void EndSpan(int64_t end);

  // Read after the cluster stopped.
  TraceData TakeTrace();
  std::vector<miniraid::Message> TakeCaptured();
  uint64_t sends() const;
  uint64_t bytes() const;
  double MeanSendUs() const;
  /// Delivery latency percentiles, Send start to handler start, in us.
  double DeliveryUs(double q) const;
  double MeanManagingSelfUs() const;
  /// Mean self time of handlers of `type` at the database sites, in us;
  /// 0 when none ran.
  double MeanSiteSelfUs(MsgType type) const;

 private:
  struct InFlight {
    int64_t start = 0;
    uint64_t span = kNoSpan;
    int64_t prior_send_ns = 0;
  };
  struct Endpoint {
    mutable std::mutex mu;
    std::vector<Span> spans;
    std::vector<float> delivery_us;
    uint64_t sends = 0;
    uint64_t bytes = 0;
    int64_t send_ns = 0;
    std::array<int64_t, kTypes> self_ns{};
    std::array<uint64_t, kTypes> handled{};
    int64_t submit_self_ns = 0;
    uint64_t submits = 0;
  };
  struct Pair {
    std::mutex mu;
    std::deque<InFlight> in_flight;
  };

  Pair& PairOf(uint32_t from, uint32_t to) {
    return *pairs_[from * n_endpoints_ + to];
  }
  void OpenSpan(uint32_t at, Span span);

  const uint32_t n_endpoints_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Pair>> pairs_;
  std::mutex capture_mu_;
  std::vector<miniraid::Message> captured_;
  std::mutex cap_mu_;
  int64_t complete_until_ = INT64_MAX;
};

/// Times every Send of one endpoint.
class TimingTransport : public miniraid::Transport {
 public:
  TimingTransport(uint32_t endpoint, miniraid::Transport* inner,
                  TraceRecorder* recorder)
      : endpoint_(endpoint), inner_(inner), recorder_(recorder) {}
  miniraid::Status Send(const miniraid::Message& msg) override;

 private:
  const uint32_t endpoint_;
  miniraid::Transport* const inner_;
  TraceRecorder* const recorder_;
};

/// Times every handler invocation of one endpoint.
class TimingHandler : public miniraid::MessageHandler {
 public:
  TimingHandler(uint32_t endpoint, TraceRecorder* recorder)
      : endpoint_(endpoint), recorder_(recorder) {}
  void set_inner(miniraid::MessageHandler* inner) { inner_ = inner; }
  void OnMessage(const miniraid::Message& msg) override;

 private:
  const uint32_t endpoint_;
  miniraid::MessageHandler* inner_ = nullptr;
  TraceRecorder* const recorder_;
};

/// N sites plus the managing site on inproc queues or TCP, decorated.
class TracedCluster : public Target {
 public:
  /// `options` as for MakeCluster (inproc or tcp, no reliable channel).
  explicit TracedCluster(const miniraid::ClusterOptions& options);
  ~TracedCluster() override;
  TracedCluster(const TracedCluster&) = delete;
  TracedCluster& operator=(const TracedCluster&) = delete;

  miniraid::Status Start();
  /// Stops transports and loops; the recorder may be read afterwards.
  void Stop();

  void Submit(const miniraid::TxnSpec& txn, SiteId coordinator,
              int64_t submit_ns, Callback callback) override;
  void Fail(SiteId site) override;
  void Recover(SiteId site) override;
  void Inspect(SiteId site,
               const std::function<void(miniraid::Site&)>& fn) override;
  std::vector<miniraid::SiteSnapshot> Snapshots() override;
  std::vector<miniraid::InvariantViolation> CheckInvariants() override;
  uint64_t MessagesSent() override;
  uint32_t n_sites() const override { return options_.n_sites; }

  TraceRecorder& recorder() { return recorder_; }

 private:
  void WaitForStatus(SiteId site, bool up);

  miniraid::ClusterOptions options_;
  miniraid::SteadyClock clock_;
  TraceRecorder recorder_;
  miniraid::InvariantChecker checker_;
  bool stopped_ = false;

  std::vector<std::unique_ptr<miniraid::EventLoop>> loops_;
  std::vector<std::unique_ptr<miniraid::ThreadSiteRuntime>> runtimes_;
  std::unique_ptr<miniraid::InProcTransport> inproc_;
  std::vector<std::unique_ptr<miniraid::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<TimingTransport>> timing_transports_;
  std::vector<std::unique_ptr<TimingHandler>> timing_handlers_;
  std::vector<std::unique_ptr<miniraid::Site>> sites_;
  std::unique_ptr<miniraid::ManagingSite> managing_;
  std::unique_ptr<miniraid::SubmitWindow> window_;
};

}  // namespace e2ebench

#endif  // MINIRAID_E2EBENCH_TRACING_H_
