#include "tracing.h"

#include <algorithm>
#include <thread>

#include "common/logging.h"

namespace e2ebench {

using miniraid::Message;

namespace {

/// The span the current thread is inside, if any. Handlers do not nest:
/// every transport delivers by posting to the receiver's loop.
struct Current {
  bool open = false;
  uint32_t endpoint = 0;
  uint64_t id = kNoSpan;
  Span span;
  int64_t overhead_ns = 0;
};
thread_local Current tl_current;

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

}  // namespace

// ---------------------------------------------------------------------------
// Critical-path analysis.
// ---------------------------------------------------------------------------

PathReport AnalyzeCriticalPaths(const TraceData& trace,
                                const std::vector<ClientTxn>& txns) {
  PathReport report;
  if (trace.spans.empty()) return report;
  const std::vector<Span>& managing = trace.spans.back();
  std::map<TxnId, const Span*> replies;
  for (const Span& s : managing) {
    if (!s.submit && s.type == MsgType::kTxnReply) replies[s.txn] = &s;
  }
  auto lookup = [&trace](uint64_t id) -> const Span* {
    const uint64_t endpoint = id >> 48;
    const uint64_t index = id & ((uint64_t{1} << 48) - 1);
    if (id == kNoSpan || endpoint >= trace.spans.size() ||
        index >= trace.spans[endpoint].size()) {
      return nullptr;
    }
    return &trace.spans[endpoint][index];
  };
  std::vector<double> ratios;
  for (const ClientTxn& t : txns) {
    if (t.reply_ns >= trace.complete_until) continue;
    ++report.txns;
    auto it = replies.find(t.id);
    const Span* s = it == replies.end() ? nullptr : it->second;
    double sum = 0;
    bool complete = false;
    for (int steps = 0; s != nullptr && steps < 64; ++steps) {
      sum += double(s->end - s->start - s->child_send_ns);
      sum += double(s->start - s->cause_start + s->cause_prior_send_ns);
      if (s->submit) {
        complete = s->txn == t.id;
        break;
      }
      s = lookup(s->cause_span);
    }
    if (complete) ++report.complete;
    ratios.push_back(sum / double(std::max<int64_t>(1, t.reply_ns - t.submit_ns)));
  }
  report.median_ratio = Median(std::move(ratios));
  return report;
}

bool CriticalPathHolds(const PathReport& report) {
  return report.txns > 0 && report.complete == report.txns &&
         report.median_ratio >= 0.9 && report.median_ratio <= 1.1;
}

// ---------------------------------------------------------------------------
// TraceRecorder.
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder(uint32_t n_endpoints) : n_endpoints_(n_endpoints) {
  for (uint32_t i = 0; i < n_endpoints; ++i) {
    endpoints_.push_back(std::make_unique<Endpoint>());
  }
  for (uint32_t i = 0; i < n_endpoints * n_endpoints; ++i) {
    pairs_.push_back(std::make_unique<Pair>());
  }
}

void TraceRecorder::Account(uint32_t from, const Message& msg) {
  const int64_t start = NowNs();
  thread_local miniraid::Encoder enc;
  miniraid::EncodeMessageInto(msg, enc);
  {
    std::lock_guard<std::mutex> lock(capture_mu_);
    if (captured_.size() < kMaxCaptured) captured_.push_back(msg);
  }
  {
    Endpoint& e = *endpoints_[from];
    std::lock_guard<std::mutex> lock(e.mu);
    ++e.sends;
    e.bytes += enc.size();
  }
  if (tl_current.open) tl_current.overhead_ns += NowNs() - start;
}

void TraceRecorder::BeforeSend(uint32_t from, const Message& msg,
                               int64_t start) {
  if (msg.to >= n_endpoints_) return;
  const bool inside = tl_current.open && tl_current.endpoint == from;
  const InFlight sent{start, inside ? tl_current.id : kNoSpan,
                      inside ? tl_current.span.child_send_ns : 0};
  Pair& pair = PairOf(from, msg.to);
  std::lock_guard<std::mutex> lock(pair.mu);
  pair.in_flight.push_back(sent);
}

void TraceRecorder::AfterSend(uint32_t from, int64_t start, int64_t end) {
  {
    Endpoint& e = *endpoints_[from];
    std::lock_guard<std::mutex> lock(e.mu);
    e.send_ns += end - start;
  }
  if (tl_current.open) tl_current.span.child_send_ns += end - start;
}

void TraceRecorder::OpenSpan(uint32_t at, Span span) {
  Endpoint& e = *endpoints_[at];
  uint64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(e.mu);
    index = e.spans.size();
    if (index < kMaxSpansPerEndpoint) e.spans.push_back(span);
  }
  if (index >= kMaxSpansPerEndpoint) {
    std::lock_guard<std::mutex> lock(cap_mu_);
    complete_until_ = std::min(complete_until_, span.start);
  }
  tl_current = Current{true, at, SpanId(at, index), span, 0};
}

void TraceRecorder::BeginHandler(uint32_t at, const Message& msg,
                                 int64_t start) {
  InFlight cause{start, kNoSpan, 0};
  if (msg.from < n_endpoints_) {
    Pair& pair = PairOf(msg.from, at);
    std::lock_guard<std::mutex> lock(pair.mu);
    if (!pair.in_flight.empty()) {
      cause = pair.in_flight.front();
      pair.in_flight.pop_front();
    }
  }
  {
    Endpoint& e = *endpoints_[at];
    std::lock_guard<std::mutex> lock(e.mu);
    e.delivery_us.push_back(float(start - cause.start) / 1e3f);
  }
  Span span;
  span.start = start;
  span.cause_start = cause.start;
  span.cause_span = cause.span;
  span.cause_prior_send_ns = cause.prior_send_ns;
  span.type = msg.type;
  if (msg.type == MsgType::kTxnReply) span.txn = msg.As<miniraid::TxnResult>().txn;
  OpenSpan(at, span);
}

void TraceRecorder::BeginSubmit(TxnId txn, int64_t submit_ns, int64_t start) {
  Span span;
  span.start = start;
  span.cause_start = submit_ns;
  span.txn = txn;
  span.submit = true;
  OpenSpan(n_endpoints_ - 1, span);
}

void TraceRecorder::EndSpan(int64_t end) {
  Current& c = tl_current;
  if (!c.open) return;
  c.open = false;
  c.span.end = end;
  // Tracing's own work (sizing and capturing messages) counts as sending.
  c.span.child_send_ns += c.overhead_ns;
  const int64_t self = end - c.span.start - c.span.child_send_ns;
  Endpoint& e = *endpoints_[c.endpoint];
  std::lock_guard<std::mutex> lock(e.mu);
  if (c.span.submit) {
    e.submit_self_ns += self;
    ++e.submits;
  } else {
    const size_t type = size_t(c.span.type) % kTypes;
    e.self_ns[type] += self;
    ++e.handled[type];
  }
  const uint64_t index = c.id & ((uint64_t{1} << 48) - 1);
  if (index < e.spans.size()) e.spans[index] = c.span;
}

TraceData TraceRecorder::TakeTrace() {
  TraceData data;
  for (auto& e : endpoints_) {
    std::lock_guard<std::mutex> lock(e->mu);
    data.spans.push_back(std::move(e->spans));
    e->spans.clear();
  }
  std::lock_guard<std::mutex> lock(cap_mu_);
  data.complete_until = complete_until_;
  return data;
}

std::vector<Message> TraceRecorder::TakeCaptured() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  return std::move(captured_);
}

uint64_t TraceRecorder::sends() const {
  uint64_t n = 0;
  for (const auto& e : endpoints_) {
    std::lock_guard<std::mutex> lock(e->mu);
    n += e->sends;
  }
  return n;
}

uint64_t TraceRecorder::bytes() const {
  uint64_t n = 0;
  for (const auto& e : endpoints_) {
    std::lock_guard<std::mutex> lock(e->mu);
    n += e->bytes;
  }
  return n;
}

double TraceRecorder::MeanSendUs() const {
  int64_t ns = 0;
  uint64_t n = 0;
  for (const auto& e : endpoints_) {
    std::lock_guard<std::mutex> lock(e->mu);
    ns += e->send_ns;
    n += e->sends;
  }
  return n == 0 ? 0 : double(ns) / double(n) / 1e3;
}

double TraceRecorder::DeliveryUs(double q) const {
  std::vector<float> all;
  for (const auto& e : endpoints_) {
    std::lock_guard<std::mutex> lock(e->mu);
    all.insert(all.end(), e->delivery_us.begin(), e->delivery_us.end());
  }
  if (all.empty()) return 0;
  const size_t k = std::min(all.size() - 1, size_t(q * double(all.size())));
  std::nth_element(all.begin(), all.begin() + k, all.end());
  return all[k];
}

double TraceRecorder::MeanManagingSelfUs() const {
  const Endpoint& e = *endpoints_.back();
  std::lock_guard<std::mutex> lock(e.mu);
  int64_t ns = e.submit_self_ns;
  uint64_t n = e.submits;
  for (size_t t = 0; t < kTypes; ++t) {
    ns += e.self_ns[t];
    n += e.handled[t];
  }
  return n == 0 ? 0 : double(ns) / double(n) / 1e3;
}

double TraceRecorder::MeanSiteSelfUs(MsgType type) const {
  int64_t ns = 0;
  uint64_t n = 0;
  const size_t t = size_t(type) % kTypes;
  for (uint32_t i = 0; i + 1 < n_endpoints_; ++i) {
    const Endpoint& e = *endpoints_[i];
    std::lock_guard<std::mutex> lock(e.mu);
    ns += e.self_ns[t];
    n += e.handled[t];
  }
  return n == 0 ? 0 : double(ns) / double(n) / 1e3;
}

// ---------------------------------------------------------------------------
// Decorators.
// ---------------------------------------------------------------------------

miniraid::Status TimingTransport::Send(const Message& msg) {
  recorder_->Account(endpoint_, msg);
  const int64_t start = NowNs();
  recorder_->BeforeSend(endpoint_, msg, start);
  miniraid::Status status = inner_->Send(msg);
  recorder_->AfterSend(endpoint_, start, NowNs());
  return status;
}

void TimingHandler::OnMessage(const Message& msg) {
  recorder_->BeginHandler(endpoint_, msg, NowNs());
  inner_->OnMessage(msg);
  recorder_->EndSpan(NowNs());
}

// ---------------------------------------------------------------------------
// TracedCluster.
// ---------------------------------------------------------------------------

TracedCluster::TracedCluster(const miniraid::ClusterOptions& options)
    : options_(options), recorder_(options.n_sites + 1) {
  options_.site.n_sites = options_.n_sites;
  options_.site.db_size = options_.db_size;
  options_.site.managing_site = options_.n_sites;
}

TracedCluster::~TracedCluster() { Stop(); }

miniraid::Status TracedCluster::Start() {
  const uint32_t total = options_.n_sites + 1;
  const SiteId managing = options_.n_sites;
  for (uint32_t i = 0; i < total; ++i) {
    loops_.push_back(std::make_unique<miniraid::EventLoop>());
    runtimes_.push_back(std::make_unique<miniraid::ThreadSiteRuntime>(
        loops_.back().get(), &clock_));
  }
  std::vector<miniraid::Transport*> inner(total, nullptr);
  if (options_.backend == miniraid::ClusterBackend::kInProc) {
    inproc_ = std::make_unique<miniraid::InProcTransport>(options_.inproc);
    std::fill(inner.begin(), inner.end(), inproc_.get());
  } else {
    const uint16_t base = options_.base_port != 0
                              ? options_.base_port
                              : miniraid::PickEphemeralBasePort();
    std::map<SiteId, uint16_t> ports;
    for (uint32_t i = 0; i < total; ++i) ports[i] = uint16_t(base + i);
    for (uint32_t i = 0; i < total; ++i) {
      tcp_.push_back(std::make_unique<miniraid::TcpTransport>(
          SiteId(i), ports, loops_[i].get(), /*handler=*/nullptr,
          options_.tcp));
      inner[i] = tcp_.back().get();
    }
  }
  for (uint32_t i = 0; i < total; ++i) {
    timing_transports_.push_back(
        std::make_unique<TimingTransport>(i, inner[i], &recorder_));
    timing_handlers_.push_back(std::make_unique<TimingHandler>(i, &recorder_));
  }
  for (SiteId id = 0; id < options_.n_sites; ++id) {
    sites_.push_back(std::make_unique<miniraid::Site>(
        id, options_.site, timing_transports_[id].get(),
        runtimes_[id].get()));
    timing_handlers_[id]->set_inner(sites_.back().get());
  }
  managing_ = std::make_unique<miniraid::ManagingSite>(
      managing, timing_transports_[managing].get(),
      runtimes_[managing].get(), options_.managing);
  timing_handlers_[managing]->set_inner(managing_.get());
  window_ = std::make_unique<miniraid::SubmitWindow>(managing_.get(),
                                                     options_.max_inflight);
  for (uint32_t i = 0; i < total; ++i) {
    if (inproc_) {
      inproc_->Register(i, loops_[i].get(), timing_handlers_[i].get());
    } else {
      tcp_[i]->set_handler(timing_handlers_[i].get());
    }
  }
  for (auto& transport : tcp_) {
    miniraid::Status status = transport->Start();
    if (!status.ok()) return status;
  }
  return miniraid::Status::Ok();
}

void TracedCluster::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& transport : tcp_) transport->Stop();
  for (auto& loop : loops_) loop->Stop();
}

void TracedCluster::Submit(const miniraid::TxnSpec& txn, SiteId coordinator,
                           int64_t submit_ns, Callback callback) {
  loops_[options_.n_sites]->Post(
      [this, txn, coordinator, submit_ns, callback = std::move(callback)]() {
        recorder_.BeginSubmit(txn.id, submit_ns, NowNs());
        window_->Submit(txn, coordinator, callback);
        recorder_.EndSpan(NowNs());
      });
}

void TracedCluster::WaitForStatus(SiteId site, bool up) {
  const int64_t deadline = NowNs() + int64_t{10} * 1000 * 1000 * 1000;
  while (NowNs() < deadline) {
    bool is_up = false;
    Inspect(site, [&is_up](miniraid::Site& s) { is_up = s.is_up(); });
    if (is_up == up) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  MR_CHECK(false) << "site " << site << " did not reach up=" << up;
}

void TracedCluster::Fail(SiteId site) {
  loops_[options_.n_sites]->PostAndWait(
      [this, site] { managing_->FailSite(site); });
  WaitForStatus(site, false);
}

void TracedCluster::Recover(SiteId site) {
  loops_[options_.n_sites]->PostAndWait(
      [this, site] { managing_->RecoverSite(site); });
  WaitForStatus(site, true);
}

void TracedCluster::Inspect(SiteId site,
                            const std::function<void(miniraid::Site&)>& fn) {
  miniraid::Site* target = sites_.at(site).get();
  loops_[site]->PostAndWait([target, &fn] { fn(*target); });
}

std::vector<miniraid::SiteSnapshot> TracedCluster::Snapshots() {
  std::vector<miniraid::SiteSnapshot> out;
  for (SiteId id = 0; id < options_.n_sites; ++id) {
    Inspect(id, [&out](miniraid::Site& s) { out.push_back(SnapshotOf(s)); });
  }
  return out;
}

std::vector<miniraid::InvariantViolation> TracedCluster::CheckInvariants() {
  return checker_.Check(Snapshots());
}

uint64_t TracedCluster::MessagesSent() {
  uint64_t n = inproc_ ? inproc_->messages_sent() : 0;
  for (const auto& transport : tcp_) n += transport->messages_sent();
  return n;
}

}  // namespace e2ebench
