#ifndef MINIRAID_NET_TCP_TRANSPORT_H_
#define MINIRAID_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/event_loop.h"
#include "net/faults.h"
#include "net/transport.h"

namespace miniraid {

struct TcpTransportOptions {
  /// Address every peer binds on. Experiments run on localhost, like the
  /// paper's single-machine testbed; any IPv4 address works.
  std::string bind_address = "127.0.0.1";

  /// Fault injection (loss, duplication, duplicate delay) shared with the
  /// sim and inproc transports; defaults inject nothing. TCP itself never
  /// loses or duplicates, so faults are applied above the socket: a
  /// dropped message is never framed, a duplicated one is framed twice
  /// (the copy after `duplicate_delay`).
  TransportFaults faults;
};

/// Message passing over real TCP sockets, one transport instance per site.
/// One outbound connection per destination gives per-pair FIFO delivery
/// (the paper's reliable ordered channel); inbound frames are decoded and
/// posted to the site's EventLoop, preserving the single-threaded protocol
/// contract.
///
/// Wire format: u32 little-endian frame length, then EncodeMessage bytes.
class TcpTransport : public Transport {
 public:
  /// `peers` maps every site id (including `self`) to its TCP port.
  /// `handler` may be null at construction (to break the transport<->site
  /// dependency cycle) but must be set via set_handler before Start().
  TcpTransport(SiteId self, std::map<SiteId, uint16_t> peers, EventLoop* loop,
               MessageHandler* handler,
               const TcpTransportOptions& options = TcpTransportOptions{});

  /// Sets the inbound message consumer. Must happen before Start().
  MR_RUNS_ON(client) void set_handler(MessageHandler* handler) {
    handler_ = handler;
  }
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds, listens, and starts the accept thread.
  MR_RUNS_ON(client) Status Start();

  /// Closes all sockets and joins helper threads. Idempotent.
  MR_RUNS_ON(client) void Stop();

  /// Thread-safe; lazily connects to the destination on first use. Writes
  /// the frame to the socket inline — a deliberate blocking exception on
  /// loop threads (see the allow(blocking-call) notes in tcp_transport.cc).
  MR_RUNS_ON(any) Status Send(const Message& msg) override;

  MR_RUNS_ON(any) uint64_t messages_sent() const {
    return messages_sent_.load();
  }
  MR_RUNS_ON(any) uint64_t messages_received() const {
    return messages_received_.load();
  }
  MR_RUNS_ON(any) uint64_t messages_dropped() const {
    return messages_dropped_.load();
  }

 private:
  /// Dedicated IO threads: blocking socket calls are their whole job.
  MR_RUNS_ON(client) void AcceptLoop();
  MR_RUNS_ON(client) void ReadLoop(int fd);
  /// Opens the lazy outbound connection; called on the Send path with the
  /// connection table locked (the map insert must be atomic with connect).
  Status ConnectTo(SiteId peer, int* fd_out) MR_REQUIRES(conn_mu_);
  /// Frames and writes one already-encoded message; the fault-free inner
  /// send, also used for delayed duplicate copies (which must not re-draw
  /// fault decisions).
  Status SendFrame(SiteId to, const std::vector<uint8_t>& body);

  SiteId self_;
  std::map<SiteId, uint16_t> peers_;
  EventLoop* loop_;
  MessageHandler* handler_;
  TcpTransportOptions options_;

  std::atomic<bool> stopping_{false};
  // Atomic: written by Stop() (any thread) while AcceptLoop() reads it.
  std::atomic<int> listen_fd_{-1};
  std::thread accept_thread_;

  // Lock order (statically declared): each transport mutex comes before
  // the destination EventLoop's queue mutex — a thread may post to a loop
  // while holding a transport lock, but loop internals never call into the
  // transport with their queue lock held (tasks run with it released).
  // This forbids at compile time the loop<->transport deadlock class TSan
  // can only observe on an unlucky interleaving.
  Mutex conn_mu_ MR_ACQUIRED_BEFORE(loop_->mu_);
  std::map<SiteId, int> out_fds_ MR_GUARDED_BY(conn_mu_);

  Mutex readers_mu_ MR_ACQUIRED_BEFORE(loop_->mu_);
  std::vector<std::thread> reader_threads_ MR_GUARDED_BY(readers_mu_);
  std::vector<int> in_fds_ MR_GUARDED_BY(readers_mu_);

  // Fault decisions mutate RNG state and Send runs on many threads; held
  // only around the decision, never around a write or a loop post.
  Mutex faults_mu_ MR_ACQUIRED_BEFORE(loop_->mu_);
  FaultInjector injector_ MR_GUARDED_BY(faults_mu_);

  /// Recycles frame buffers across Send calls (including ReliableChannel
  /// retransmissions, which re-enter Send per attempt), so steady-state
  /// encoding does not allocate per message.
  SharedFramePool pool_;

  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> messages_received_{0};
  std::atomic<uint64_t> messages_dropped_{0};
};

/// Returns a base port unlikely to collide between concurrently running
/// test binaries (derived from the process id) or between multiple TCP
/// clusters in one process (an atomic per-process counter advances the
/// range on every call). Every base and the kClusterPortStride ports above
/// it stay below 32768, where Linux's default ephemeral range
/// (ip_local_port_range, 32768-60999) begins, so a cluster's listeners
/// never race the kernel's outgoing-connection ports.
inline constexpr uint16_t kClusterPortStride = 128;
uint16_t PickEphemeralBasePort();

}  // namespace miniraid

#endif  // MINIRAID_NET_TCP_TRANSPORT_H_
