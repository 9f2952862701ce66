#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "common/strings.h"

namespace miniraid {
namespace {

/// Writes exactly `size` bytes; retries on partial writes and EINTR.
Status WriteAll(int fd, const uint8_t* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    // Deliberate exception: the TCP backend writes frames inline on the
    // sender's thread (including loop threads). Localhost writes fit the
    // socket buffer, so this "blocks" only under extreme backpressure —
    // accepted in exchange for not running a writer thread per peer.
    // miniraid-lint: allow(blocking-call)
    const ssize_t n = ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("send: %s", std::strerror(errno)));
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Reads exactly `size` bytes; returns NotFound on orderly EOF at a frame
/// boundary start, IoError otherwise.
Status ReadAll(int fd, uint8_t* data, size_t size) {
  size_t read = 0;
  while (read < size) {
    const ssize_t n = ::recv(fd, data + read, size - read, 0);
    if (n == 0) {
      return read == 0 ? Status::NotFound("connection closed")
                       : Status::IoError("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("recv: %s", std::strerror(errno)));
    }
    read += static_cast<size_t>(n);
  }
  return Status::Ok();
}

constexpr uint32_t kMaxFrameBytes = 16u << 20;  // 16 MiB sanity bound

}  // namespace

TcpTransport::TcpTransport(SiteId self, std::map<SiteId, uint16_t> peers,
                           EventLoop* loop, MessageHandler* handler,
                           const TcpTransportOptions& options)
    : self_(self),
      peers_(std::move(peers)),
      loop_(loop),
      handler_(handler),
      options_(options),
      injector_(options.faults) {}

TcpTransport::~TcpTransport() { Stop(); }

Status TcpTransport::Start() {
  if (handler_ == nullptr) {
    return Status::FailedPrecondition("TcpTransport started without handler");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peers_.at(self_));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address " +
                                   options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IoError(StrFormat("bind port %u: %s", peers_.at(self_),
                                     std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) < 0) {
    return Status::IoError(StrFormat("listen: %s", std::strerror(errno)));
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TcpTransport::Stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Wake the accept thread with shutdown(), but only close the fd after
  // joining it: closing first would let the kernel reuse the descriptor
  // number while AcceptLoop may still be entering accept() on it.
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
  {
    MutexLock lock(conn_mu_);
    for (auto& [peer, fd] : out_fds_) ::close(fd);
    out_fds_.clear();
  }
  std::vector<std::thread> readers;
  {
    MutexLock lock(readers_mu_);
    for (int fd : in_fds_) ::shutdown(fd, SHUT_RDWR);
    readers.swap(reader_threads_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd >= 0) ::close(listen_fd);
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
  {
    MutexLock lock(readers_mu_);
    for (int fd : in_fds_) ::close(fd);
    in_fds_.clear();
  }
}

void TcpTransport::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed (Stop) or fatal error
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    MutexLock lock(readers_mu_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    in_fds_.push_back(fd);
    reader_threads_.emplace_back([this, fd] { ReadLoop(fd); });
  }
}

void TcpTransport::ReadLoop(int fd) {
  while (!stopping_.load()) {
    uint8_t header[4];
    Status status = ReadAll(fd, header, sizeof(header));
    if (!status.ok()) return;
    const uint32_t length = uint32_t{header[0]} | (uint32_t{header[1]} << 8) |
                            (uint32_t{header[2]} << 16) |
                            (uint32_t{header[3]} << 24);
    if (length > kMaxFrameBytes) {
      MR_LOG(kError) << "site " << self_ << ": oversized frame (" << length
                     << " bytes); closing connection";
      return;
    }
    std::vector<uint8_t> body(length);
    status = ReadAll(fd, body.data(), body.size());
    if (!status.ok()) return;
    Result<Message> decoded = DecodeMessage(body);
    if (!decoded.ok()) {
      MR_LOG(kError) << "site " << self_ << ": undecodable frame: "
                     << decoded.status().ToString();
      return;
    }
    messages_received_.fetch_add(1);
    MessageHandler* handler = handler_;
    loop_->Post(
        [handler, msg = std::move(*decoded)] { handler->OnMessage(msg); });
  }
}

Status TcpTransport::ConnectTo(SiteId peer, int* fd_out) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    return Status::InvalidArgument(StrFormat("unknown peer site %u", peer));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(it->second);
  ::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr);
  // Same deliberate exception as WriteAll: the lazy localhost connect on
  // first send is accepted inline. miniraid-lint: allow(blocking-call)
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError(StrFormat("connect to site %u port %u: %s", peer,
                                     it->second, std::strerror(err)));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *fd_out = fd;
  return Status::Ok();
}

Status TcpTransport::SendFrame(SiteId to, const std::vector<uint8_t>& body) {
  if (stopping_.load()) return Status::FailedPrecondition("transport stopped");
  const uint32_t length = static_cast<uint32_t>(body.size());
  uint8_t header[4] = {
      static_cast<uint8_t>(length), static_cast<uint8_t>(length >> 8),
      static_cast<uint8_t>(length >> 16), static_cast<uint8_t>(length >> 24)};

  MutexLock lock(conn_mu_);
  auto it = out_fds_.find(to);
  if (it == out_fds_.end()) {
    int fd = -1;
    MINIRAID_RETURN_IF_ERROR(ConnectTo(to, &fd));
    it = out_fds_.emplace(to, fd).first;
  }
  Status status = WriteAll(it->second, header, sizeof(header));
  if (status.ok()) status = WriteAll(it->second, body.data(), body.size());
  if (!status.ok()) {
    // Drop the broken connection; the next Send retries with a fresh one.
    ::close(it->second);
    out_fds_.erase(it);
    return status;
  }
  messages_sent_.fetch_add(1);
  return Status::Ok();
}

Status TcpTransport::Send(const Message& msg) {
  if (stopping_.load()) return Status::FailedPrecondition("transport stopped");
  bool duplicate = false;
  {
    MutexLock lock(faults_mu_);
    if (injector_.ShouldDrop(msg)) {
      messages_dropped_.fetch_add(1);
      return Status::Ok();
    }
    duplicate = injector_.ShouldDuplicate();
  }
  // Encode into pooled storage: the frame buffer cycles back to the pool
  // once the socket write consumed it, so repeated sends (and channel
  // retransmissions) reuse capacity instead of allocating per message.
  Encoder enc = pool_.Acquire();
  EncodeMessageInto(msg, enc);
  std::vector<uint8_t> body = enc.TakeBuffer();
  Status status = SendFrame(msg.to, body);
  if (!status.ok()) {
    pool_.Release(std::move(body));
    return status;
  }
  if (duplicate) {
    const Duration delay = options_.faults.duplicate_delay;
    if (delay > 0) {
      // The delayed copy owns the buffer; it returns it after the write.
      loop_->ScheduleAfter(
          delay, [this, to = msg.to, b = std::move(body)]() mutable {
            (void)SendFrame(to, b);  // stopping_ is re-checked inside
            pool_.Release(std::move(b));
          });
      return Status::Ok();
    }
    (void)SendFrame(msg.to, body);
  }
  pool_.Release(std::move(body));
  return Status::Ok();
}

uint16_t PickEphemeralBasePort() {
  // The pid keeps concurrently running test binaries apart; the counter
  // keeps multiple clusters within one process apart (each cluster uses a
  // contiguous run of ports, so stride by more than any plausible cluster
  // size). Bases span [20000, 32768 - stride), below the kernel's
  // ephemeral range.
  constexpr uint32_t kFirst = 20000;
  constexpr uint32_t kSpan = 32768 - kClusterPortStride - kFirst;
  static std::atomic<uint32_t> next_cluster{0};
  const uint32_t slot = next_cluster.fetch_add(1);
  return static_cast<uint16_t>(
      kFirst +
      (uint32_t(::getpid()) * 37 + slot * kClusterPortStride) % kSpan);
}

}  // namespace miniraid
