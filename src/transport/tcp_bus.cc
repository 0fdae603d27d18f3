#include "transport/tcp_bus.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "storage/record_batch.h"

namespace privapprox::transport {

namespace {

// Room a receive buffer has free before each recv() (the buffers only grow).
constexpr size_t kReadChunk = 64 * 1024;
constexpr size_t kClientSlabChunk = 256 * 1024;
// Queued-but-unsent response bytes per peer above which the server pauses
// the peer's reads until its queue drains below them.
constexpr size_t kMaxSendQueueBytes = 8u << 20;
// A client dials up to kConnectAttempts times per (re)connect, each bounded
// by kConnectTimeoutMs and kConnectBackoffMs apart, and gives up on a
// socket read or write that stalls for kIoTimeoutMs.
constexpr int kConnectAttempts = 40;
constexpr int kConnectTimeoutMs = 5000;
constexpr int kConnectBackoffMs = 25;
constexpr int kIoTimeoutMs = 30000;

void SetBlockingWithTimeout(int fd, int timeout_ms) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

sockaddr_in MakeAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("tcp_bus: bad address '" + host + "'");
  }
  return addr;
}

}  // namespace

// --------------------------------------------------------------------------
// TcpBusServer

TcpBusServer::TcpBusServer(TcpBusServerConfig config, broker::Broker* broker,
                           ControlHandler control)
    : config_(std::move(config)),
      broker_(broker),
      control_(std::move(control)) {}

TcpBusServer::~TcpBusServer() { Stop(); }

void TcpBusServer::Bump(metrics::Counter* counter, uint64_t n) {
  if (counter != nullptr && n > 0) {
    counter->Increment(n);
  }
}

void TcpBusServer::Start() {
  if (thread_.joinable()) {
    throw std::logic_error("TcpBusServer::Start: already running");
  }
  stop_.store(false);
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("TcpBusServer: socket() failed");
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = MakeAddr(config_.bind_host, config_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpBusServer: bind(" + config_.bind_host + ":" +
                             std::to_string(config_.port) +
                             ") failed: " + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (listen(listen_fd_, 64) < 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpBusServer: listen() failed");
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    throw std::runtime_error("TcpBusServer: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  thread_ = std::thread([this] { Loop(); });
}

void TcpBusServer::Stop() {
  if (!thread_.joinable()) {
    return;
  }
  stop_.store(true);
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  thread_.join();
  for (auto& [fd, peer] : peers_) {
    close(fd);
  }
  peers_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

void TcpBusServer::ClosePeer(Peer& peer) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, peer.fd, nullptr);
  close(peer.fd);
}

void TcpBusServer::UpdateInterest(Peer& peer) {
  epoll_event ev{};
  ev.data.fd = peer.fd;
  ev.events = 0;
  if (!peer.reads_paused) {
    ev.events |= EPOLLIN;
  }
  if (peer.want_write) {
    ev.events |= EPOLLOUT;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, peer.fd, &ev);
}

void TcpBusServer::AcceptPeers() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN or transient error — the loop will retry
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Peer& peer = peers_[fd];
    peer.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    Bump(config_.counters.accepts);
  }
}

bool TcpBusServer::FlushPeer(Peer& peer) {
  while (peer.send_off < peer.send.size()) {
    const ssize_t n =
        send(peer.fd, peer.send.data() + peer.send_off,
             peer.send.size() - peer.send_off, MSG_NOSIGNAL);
    if (n > 0) {
      peer.send_off += static_cast<size_t>(n);
      Bump(config_.counters.bytes_out, static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    // Write error: the peer is gone.
    Bump(config_.counters.disconnects);
    ClosePeer(peer);
    return false;
  }
  if (peer.send_off == peer.send.size()) {
    peer.send.clear();
    peer.send_off = 0;
  }
  const size_t queued = peer.send.size() - peer.send_off;
  const bool want_write = queued > 0;
  const bool pause_reads = queued > kMaxSendQueueBytes;
  if (want_write != peer.want_write || pause_reads != peer.reads_paused) {
    peer.want_write = want_write;
    peer.reads_paused = pause_reads;
    UpdateInterest(peer);
  }
  return true;
}

bool TcpBusServer::ReadPeer(Peer& peer) {
  bool eof = false;
  for (;;) {
    // The buffer only grows, so the resize zero-fills new room once, not
    // on every read.
    if (peer.recv.size() - peer.recv_len < kReadChunk) {
      peer.recv.resize(peer.recv_len + kReadChunk);
    }
    const ssize_t n = recv(peer.fd, peer.recv.data() + peer.recv_len,
                           peer.recv.size() - peer.recv_len, 0);
    if (n > 0) {
      peer.recv_len += static_cast<size_t>(n);
      Bump(config_.counters.bytes_in, static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    eof = true;  // orderly shutdown (0) or hard error — either way, gone
    break;
  }
  // Serve every complete frame accumulated so far, each response written
  // in place at the end of the send queue.
  size_t consumed = 0;
  for (;;) {
    const auto decoded = TryDecodeFrame(std::span<const uint8_t>(
        peer.recv.data() + consumed, peer.recv_len - consumed));
    if (decoded.status == FrameStatus::kNeedMore) {
      break;
    }
    if (decoded.status != FrameStatus::kFrame) {
      // Oversized or corrupt frame: quarantine — close immediately, the
      // stream cannot be resynchronized.
      Bump(config_.counters.protocol_errors);
      ClosePeer(peer);
      return false;
    }
    Bump(config_.counters.frames_in);
    const size_t frame_start = BeginFrame(peer.send);
    HandleRequest(broker_, control_, decoded.payload, peer.send);
    SealFrame(peer.send, frame_start);
    Bump(config_.counters.frames_out);
    consumed += decoded.consumed;
  }
  if (consumed > 0) {
    peer.recv_len -= consumed;
    std::memmove(peer.recv.data(), peer.recv.data() + consumed,
                 peer.recv_len);
  }
  if (!FlushPeer(peer)) {
    return false;
  }
  if (eof) {
    // A non-empty recv buffer here means the peer died mid-frame; either
    // way the connection is finished.
    Bump(config_.counters.disconnects);
    ClosePeer(peer);
    return false;
  }
  return true;
}

void TcpBusServer::Loop() {
  epoll_event events[64];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = epoll_wait(epoll_fd_, events, 64, 500);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drain;
        [[maybe_unused]] ssize_t r = read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptPeers();
        continue;
      }
      const auto it = peers_.find(fd);
      if (it == peers_.end()) {
        continue;  // already closed earlier in this batch
      }
      Peer& peer = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        Bump(config_.counters.disconnects);
        ClosePeer(peer);
        peers_.erase(it);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!FlushPeer(peer)) {
          peers_.erase(it);
          continue;
        }
      }
      if ((events[i].events & EPOLLIN) != 0) {
        if (!ReadPeer(peer)) {
          peers_.erase(it);
          continue;
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// TcpBusClient

TransportCounters RegisterClientCounters(metrics::Registry& registry) {
  TransportCounters counters;
  counters.reconnects = &registry.GetCounter(
      "privapprox_transport_reconnects_total",
      "Daemon re-dials after the first established connection");
  counters.bytes_in = &registry.GetCounter(
      "privapprox_transport_bytes_in_total", "Bytes received from daemons");
  counters.bytes_out = &registry.GetCounter(
      "privapprox_transport_bytes_out_total", "Bytes sent to daemons");
  counters.frames_in = &registry.GetCounter(
      "privapprox_transport_frames_in_total", "Response frames received");
  counters.frames_out = &registry.GetCounter(
      "privapprox_transport_frames_out_total", "Request frames sent");
  return counters;
}

TcpBusClient::TcpBusClient(TcpBusClientConfig config)
    : config_(std::move(config)) {}

TcpBusClient::~TcpBusClient() { Disconnect(); }

void TcpBusClient::Bump(metrics::Counter* counter, uint64_t n) {
  if (counter != nullptr && n > 0) {
    counter->Increment(n);
  }
}

void TcpBusClient::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

void TcpBusClient::EnsureConnectedLocked() {
  if (fd_ >= 0) {
    return;
  }
  const sockaddr_in addr = MakeAddr(config_.host, config_.port);
  std::string last_error = "no attempt made";
  for (int attempt = 0; attempt < kConnectAttempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kConnectBackoffMs));
    }
    const int fd =
        socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      last_error = "socket() failed";
      continue;
    }
    int rc = connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
    if (rc < 0 && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      rc = poll(&pfd, 1, kConnectTimeoutMs);
      if (rc > 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        rc = err == 0 ? 0 : -1;
        if (err != 0) {
          last_error = std::strerror(err);
        }
      } else {
        rc = -1;
        last_error = "connect timed out";
      }
    } else if (rc < 0) {
      last_error = std::strerror(errno);
    }
    if (rc != 0) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetBlockingWithTimeout(fd, kIoTimeoutMs);
    fd_ = fd;
    if (ever_connected_) {
      Bump(config_.counters.reconnects);
    }
    ever_connected_ = true;
    return;
  }
  throw std::runtime_error("TcpBusClient: cannot connect to " + config_.host +
                           ":" + std::to_string(config_.port) + ": " +
                           last_error);
}

const uint8_t* TcpBusClient::StoreBlock(std::span<const uint8_t> block) {
  if (block.empty()) {
    return nullptr;
  }
  // Fill the kept slabs in order, then grow.
  while (active_slab_ < slabs_.size() &&
         slabs_[active_slab_].cap - slabs_[active_slab_].used <
             block.size()) {
    ++active_slab_;
  }
  if (active_slab_ == slabs_.size()) {
    const size_t cap = std::max(block.size(), kClientSlabChunk);
    slabs_.push_back(Slab{std::make_unique<uint8_t[]>(cap), 0, cap});
  }
  Slab& slab = slabs_[active_slab_];
  uint8_t* dst = slab.data.get() + slab.used;
  std::memcpy(dst, block.data(), block.size());
  slab.used += block.size();
  return dst;
}

void TcpBusClient::ReleasePolled() {
  std::lock_guard<std::mutex> lock(mu_);
  slabs_.resize(std::min(slabs_.size(), active_slab_ + 1));
  for (Slab& slab : slabs_) {
    slab.used = 0;
  }
  active_slab_ = 0;
}

std::vector<uint8_t>& TcpBusClient::NewRequest() {
  request_.clear();
  BeginFrame(request_);
  return request_;
}

std::span<const uint8_t> TcpBusClient::Rpc() {
  EnsureConnectedLocked();
  SealFrame(request_, 0);
  size_t sent = 0;
  while (sent < request_.size()) {
    const ssize_t n = send(fd_, request_.data() + sent,
                           request_.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      Disconnect();
      throw std::runtime_error("TcpBusClient: send failed");
    }
    sent += static_cast<size_t>(n);
  }
  Bump(config_.counters.bytes_out, request_.size());
  Bump(config_.counters.frames_out);
  // One request in flight, so the response is the only frame on the way:
  // read whatever arrives until the header is in, then up to its end.
  size_t have = 0;
  for (;;) {
    const auto decoded =
        TryDecodeFrame(std::span<const uint8_t>(recv_.data(), have));
    if (decoded.status == FrameStatus::kFrame) {
      Bump(config_.counters.frames_in);
      return decoded.payload;
    }
    if (decoded.status != FrameStatus::kNeedMore) {
      Bump(config_.counters.protocol_errors);
      Disconnect();
      throw std::runtime_error("TcpBusClient: corrupt response frame");
    }
    if (recv_.size() < std::max(decoded.need, kReadChunk)) {
      recv_.resize(std::max(decoded.need, kReadChunk));
    }
    const size_t limit =
        have < kFrameHeaderBytes ? recv_.size() : decoded.need;
    const ssize_t n = recv(fd_, recv_.data() + have, limit - have, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      Disconnect();
      throw std::runtime_error(
          "TcpBusClient: connection lost awaiting response");
    }
    have += static_cast<size_t>(n);
    Bump(config_.counters.bytes_in, static_cast<uint64_t>(n));
  }
}

namespace {

// Strips the status byte; throws the remote error message on kWireError.
WireReader CheckOk(std::span<const uint8_t> body) {
  WireReader reader(body);
  const uint8_t status = reader.TakeU8();
  if (status != kWireOk) {
    WireReader rest = reader;
    throw std::runtime_error("TcpBusClient: remote error: " +
                             rest.TakeString());
  }
  return reader;
}

}  // namespace

void TcpBusClient::EnsureTopic(const std::string& topic,
                               size_t num_partitions) {
  std::lock_guard<std::mutex> lock(mu_);
  BuildEnsureTopicRequest(topic, num_partitions, NewRequest());
  CheckOk(Rpc());
}

size_t TcpBusClient::NumPartitions(const std::string& topic) {
  std::lock_guard<std::mutex> lock(mu_);
  BuildTopicMetaRequest(topic, NewRequest());
  WireReader reader = CheckOk(Rpc());
  return reader.TakeU32();
}

void TcpBusClient::Produce(const std::string& topic,
                           std::span<const broker::ProduceView> records) {
  std::lock_guard<std::mutex> lock(mu_);
  // Splitting never reorders: each request appends after the previous one.
  size_t begin = 0;
  do {
    const size_t len = std::min(kMaxProduceRecords, records.size() - begin);
    BuildProduceRequest(topic, records.subspan(begin, len), NewRequest());
    CheckOk(Rpc());
    begin += len;
  } while (begin < records.size());
}

size_t TcpBusClient::Poll(const std::string& topic, size_t partition,
                          uint64_t offset, size_t max_records,
                          std::vector<broker::RecordView>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  BuildPollRequest(topic, partition, offset, max_records,
                   kDefaultPollByteBudget, NewRequest());
  WireReader reader = CheckOk(Rpc());
  uint64_t next = reader.TakeU64();
  // Validated before anything is copied or sized by it; then the payload
  // block is copied into a slab at once, and each view is its record's
  // place in that copy.
  const storage::RecordBatchView batch(reader.TakeRaw(reader.remaining()));
  const uint8_t* block = batch.payloads().data();
  const uint8_t* copy = StoreBlock(batch.payloads());
  batch.ForEach([&](const storage::BatchRecord& record) {
    out.push_back(broker::RecordView{
        next++, record.timestamp_ms, record.key,
        copy + (record.payload.data() - block),
        static_cast<uint32_t>(record.payload.size())});
  });
  return batch.size();
}

uint64_t TcpBusClient::EndOffset(const std::string& topic, size_t partition) {
  std::lock_guard<std::mutex> lock(mu_);
  BuildEndOffsetRequest(topic, partition, NewRequest());
  WireReader reader = CheckOk(Rpc());
  return reader.TakeU64();
}

void TcpBusClient::Release(const std::string& topic,
                           std::span<const uint64_t> below) {
  std::lock_guard<std::mutex> lock(mu_);
  BuildReleaseRequest(topic, below, NewRequest());
  CheckOk(Rpc());
}

std::vector<uint8_t> TcpBusClient::Control(const std::string& verb,
                                           std::span<const uint8_t> payload) {
  std::lock_guard<std::mutex> lock(mu_);
  BuildControlRequest(verb, payload, NewRequest());
  WireReader reader = CheckOk(Rpc());
  const auto reply = reader.TakeBytes();
  return std::vector<uint8_t>(reply.begin(), reply.end());
}

}  // namespace privapprox::transport
