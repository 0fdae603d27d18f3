// The socket MessageBus backend: a single-threaded epoll server fronting a
// broker::Broker, and a synchronous RPC client implementing MessageBus over
// one TCP connection.
//
// Server model (TcpBusServer): one event-loop thread, non-blocking
// listen/accept, per-peer receive accumulation buffers and bounded send
// queues. A peer whose queued response bytes exceed 8 MiB has its reads
// paused (EPOLLIN dropped from its interest set) until the queue drains —
// backpressure by suspension, never by unbounded buffering. Framing errors
// (a length prefix over kMaxFrameBytes, CRC mismatch) quarantine the
// connection: it is closed immediately and counted in protocol_errors;
// framing cannot resynchronize mid-stream. Request semantics live in
// wire.h's HandleRequest; the loop only moves bytes.
//
// Client model (TcpBusClient): blocking, mutex-serialized request/response
// — one in-flight RPC per connection, which is exactly the discipline
// BusConsumer's offset-explicit polls need. Connecting is non-blocking with
// a 5 s timeout and up to 40 attempts 25 ms apart, so a fleet driver may
// start before its daemons finish binding; re-dials after the first
// connection are counted in reconnects. A socket read or write that stalls
// for 30 s, or any other I/O error, poisons the connection and throws, and
// the next call re-dials. A poll asks for at most kDefaultPollByteBudget
// payload bytes (the server packs at least one record regardless). A poll
// response's payload block is copied into a client-owned slab with one
// memcpy, so RecordViews stay valid until the owner calls ReleasePolled,
// which recycles this side's copies; Release frees the records themselves
// in the remote broker.
//
// Both ends frame in place (frame.h): a request or response is written
// behind a header placeholder in the very buffer that is sent and sealed
// there, and bytes are received straight into the buffer they are decoded
// from. No payload is copied to be framed or unframed.

#ifndef PRIVAPPROX_TRANSPORT_TCP_BUS_H_
#define PRIVAPPROX_TRANSPORT_TCP_BUS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "metrics/metrics.h"
#include "transport/frame.h"
#include "transport/message_bus.h"
#include "transport/wire.h"

namespace privapprox::transport {

// Optional instruments, not owned (null = uninstrumented) — the metrics
// house style. They feed the privapprox_transport_* families: a client's
// come from RegisterClientCounters, a daemon's server registers its own.
struct TransportCounters {
  metrics::Counter* frames_in = nullptr;
  metrics::Counter* frames_out = nullptr;
  metrics::Counter* bytes_in = nullptr;
  metrics::Counter* bytes_out = nullptr;
  metrics::Counter* accepts = nullptr;      // server: connections accepted
  metrics::Counter* disconnects = nullptr;  // server: peers hung up
  metrics::Counter* protocol_errors = nullptr;  // quarantined connections
  metrics::Counter* reconnects = nullptr;   // client: re-dials after the
                                            // first established connection
};

// Registers the families a TcpBusClient counts on `registry` and returns
// them for TcpBusClientConfig::counters: re-dials, bytes, and frames from
// the client's side (frames_in counts responses received, frames_out
// requests sent). Every process that dials daemons calls this.
TransportCounters RegisterClientCounters(metrics::Registry& registry);

struct TcpBusServerConfig {
  std::string bind_host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port with port()
  TransportCounters counters;
};

class TcpBusServer {
 public:
  // Serves `broker` topic I/O; `control` handles daemon verbs (may be
  // empty). Both must outlive the server. A null `broker` serves control
  // verbs only (HandleRequest).
  TcpBusServer(TcpBusServerConfig config, broker::Broker* broker,
               ControlHandler control = {});
  ~TcpBusServer();

  TcpBusServer(const TcpBusServer&) = delete;
  TcpBusServer& operator=(const TcpBusServer&) = delete;

  // Binds + listens (throws std::runtime_error on failure) and starts the
  // event-loop thread. port() is valid once Start returns.
  void Start();
  void Stop();

  uint16_t port() const { return port_; }

 private:
  struct Peer {
    int fd = -1;
    // recv[0, recv_len) holds received bytes not yet served; the rest is
    // spare room the next recv() writes into.
    std::vector<uint8_t> recv;
    size_t recv_len = 0;
    std::vector<uint8_t> send;
    size_t send_off = 0;  // bytes of `send` already written
    bool want_write = false;
    bool reads_paused = false;
  };

  void Loop();
  void AcceptPeers();
  // Returns false if the peer was closed/quarantined and must be erased.
  bool ReadPeer(Peer& peer);
  bool FlushPeer(Peer& peer);
  void UpdateInterest(Peer& peer);
  void ClosePeer(Peer& peer);
  void Bump(metrics::Counter* counter, uint64_t n = 1);

  TcpBusServerConfig config_;
  broker::Broker* broker_;
  ControlHandler control_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::map<int, Peer> peers_;
};

struct TcpBusClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  TransportCounters counters;
};

class TcpBusClient final : public MessageBus {
 public:
  explicit TcpBusClient(TcpBusClientConfig config);
  ~TcpBusClient() override;

  TcpBusClient(const TcpBusClient&) = delete;
  TcpBusClient& operator=(const TcpBusClient&) = delete;

  void EnsureTopic(const std::string& topic, size_t num_partitions) override;
  size_t NumPartitions(const std::string& topic) override;
  // One request per kMaxProduceRecords records (wire.h), in order; an
  // empty batch is still one request.
  void Produce(const std::string& topic,
               std::span<const broker::ProduceView> records) override;
  size_t Poll(const std::string& topic, size_t partition, uint64_t offset,
              size_t max_records, std::vector<broker::RecordView>& out) override;
  uint64_t EndOffset(const std::string& topic, size_t partition) override;
  void Release(const std::string& topic,
               std::span<const uint64_t> below) override;

  // Daemon control verb round-trip; throws std::runtime_error with the
  // server-side message on a remote error.
  std::vector<uint8_t> Control(const std::string& verb,
                               std::span<const uint8_t> payload = {});

  // Ends the life of every RecordView polled so far: later polls overwrite
  // the payload slabs from the start. Keeps the slabs the finished round
  // reached and frees the rest, so memory follows the last round, not the
  // total ever polled. Call only once no polled view is in use.
  void ReleasePolled();

 private:
  // Starts the next request in request_: clears it and appends the frame
  // header placeholder, behind which a Build*Request call appends the body.
  std::vector<uint8_t>& NewRequest();
  // One request/response round-trip over request_; `mu_` must be held.
  // Returns the response body, a view into recv_ valid until the next RPC.
  std::span<const uint8_t> Rpc();
  void EnsureConnectedLocked();
  void Disconnect();
  // Copies a polled batch's payload block into the slabs, contiguously;
  // returns where it starts (null for an empty block).
  const uint8_t* StoreBlock(std::span<const uint8_t> block);
  void Bump(metrics::Counter* counter, uint64_t n = 1);

  TcpBusClientConfig config_;
  std::mutex mu_;
  int fd_ = -1;
  bool ever_connected_ = false;
  std::vector<uint8_t> request_;  // the request frame, built in place
  std::vector<uint8_t> recv_;     // the response frame, received in place
  // Payload slabs backing polled RecordViews until ReleasePolled; polls
  // fill slabs_[0..active_slab_] in order.
  struct Slab {
    std::unique_ptr<uint8_t[]> data;
    size_t used = 0;
    size_t cap = 0;
  };
  std::vector<Slab> slabs_;
  size_t active_slab_ = 0;
};

}  // namespace privapprox::transport

#endif  // PRIVAPPROX_TRANSPORT_TCP_BUS_H_
