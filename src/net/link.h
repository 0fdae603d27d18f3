// Simulated network links with bandwidth/latency accounting.
//
// Cluster experiments (Figs 6, 8, 9) need per-link byte counters and a
// transfer-time model. We model a link as latency + size/bandwidth with
// serialization at the sender — deterministic, so the benchmark shapes are
// reproducible run-to-run (see the DESIGN.md substitution table).

#ifndef PRIVAPPROX_NET_LINK_H_
#define PRIVAPPROX_NET_LINK_H_

#include <cstdint>

namespace privapprox::net {

struct LinkConfig {
  double bandwidth_bytes_per_ms = 125000.0;  // 1 Gbit/s
  double latency_ms = 0.2;                   // one-way propagation
};

class Link {
 public:
  explicit Link(LinkConfig config);

  // Time to deliver `bytes` injected at `start_ms`, honoring the link's
  // serialization: a transfer cannot start before the previous one finished
  // leaving the sender. Returns the arrival time at the receiver.
  double Transfer(double start_ms, uint64_t bytes);

  uint64_t bytes_transferred() const { return bytes_transferred_; }
  uint64_t transfers() const { return transfers_; }
  double busy_until_ms() const { return busy_until_ms_; }

  void Reset();

 private:
  LinkConfig config_;
  double busy_until_ms_ = 0.0;
  uint64_t bytes_transferred_ = 0;
  uint64_t transfers_ = 0;
};

}  // namespace privapprox::net

#endif  // PRIVAPPROX_NET_LINK_H_
