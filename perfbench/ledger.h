// The traced run's single-threaded component ledgers and the span recorder
// they share. A ledger drives the workload's epochs through the components'
// public calls, one layer at a time, with a span around each layer's calls;
// it adds no instrumentation to the program.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_counter.h"
#include "workload.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricList = std::vector<std::pair<std::string, Metric>>;

inline void Put(MetricList& out, const std::string& name, double value,
                const char* unit) {
  out.emplace_back(name, Metric{value, unit});
}

// Heap allocations so far. Only the traced driver (PERFBENCH_TRACED=1) links
// the counting allocator; the end-to-end driver runs on the program's own
// allocator and reads 0.
inline uint64_t Allocs() {
#if PERFBENCH_TRACED
  return AllocCounter::Count();
#else
  return 0;
#endif
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory spans, written once at the end as chrome://tracing JSON. One
// span covers one layer's calls in one epoch; `count` is the number of calls
// or shares it covers. Spans on one `tid` nest by time, so an epoch span's
// self time is its duration minus its layer spans.
class SpanRecorder {
 public:
  void Add(const char* name, int tid, int64_t start_ns, int64_t end_ns,
           int64_t epoch, uint64_t count);
  // `tags` lands in the trace's otherData as the run's tags.
  std::string ToChromeTracingJson(const std::string& tags) const;

 private:
  struct Span {
    const char* name;
    int tid;
    int64_t start_ns;
    int64_t end_ns;
    int64_t epoch;
    uint64_t count;
  };
  std::vector<Span> spans_;
};

// Answer accounting and gate outcome of one part of the traced run.
struct PartOutcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

// Client -> Proxy::Receive -> ForwardLanes -> Aggregator::Drain ->
// AdvanceWatermark over an InProcessBus, plus standalone replays of the
// layers those calls hide (localdb, randomized response, XOR split, share
// decode, MID join). Appends the client.*, localdb.*, core.*, crypto.*,
// proxy.*, broker.*, aggregator.drain/fire, engine.join_ns and ledger.*
// metrics.
PartOutcome RunInprocLedger(const Workload& workload, uint64_t seed,
                            Generator& generator, int64_t epochs,
                            SpanRecorder& spans, MetricList& out);

// The same epochs over loopback TCP: Client, TcpBusClient::Produce and the
// daemons' control verbs, as deploy::FleetDriver sequences them. Appends the
// transport.* and deploy.* metrics.
PartOutcome RunTcpLedger(const Workload& workload, uint64_t seed,
                         Generator& generator, int64_t epochs,
                         SpanRecorder& spans, MetricList& out);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
