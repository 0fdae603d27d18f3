// Historical ("batch") analytics over stored responses (paper §3.3.1).
//
// The aggregator tees every joined randomized answer into a fault-tolerant
// store (HDFS in the prototype; a broker topic here, durable when the
// broker is). Each stored record is keyed by its QID and holds the joined
// message in AnswerMessage wire form, so one store serves every query. An
// analyst can later run a batch query over any past time range. To keep the
// batch computation within a query budget, a second round of sampling runs
// at the aggregator over the stored responses — that second sampling round
// composes with the client-side round and the error estimator accounts for
// the reduced sample.

#ifndef PRIVAPPROX_AGGREGATOR_HISTORICAL_H_
#define PRIVAPPROX_AGGREGATOR_HISTORICAL_H_

#include <cstdint>

#include "broker/topic.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/error_estimation.h"

namespace privapprox::aggregator {

struct BatchQueryBudget {
  // Fraction of stored responses to process (second-round sampling); 1.0
  // processes everything. Spot-market style budgets map to this directly.
  double aggregator_sampling_fraction = 1.0;
};

class HistoricalAnalytics {
 public:
  // Reads the records of `store` keyed `query_id`, answers of
  // `num_buckets` bits. `client_params` are the parameters the stored
  // answers were produced under (needed to de-bias); `population` is U.
  HistoricalAnalytics(const broker::Topic& store, uint64_t query_id,
                      size_t num_buckets, core::ExecutionParams client_params,
                      size_t population, double confidence = 0.95);

  // Runs the batch query over the records stamped in [from_ms, to_ms)
  // under `budget`, reading them in place, partitions in order. The second
  // sampling round draws once per record of the query, in store order, from
  // `rng`; a drawn record that does not parse or holds another width (an
  // earlier query under the same QID) is skipped.
  core::QueryResult Run(int64_t from_ms, int64_t to_ms,
                        const BatchQueryBudget& budget,
                        Xoshiro256& rng) const;

 private:
  const broker::Topic& store_;
  uint64_t query_id_;
  size_t num_buckets_;
  core::ExecutionParams client_params_;
  size_t population_;
  double confidence_;
};

}  // namespace privapprox::aggregator

#endif  // PRIVAPPROX_AGGREGATOR_HISTORICAL_H_
