#include "aggregator/historical.h"

#include <optional>
#include <stdexcept>
#include <vector>

#include "core/answer.h"
#include "crypto/message.h"

namespace privapprox::aggregator {

HistoricalAnalytics::HistoricalAnalytics(const broker::Topic& store,
                                         uint64_t query_id,
                                         size_t num_buckets,
                                         core::ExecutionParams client_params,
                                         size_t population, double confidence)
    : store_(store),
      query_id_(query_id),
      num_buckets_(num_buckets),
      client_params_(client_params),
      population_(population),
      confidence_(confidence) {
  client_params_.Validate();
  if (population == 0) {
    throw std::invalid_argument("HistoricalAnalytics: population must be > 0");
  }
}

core::QueryResult HistoricalAnalytics::Run(int64_t from_ms, int64_t to_ms,
                                           const BatchQueryBudget& budget,
                                           Xoshiro256& rng) const {
  const double fraction = budget.aggregator_sampling_fraction;
  if (!(fraction > 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument(
        "HistoricalAnalytics: sampling fraction must be in (0, 1]");
  }
  constexpr size_t kReadRecords = 4096;
  core::AnswerAccumulator acc(num_buckets_);
  std::vector<broker::RecordView> views;
  for (size_t p = 0; p < store_.num_partitions(); ++p) {
    for (uint64_t offset = 0; offset < store_.EndOffset(p);
         offset = views.back().offset + 1) {
      views.clear();
      store_.ReadViews(p, offset, kReadRecords, views);
      for (const broker::RecordView& record : views) {
        if (record.key != query_id_ || record.timestamp_ms < from_ms ||
            record.timestamp_ms >= to_ms) {
          continue;
        }
        if (fraction < 1.0 && !rng.NextBernoulli(fraction)) {
          continue;
        }
        const std::optional<crypto::AnswerMessageView> message =
            crypto::AnswerMessageView::Parse(record.bytes());
        if (!message.has_value() || message->query_id != query_id_ ||
            message->answer_bits != num_buckets_) {
          continue;
        }
        acc.Add(message->answer_bytes);
      }
    }
  }
  // The second sampling round composes multiplicatively with the client
  // round: the effective sampling fraction the estimator must use is
  // s_client * s_aggregator.
  core::ExecutionParams effective = client_params_;
  effective.sampling_fraction *= fraction;
  const core::ErrorEstimator estimator(effective, population_, confidence_);
  return estimator.Estimate(acc.histogram(), acc.num_answers());
}

}  // namespace privapprox::aggregator
