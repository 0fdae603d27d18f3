// One client's answer to its one subscription, taken through the client's
// only answer path (Client::AnswerSubscribedInto) and copied out as owned
// shares, for tests that route, drop or duplicate single shares by hand.

#ifndef PRIVAPPROX_TESTS_ANSWER_ONE_H_
#define PRIVAPPROX_TESTS_ANSWER_ONE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "client/client.h"
#include "common/arena.h"
#include "crypto/message.h"

namespace privapprox {

// shares[j] goes to proxy j of the client's `num_proxies`; empty when the
// sampling coin skips the epoch or the client has no subscription.
inline std::vector<crypto::MessageShare> AnswerOne(client::Client& client,
                                                   int64_t now_ms,
                                                   size_t num_proxies = 2) {
  EpochArena arena;
  std::vector<crypto::ShareView> views(num_proxies);
  std::vector<uint64_t> answered;
  client.AnswerSubscribedInto(now_ms, arena, views, answered);
  std::vector<crypto::MessageShare> shares;
  for (size_t j = 0; !answered.empty() && j < views.size(); ++j) {
    const std::span<const uint8_t> payload = views[j].payload();
    shares.push_back(crypto::MessageShare{
        views[j].message_id, {payload.begin(), payload.end()}});
  }
  return shares;
}

}  // namespace privapprox

#endif  // PRIVAPPROX_TESTS_ANSWER_ONE_H_
