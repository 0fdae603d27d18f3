#include "crypto/message.h"

#include <cstring>
#include <stdexcept>

namespace privapprox::crypto {

std::vector<uint8_t> AnswerMessage::Serialize() const {
  std::vector<uint8_t> out(WireSize(answer.size()));
  SerializeInto(out.data());
  return out;
}

void AnswerMessage::SerializeInto(uint8_t* out) const {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(query_id >> (8 * i));
  }
  const uint32_t bits = static_cast<uint32_t>(answer.size());
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  const std::span<const uint8_t> bytes = answer.bytes();
  if (!bytes.empty()) {
    std::memcpy(out + 12, bytes.data(), bytes.size());
  }
}

std::optional<AnswerMessageView> AnswerMessageView::Parse(
    std::span<const uint8_t> bytes) {
  if (bytes.size() < 12) {
    return std::nullopt;
  }
  AnswerMessageView view;
  for (int i = 0; i < 8; ++i) {
    view.query_id |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  for (int i = 0; i < 4; ++i) {
    view.answer_bits |= static_cast<uint32_t>(bytes[8 + i]) << (8 * i);
  }
  const size_t answer_bytes = (static_cast<size_t>(view.answer_bits) + 7) / 8;
  if (bytes.size() - 12 < answer_bytes) {
    return std::nullopt;
  }
  view.answer_bytes = bytes.subspan(12, answer_bytes);
  return view;
}

AnswerMessage AnswerMessage::Deserialize(std::span<const uint8_t> bytes) {
  const std::optional<AnswerMessageView> view = AnswerMessageView::Parse(bytes);
  if (!view.has_value()) {
    throw std::invalid_argument(
        bytes.size() < 12 ? "AnswerMessage::Deserialize: truncated header"
                          : "AnswerMessage::Deserialize: truncated answer");
  }
  return AnswerMessage{view->query_id,
                       BitVector::FromBytes(view->answer_bytes,
                                            view->answer_bits)};
}

size_t AnswerMessage::WireSize(size_t answer_bits) {
  return 12 + (answer_bits + 7) / 8;
}

}  // namespace privapprox::crypto
