// Message framing for the answer path (paper Eqs 9-12).
//
// A client's randomized answer is concatenated with the query identifier to
// form M = <QID, RandomizedAnswer> (Eq 9), split into n shares via the XOR
// one-time pad, and each share is sent as <MID, payload> to a distinct proxy
// (Eq 12). MID is a random unique message identifier that lets the
// aggregator re-join the shares; the payloads themselves are
// computationally indistinguishable from random so a proxy cannot tell
// ciphertext from key material.

#ifndef PRIVAPPROX_CRYPTO_MESSAGE_H_
#define PRIVAPPROX_CRYPTO_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvector.h"

namespace privapprox::crypto {

// A parsed, non-owning view of one serialized AnswerMessage: the header
// fields plus the answer bytes inside the caller's buffer. The aggregator
// folds joined answers through this view, so a share's bits go from the join
// scratch into the window counts without an AnswerMessage or BitVector in
// between.
struct AnswerMessageView {
  uint64_t query_id = 0;
  uint32_t answer_bits = 0;
  // ceil(answer_bits / 8) bytes; pad bits past answer_bits are as received.
  std::span<const uint8_t> answer_bytes;

  // Reads the 12-byte header. Returns nullopt when `bytes` is shorter than
  // the header or than the answer bits it declares; trailing bytes past the
  // answer are ignored.
  static std::optional<AnswerMessageView> Parse(std::span<const uint8_t> bytes);
};

// The plaintext message M = <QID, RandomizedAnswer> (Eq 9).
struct AnswerMessage {
  uint64_t query_id = 0;
  BitVector answer;

  // Wire format: QID (8 bytes LE) | answer bit count (4 bytes LE) | answer
  // bytes. Deserialize takes a non-owning view so callers can parse
  // sub-ranges of larger buffers without materializing a temporary vector;
  // it throws std::invalid_argument wherever AnswerMessageView::Parse
  // returns nullopt.
  std::vector<uint8_t> Serialize() const;
  // Writes the wire format into caller-provided storage of at least
  // WireSize(answer.size()) bytes — the arena-backed encode path uses this
  // to serialize straight into share 0's slot with no temporary vector.
  void SerializeInto(uint8_t* out) const;
  static AnswerMessage Deserialize(std::span<const uint8_t> bytes);
  static AnswerMessage Deserialize(const std::vector<uint8_t>& bytes) {
    return Deserialize(std::span<const uint8_t>(bytes));
  }

  bool operator==(const AnswerMessage& other) const = default;

  // Serialized size for an answer of `answer_bits` bits.
  static size_t WireSize(size_t answer_bits);
};

// One share of a split message: <MID, payload> (Eq 12). `payload` is either
// the encrypted message ME or one of the key strings MKi — indistinguishable
// by design, so the struct deliberately does not say which.
struct MessageShare {
  uint64_t message_id = 0;
  std::vector<uint8_t> payload;

  bool operator==(const MessageShare& other) const = default;
};

// A non-owning view of one encoded share: `data` points at the full wire
// record — MID (8 bytes LE) followed by the payload — living in an
// EpochArena (client side) or a broker slab (consumer side). Valid only as
// long as its backing storage: until the arena resets, or for the topic's
// lifetime. This is the type that travels the zero-copy path
// Client -> Proxy::Receive -> MessageBus::Produce in place of
// std::vector<uint8_t> payloads.
struct ShareView {
  uint64_t message_id = 0;
  // QID of the query this share answers. Carried out-of-band (the payload is
  // ciphertext/pad material), so the multi-query pipeline can route shares
  // to per-(query, proxy) topics without decrypting anything.
  uint64_t query_id = 0;
  const uint8_t* data = nullptr;
  size_t size = 0;

  std::span<const uint8_t> bytes() const { return {data, size}; }
  std::span<const uint8_t> payload() const { return {data + 8, size - 8}; }
};

}  // namespace privapprox::crypto

#endif  // PRIVAPPROX_CRYPTO_MESSAGE_H_
