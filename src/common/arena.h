// Epoch-scoped bump allocation for the zero-copy share path.
//
// An EpochArena hands out raw byte spans from large chunks and frees nothing
// until Reset(): the share-encoding hot loop (crypto/xor_cipher.h
// SplitMessageInto) allocates all n shares of an answer with one pointer
// bump, and the whole arena rewinds in O(1) when the client range's records
// have been copied into broker slabs. Chunks are recycled across Reset()
// calls, so a warmed arena performs no heap allocation at all in steady
// state.
//
// The epoch driver (system/epoch_driver.h) keeps one arena per client range
// it answers (one per worker thread) and reuses it every epoch, so the
// steady-state footprint is one arena per worker.

#ifndef PRIVAPPROX_COMMON_ARENA_H_
#define PRIVAPPROX_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace privapprox {

class EpochArena {
 public:
  static constexpr size_t kDefaultChunkBytes = 256 * 1024;

  explicit EpochArena(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}

  EpochArena(const EpochArena&) = delete;
  EpochArena& operator=(const EpochArena&) = delete;

  // Returns `n` contiguous bytes (never split across chunks). The span stays
  // valid until Reset(). n == 0 returns a valid (dangling-safe) pointer into
  // the current chunk.
  uint8_t* Alloc(size_t n) {
    while (chunk_index_ < chunks_.size()) {
      Chunk& chunk = chunks_[chunk_index_];
      if (chunk.cap - used_ >= n) {
        uint8_t* out = chunk.data.get() + used_;
        used_ += n;
        allocated_ += n;
        return out;
      }
      ++chunk_index_;
      used_ = 0;
    }
    const size_t cap = n > chunk_bytes_ ? n : chunk_bytes_;
    chunks_.push_back(Chunk{std::make_unique<uint8_t[]>(cap), cap});
    uint8_t* out = chunks_.back().data.get();
    used_ = n;
    allocated_ += n;
    return out;
  }

  // Rewinds to empty, keeping every chunk for reuse.
  void Reset() {
    chunk_index_ = 0;
    used_ = 0;
    allocated_ = 0;
  }

  // Bytes handed out since the last Reset().
  size_t bytes_allocated() const { return allocated_; }

  // Total chunk capacity owned (survives Reset()).
  size_t bytes_capacity() const {
    size_t total = 0;
    for (const Chunk& chunk : chunks_) {
      total += chunk.cap;
    }
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<uint8_t[]> data;
    size_t cap = 0;
  };

  size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  size_t chunk_index_ = 0;
  size_t used_ = 0;
  size_t allocated_ = 0;
};

}  // namespace privapprox

#endif  // PRIVAPPROX_COMMON_ARENA_H_
