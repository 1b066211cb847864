// Seqlock slots: the one torn-read-proof record protocol behind the journal
// rings, the profiler's sample rings and histogram exemplars (DESIGN.md
// "Seqlock slots").
//
// A slot is a generation word plus N relaxed atomic payload words.
// Generation 0 = never written, odd = a write is in flight, even = complete.
// Ring users number generations per logical index: writing(i) = 2i+1 while
// record i is being stored, complete(i) = 2i+2 once it is whole.
//
//  - Writer: publish the odd generation, release-fence, store the payload,
//    release-store the even generation.
//  - Reader: acquire-load the generation, copy the payload, acquire-fence,
//    re-load; accept only an unchanged, expected even value.
//
// The fence pair is the [atomics.fences] seqlock recipe: if the reader saw
// any payload word of a newer write, its re-load is guaranteed to see at
// least that write's odd generation and rejects. A reader therefore never
// returns a torn record; it returns a whole write or nothing.
//
// Async-signal-safe by construction (the profiler appends from its SIGPROF
// handler): lock-free atomics only, no allocation after construction, no
// locks.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace psf::obs::seqlock {

static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "seqlock slots must be usable from a signal handler");

constexpr std::uint64_t writing(std::uint64_t index) { return 2 * index + 1; }
constexpr std::uint64_t complete(std::uint64_t index) { return 2 * index + 2; }

/// read() wildcard: accept whichever complete write the slot holds.
inline constexpr std::uint64_t kAnyIndex = ~std::uint64_t{0};

template <std::size_t N>
struct Slot {
  using Record = std::array<std::uint64_t, N>;

  std::atomic<std::uint64_t> gen{0};
  std::array<std::atomic<std::uint64_t>, N> words{};

  /// Single writer: the caller is the only thread that writes this slot.
  void write(std::uint64_t index, const Record& record) {
    gen.store(writing(index), std::memory_order_relaxed);
    store(index, record);
  }

  /// Claiming write for racing writers. Succeeds when the slot is empty or
  /// holds an older complete write; fails when a write is in flight or the
  /// slot already holds `index` or a newer one. A slot that missed a lap
  /// (its claim lost a race) is therefore reusable by the next lap.
  bool try_write(std::uint64_t index, const Record& record) {
    std::uint64_t seen = gen.load(std::memory_order_relaxed);
    do {
      if ((seen & 1) != 0 || seen >= writing(index)) return false;
    } while (!gen.compare_exchange_weak(seen, writing(index),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed));
    store(index, record);
    return true;
  }

  /// Validated copy: true (and `out` filled) only when the slot holds the
  /// complete write of `index` (any complete write for kAnyIndex),
  /// unchanged across the copy.
  bool read(Record& out, std::uint64_t index = kAnyIndex) const {
    const std::uint64_t seen = gen.load(std::memory_order_acquire);
    if (seen == 0 || (seen & 1) != 0) return false;
    if (index != kAnyIndex && seen != complete(index)) return false;
    for (std::size_t i = 0; i < N; ++i) {
      out[i] = words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    return gen.load(std::memory_order_relaxed) == seen;
  }

  /// Unvalidated copy, for the sole writer reading back its own earlier
  /// store (no other thread writes the slot, so it cannot be torn).
  Record peek() const {
    Record out{};
    for (std::size_t i = 0; i < N; ++i) {
      out[i] = words[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Logical index the next write of a free-running slot should claim:
  /// the number of complete writes so far.
  std::uint64_t next_index() const {
    return gen.load(std::memory_order_relaxed) / 2;
  }

  /// Back to "never written"; readers reject the old payload from now on.
  /// A write in flight keeps its claim: zeroing its odd generation would
  /// let a second try_write claim the slot while the first still stores
  /// words, and the two writes would interleave. It completes as usual.
  void rewind() {
    std::uint64_t seen = gen.load(std::memory_order_relaxed);
    while ((seen & 1) == 0 && seen != 0 &&
           !gen.compare_exchange_weak(seen, 0, std::memory_order_relaxed)) {
    }
  }

 private:
  void store(std::uint64_t index, const Record& record) {
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < N; ++i) {
      words[i].store(record[i], std::memory_order_relaxed);
    }
    gen.store(complete(index), std::memory_order_release);
  }
};

/// Fixed-capacity ring of N-word records over seqlock slots. Logical index
/// i lives in slot i mod capacity; the head is the next index to write.
template <std::size_t N>
class Ring {
 public:
  using Record = typename Slot<N>::Record;

  /// `capacity` is rounded up to a power of two. Every slot starts zeroed.
  explicit Ring(std::size_t capacity) {
    std::size_t rounded = 1;
    while (rounded < capacity) rounded <<= 1;
    mask_ = rounded - 1;
    slots_ = std::make_unique<Slot<N>[]>(rounded);
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// The next index append() writes. Meaningful to the single writer.
  std::uint64_t head() const { return head_.load(std::memory_order_relaxed); }

  /// The payload stored at `index`, unvalidated: only the single writer may
  /// use it, to read back what the next append is about to displace.
  Record peek(std::uint64_t index) const {
    return slots_[index & mask_].peek();
  }

  /// Single-writer append. The head is published after the slot completes,
  /// so a reader's acquire load only considers finished records.
  void append(const Record& record) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    slots_[h & mask_].write(h, record);
    head_.store(h + 1, std::memory_order_release);
  }

  /// Multi-producer push: claim an index, then the slot. False when the
  /// claim loses a slot race (a lapping producer owns the slot). On success
  /// `displaced` says whether the push wrapped over an earlier record.
  bool try_push(const Record& record, bool& displaced) {
    const std::uint64_t index = head_.fetch_add(1, std::memory_order_relaxed);
    if (!slots_[index & mask_].try_write(index, record)) return false;
    displaced = index > mask_;
    return true;
  }

  /// Calls `visit(record)` oldest-first for every retained record still
  /// whole when copied; records overwritten mid-copy are skipped.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    Record record{};
    for (std::uint64_t i = h > mask_ ? h - mask_ - 1 : 0; i < h; ++i) {
      if (slots_[i & mask_].read(record, i)) visit(record);
    }
  }

  /// Empty the ring: generations go to 0 first, then the head, so a reader
  /// racing the rewind rejects every old record instead of returning it
  /// under a reused index.
  void rewind() {
    for (std::size_t i = 0; i <= mask_; ++i) slots_[i].rewind();
    head_.store(0, std::memory_order_release);
  }

 private:
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::size_t mask_ = 0;
  std::unique_ptr<Slot<N>[]> slots_;
};

}  // namespace psf::obs::seqlock
