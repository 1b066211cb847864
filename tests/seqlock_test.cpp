// Seqlock slots (obs/seqlock.hpp), tested once for every user: the journal
// rings, the profiler's sample rings and histogram exemplars.
//
// The claim rules of try_write are pinned deterministically; the torture
// tests race a single writer lapping its ring, and producers lapping each
// other, against concurrent readers. Writers keep going until the readers
// have returned kMinReturned records, yielding now and then so a reader
// that keeps losing to the writer still gets through, so the race happens
// however the threads are scheduled. Under -DPSF_SANITIZE=thread this
// binary is the race detector's target for the protocol itself.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/seqlock.hpp"

namespace psf::obs::seqlock {
namespace {

using TestSlot = Slot<4>;
using TestRing = Ring<4>;
using Record = TestSlot::Record;

/// Every word derives from `v`, so a record mixing two writes is caught.
Record record_of(std::uint64_t v) {
  return {v, v * 0x9e3779b97f4a7c15ULL, ~v, v ^ 0x5a5a5a5a5a5a5a5aULL};
}
bool whole(const Record& r) { return r == record_of(r[0]); }

constexpr std::uint64_t kMinReturned = 1000;  // reads during the writes

/// Writer pacing: true while the readers still need records returned.
bool keep_writing(std::uint64_t i, std::uint64_t min_writes,
                  const std::atomic<std::uint64_t>& returned) {
  if (i % 1024 == 1023) std::this_thread::yield();
  return i < min_writes ||
         returned.load(std::memory_order_relaxed) < kMinReturned;
}

TEST(SeqLock, ReadAcceptsOnlyACompleteWriteOfTheExpectedIndex) {
  TestSlot slot;
  Record out{};
  EXPECT_FALSE(slot.read(out));  // never written
  slot.write(3, record_of(3));
  ASSERT_TRUE(slot.read(out, 3));
  EXPECT_EQ(out, record_of(3));
  EXPECT_FALSE(slot.read(out, 2));
  EXPECT_TRUE(slot.read(out));  // kAnyIndex
  slot.gen.store(writing(4));
  EXPECT_FALSE(slot.read(out)) << "a write in flight is never returned";
  EXPECT_FALSE(slot.read(out, 4));
  slot.write(4, record_of(4));
  slot.rewind();
  EXPECT_FALSE(slot.read(out, 4)) << "a rewound slot holds nothing";
}

TEST(SeqLock, SlotThatMissedALapAcceptsTheNextClaim) {
  // Capacity-4 ring view of one slot: index 1 completed, the claim for
  // index 5 lost its race and never wrote. The lap after (index 9) must
  // still get the slot rather than find it poisoned.
  TestSlot slot;
  slot.write(1, record_of(1));
  EXPECT_TRUE(slot.try_write(9, record_of(9)));
  Record out{};
  ASSERT_TRUE(slot.read(out, 9));
  EXPECT_EQ(out, record_of(9));

  TestSlot fresh;
  EXPECT_TRUE(fresh.try_write(7, record_of(7))) << "empty slot, any lap";
  EXPECT_EQ(fresh.next_index(), 8u);
}

TEST(SeqLock, TryWriteRejectsAWriteInFlightOrANewerGeneration) {
  TestSlot slot;
  slot.gen.store(writing(5));
  EXPECT_FALSE(slot.try_write(9, record_of(9))) << "older write in flight";
  EXPECT_FALSE(slot.try_write(5, record_of(5))) << "same index in flight";
  EXPECT_EQ(slot.gen.load(), writing(5));

  slot.write(9, record_of(9));
  EXPECT_FALSE(slot.try_write(5, record_of(5))) << "slot holds a newer lap";
  EXPECT_FALSE(slot.try_write(9, record_of(90))) << "index already written";
  Record out{};
  ASSERT_TRUE(slot.read(out, 9));
  EXPECT_EQ(out, record_of(9)) << "a rejected claim must not touch the slot";
}

TEST(SeqLock, RewindLeavesAClaimedSlotToItsWriter) {
  TestSlot slot;
  slot.gen.store(writing(3));  // a try_write claimed index 3, still storing
  slot.rewind();
  EXPECT_EQ(slot.gen.load(), writing(3));
  EXPECT_FALSE(slot.try_write(0, record_of(0)))
      << "a second writer must not claim a slot whose write is in flight";

  slot.write(3, record_of(3));  // the first writer finishes
  slot.rewind();
  Record out{};
  EXPECT_FALSE(slot.read(out)) << "a complete slot rewinds to empty";
  EXPECT_TRUE(slot.try_write(0, record_of(0)));
}

TEST(SeqLock, RingKeepsTheNewestCapacityRecordsOldestFirst) {
  TestRing ring(5);
  ASSERT_EQ(ring.capacity(), 8u);  // rounded up to a power of two
  for (std::uint64_t v = 0; v < 20; ++v) ring.append(record_of(v));
  EXPECT_EQ(ring.head(), 20u);
  EXPECT_EQ(ring.peek(20), record_of(12)) << "next append displaces 12";
  std::vector<std::uint64_t> seen;
  ring.for_each([&seen](const Record& r) { seen.push_back(r[0]); });
  std::vector<std::uint64_t> expected;
  for (std::uint64_t v = 12; v < 20; ++v) expected.push_back(v);
  EXPECT_EQ(seen, expected);

  ring.rewind();
  seen.clear();
  ring.for_each([&seen](const Record& r) { seen.push_back(r[0]); });
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(ring.head(), 0u);
}

TEST(SeqLock, TryPushReportsWrappingOverAnEarlierRecord) {
  TestRing ring(2);
  bool displaced = true;
  ASSERT_TRUE(ring.try_push(record_of(0), displaced));
  EXPECT_FALSE(displaced);
  ASSERT_TRUE(ring.try_push(record_of(1), displaced));
  EXPECT_FALSE(displaced);
  ASSERT_TRUE(ring.try_push(record_of(2), displaced));
  EXPECT_TRUE(displaced);
  std::vector<std::uint64_t> seen;
  ring.for_each([&seen](const Record& r) { seen.push_back(r[0]); });
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
}

TEST(SeqLock, SingleWriterLappingReadersNeverSeeATornRecord) {
  TestRing ring(64);
  constexpr std::uint64_t kMinWrites = 100'000;  // ~1500 laps
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> out_of_order{0};
  std::atomic<std::uint64_t> returned{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        std::uint64_t last = 0;
        std::uint64_t n = 0;
        ring.for_each([&](const Record& rec) {
          if (!whole(rec)) torn.fetch_add(1, std::memory_order_relaxed);
          if (n > 0 && rec[0] <= last) {
            out_of_order.fetch_add(1, std::memory_order_relaxed);
          }
          last = rec[0];
          ++n;
        });
        returned.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }
  std::uint64_t writes = 0;
  while (keep_writing(writes, kMinWrites, returned)) {
    ring.append(record_of(++writes));
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u) << "a reader returned a mix of two writes";
  EXPECT_EQ(out_of_order.load(), 0u);
  // Quiescent: exactly the newest lap survives, whole and in order.
  std::uint64_t expect = writes - ring.capacity() + 1;
  ring.for_each([&expect](const Record& rec) {
    EXPECT_EQ(rec, record_of(expect));
    ++expect;
  });
  EXPECT_EQ(expect, writes + 1);
}

TEST(SeqLock, ProducersLappingEachOtherNeverLeaveATornRecord) {
  TestRing ring(16);
  constexpr int kProducers = 4;
  constexpr std::uint64_t kMinPushes = 40'000;  // per producer, ~10k laps
  std::atomic<int> producing{kProducers};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> returned{0};
  std::atomic<std::uint64_t> pushes{0};
  std::atomic<std::uint64_t> stored{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (producing.load(std::memory_order_relaxed) > 0) {
        std::uint64_t n = 0;
        ring.for_each([&](const Record& rec) {
          if (!whole(rec)) torn.fetch_add(1, std::memory_order_relaxed);
          ++n;
        });
        returned.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      std::uint64_t i = 0;
      for (; keep_writing(i, kMinPushes, returned); ++i) {
        bool displaced = false;
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | i;
        if (ring.try_push(record_of(v), displaced)) {
          stored.fetch_add(1, std::memory_order_relaxed);
        }
      }
      pushes.fetch_add(i, std::memory_order_relaxed);
      producing.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0u) << "a reader returned a mix of two writes";
  EXPECT_GT(stored.load(), 0u);
  EXPECT_EQ(ring.head(), pushes.load()) << "every push claims an index";
  std::size_t retained = 0;
  ring.for_each([&retained](const Record& rec) {
    EXPECT_TRUE(whole(rec));
    ++retained;
  });
  EXPECT_LE(retained, ring.capacity());
}

}  // namespace
}  // namespace psf::obs::seqlock
