#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"

namespace psf::util {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
  EXPECT_EQ(from_hex("0001ABFF7F"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, HexRejectsBadDigit) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
}

TEST(Bytes, StringRoundTrip) {
  EXPECT_EQ(to_string(to_bytes("hello")), "hello");
  EXPECT_EQ(to_bytes("").size(), 0u);
}

TEST(Bytes, AppendConcatenates) {
  Bytes dst = to_bytes("ab");
  append(dst, to_bytes("cd"));
  append(dst, "ef");
  EXPECT_EQ(to_string(dst), "abcdef");
}

TEST(Bytes, BigEndianRoundTrip32) {
  Bytes b;
  put_u32_be(b, 0xdeadbeef);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0xde);
  EXPECT_EQ(get_u32_be(b, 0), 0xdeadbeefu);
}

TEST(Bytes, BigEndianRoundTrip64) {
  Bytes b;
  put_u64_be(b, 0x0123456789abcdefULL);
  ASSERT_EQ(b.size(), 8u);
  EXPECT_EQ(get_u64_be(b, 0), 0x0123456789abcdefULL);
}

TEST(Bytes, BigEndianOutOfRangeThrows) {
  Bytes b(3, 0);
  EXPECT_THROW(get_u32_be(b, 0), std::out_of_range);
}

TEST(Bytes, EqualCt) {
  EXPECT_TRUE(equal_ct(to_bytes("same"), to_bytes("same")));
  EXPECT_FALSE(equal_ct(to_bytes("same"), to_bytes("sa_e")));
  EXPECT_FALSE(equal_ct(to_bytes("short"), to_bytes("longer")));
}

TEST(Bytes, JsonEscapeCoversEveryControlByteAndKeepsUtf8) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
  for (int c = 0; c < 0x20; ++c) {
    if (c == '\n' || c == '\r' || c == '\t') continue;
    char expected[7];
    std::snprintf(expected, sizeof(expected), "\\u%04x", c);
    EXPECT_EQ(json_escape(std::string(1, static_cast<char>(c))), expected)
        << c;
  }
  EXPECT_EQ(json_escape("\x20\x7f"), "\x20\x7f");
  const std::string utf8 = "caf\xc3\xa9 \xe2\x82\xac";
  EXPECT_EQ(json_escape(utf8), utf8);
  EXPECT_EQ(json_escape(""), "");
}

TEST(Result, SuccessHoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, FailureHoldsError) {
  auto r = Result<int>::failure("nope", "did not work");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "nope");
  EXPECT_THROW(r.value(), std::runtime_error);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBytesLength) {
  Rng rng(11);
  EXPECT_EQ(rng.next_bytes(0).size(), 0u);
  EXPECT_EQ(rng.next_bytes(7).size(), 7u);
  EXPECT_EQ(rng.next_bytes(64).size(), 64u);
}

TEST(SimClock, AdvanceAndSet) {
  SimClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(50);
  EXPECT_EQ(clock.now(), 150);
  clock.set(1000);
  EXPECT_EQ(clock.now(), 1000);
}

TEST(RealClock, MonotonicNonDecreasing) {
  RealClock clock;
  const SimTime a = clock.now();
  const SimTime b = clock.now();
  EXPECT_LE(a, b);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroWorkersClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  auto f = pool.submit([] {});
  f.get();
}

}  // namespace
}  // namespace psf::util
