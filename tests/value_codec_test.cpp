#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "minilang/value_codec.hpp"
#include "util/rng.hpp"

// Allocation accounting for the decoder-bound tests: this binary's global
// operator new records the largest single request and the total requested
// while a measurement window is open.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_largest{0};
std::atomic<std::size_t> g_total{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_total.fetch_add(n, std::memory_order_relaxed);
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace psf::minilang {
namespace {

struct AllocWindow {
  AllocWindow() {
    g_largest = 0;
    g_total = 0;
    g_counting = true;
  }
  ~AllocWindow() { g_counting = false; }
};

TEST(ValueCodec, RoundTripsPrimitives) {
  for (const Value& v :
       {Value::null(), Value::boolean(true), Value::boolean(false),
        Value::integer(0), Value::integer(-42), Value::integer(1'234'567'890),
        Value::string(""), Value::string("hello"),
        Value::bytes({0x00, 0xff, 0x7f})}) {
    auto decoded = decode_value(encode_value(v));
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().equals(v)) << v.to_display_string();
  }
}

TEST(ValueCodec, RoundTripsNestedContainers) {
  ValueMap inner;
  inner["phone"] = Value::string("555-0100");
  inner["email"] = Value::string("alice@comp.ny");
  ValueMap outer;
  outer["alice"] = Value::map(inner);
  outer["count"] = Value::integer(2);
  Value v = Value::list({Value::map(outer), Value::string("tail"),
                         Value::list({Value::integer(1), Value::null()})});
  auto decoded = decode_value(encode_value(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().equals(v));
}

TEST(ValueCodec, ObjectsAreNotSerializable) {
  struct Dummy : CallTarget {
    Value call(const std::string&, std::vector<Value>) override {
      return Value::null();
    }
    std::string type_name() const override { return "Dummy"; }
  };
  const Value v = Value::object(std::make_shared<Dummy>());
  EXPECT_THROW(encode_value(v), EvalError);
  // ... and the error message points at the paper's remedy.
  try {
    encode_value(v);
  } catch (const EvalError& e) {
    EXPECT_NE(std::string(e.what()).find("rmi or switchboard"),
              std::string::npos);
  }
}

TEST(ValueCodec, RejectsTruncatedInput) {
  const util::Bytes encoded = encode_value(Value::string("some string"));
  for (std::size_t cut = 1; cut < encoded.size(); ++cut) {
    util::Bytes truncated(encoded.begin(),
                          encoded.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_value(truncated).ok()) << "cut at " << cut;
  }
}

TEST(ValueCodec, RejectsTrailingGarbage) {
  util::Bytes encoded = encode_value(Value::integer(5));
  encoded.push_back(0x00);
  EXPECT_FALSE(decode_value(encoded).ok());
}

TEST(ValueCodec, RejectsUnknownTag) {
  EXPECT_FALSE(decode_value({0xee}).ok());
}

TEST(ValueCodec, RejectsOversizedListCount) {
  // Tag list + absurd count.
  util::Bytes bad = {6, 0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(decode_value(bad).ok());
}

/// `depth` nested list headers; header k claims `count(k, remaining)`
/// items, then null tags pad the input to `size` bytes.
util::Bytes nested_list_headers(std::size_t size, int depth,
                                std::uint32_t (*count)(std::size_t remaining)) {
  util::Bytes out;
  out.reserve(size);
  for (int k = 0; k < depth; ++k) {
    out.push_back(6);  // list tag
    util::put_u32_be(out, count(size - out.size() - 4));
  }
  out.resize(size, 0);  // null tags
  return out;
}

TEST(ValueCodec, NestedCountsClaimingTheWholeInputAllocateNothingBig) {
  // 64 nested list headers, each claiming as many items as the input has
  // bytes: rejected at the first header, before any count-sized reserve.
  constexpr std::size_t kSize = 1 << 20;
  const util::Bytes hostile =
      nested_list_headers(kSize, 64, [](std::size_t) {
        return static_cast<std::uint32_t>(kSize);
      });
  util::Bytes args;
  util::put_u32_be(args, 1);
  args.insert(args.end(), hostile.begin(), hostile.end());
  {
    AllocWindow window;
    EXPECT_FALSE(decode_value(hostile).ok());
    EXPECT_FALSE(decode_values(args).ok());
  }
  EXPECT_LE(g_largest.load(), 2 * kSize);
  EXPECT_LE(g_total.load(), 2 * kSize);
}

TEST(ValueCodec, NestedCountsThatFitTheInputAllocateInProportionToIt) {
  // Each header's count fits the bytes that remain, so every level passes
  // the count check; what each level reserves must not multiply the claim.
  constexpr std::size_t kSize = 64 << 10;
  const util::Bytes hostile =
      nested_list_headers(kSize, 64, [](std::size_t remaining) {
        return static_cast<std::uint32_t>(remaining);
      });
  {
    AllocWindow window;
    EXPECT_FALSE(decode_value(hostile).ok());
  }
  // The innermost list really holds one decoded Value per null byte.
  EXPECT_LE(g_total.load(), 4 * sizeof(Value) * kSize);
}

TEST(ValueCodec, ValueListRoundTrip) {
  std::vector<Value> args = {Value::string("getPhone"), Value::integer(1),
                             Value::list({Value::string("alice")})};
  auto decoded = decode_values(encode_values(args));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), 3u);
  for (std::size_t i = 0; i < args.size(); ++i) {
    EXPECT_TRUE(decoded.value()[i].equals(args[i]));
  }
}

TEST(ValueCodec, EmptyValueListRoundTrip) {
  auto decoded = decode_values(encode_values({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(ValueCodec, FuzzDecodeNeverCrashes) {
  util::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const util::Bytes garbage = rng.next_bytes(rng.next_below(64));
    (void)decode_value(garbage);  // must not crash or hang
    (void)decode_values(garbage);
  }
  SUCCEED();
}

}  // namespace
}  // namespace psf::minilang
