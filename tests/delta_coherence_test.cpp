// Delta-based view cache coherence: field-level dirty tracking means a
// steady-state sync carries only the fields changed since the last exchange.
// These tests pin the protocol invariants: delta merge must be
// indistinguishable from a full merge, the first sync (or an epoch change)
// must fall back to a full image, and deltas must propagate through chained
// replicas wired over ImageEndpoint. The view-update laws, the container
// mutation oracle and the VDI1 image fuzz below pin the single sync path.
#include <gtest/gtest.h>

#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "minilang/parser.hpp"
#include "util/rng.hpp"
#include "views/cache.hpp"
#include "views/vig.hpp"

namespace psf::views {
namespace {

using minilang::Value;

/// The encoded field map of `instance`'s full image, without the VDI1
/// header: two instances hold the same state iff their bodies are equal
/// (headers differ, they carry each instance's uid).
util::Bytes image_body(const minilang::Instance& instance) {
  const util::Bytes image = instance_image_since(instance, 0);
  return util::Bytes(image.begin() + kImageHeaderSize, image.end());
}

struct DeltaWorld {
  minilang::ClassRegistry registry;
  Vig vig{&registry};

  DeltaWorld() {
    mail::register_all(registry);
    auto def = ViewDefinition::from_xml(mail::view_xml_member());
    EXPECT_TRUE(def.ok());
    auto cls = vig.generate(def.value());
    EXPECT_TRUE(cls.ok()) << (cls.ok() ? "" : cls.error().message);
  }

  std::shared_ptr<minilang::Instance> make_original() {
    auto original = minilang::instantiate(registry, "MailClient");
    original->call("addAccount", {Value::string("alice"), Value::string("555"),
                                  Value::string("a@x")});
    return original;
  }
};

TEST(DeltaImage, FirstSyncIsFullThenDelta) {
  DeltaWorld w;
  auto original = w.make_original();
  auto replica = minilang::instantiate(w.registry, "MailClient");
  CacheManager cache(CacheManager::Policy::kPull, Value::object(original));

  // No sync point yet: the extract must be a framed full image.
  const util::Bytes cold = cache.extract_from_original(*original);
  ImageFrame frame;
  ASSERT_TRUE(read_image_frame(cold, frame));
  EXPECT_FALSE(frame.is_delta());
  EXPECT_EQ(frame.uid, original->uid());
  cache.merge_pull(*replica, cold);
  EXPECT_EQ(cache.stats().full_syncs, 1u);

  // Same epoch, one dirty field: the next extract is a delta.
  original->call("addNote", {Value::string("hi")});
  const util::Bytes warm = cache.extract_from_original(*original);
  ASSERT_TRUE(read_image_frame(warm, frame));
  EXPECT_TRUE(frame.is_delta());
  EXPECT_LT(warm.size(), cold.size());
  cache.merge_pull(*replica, warm);
  EXPECT_GE(cache.stats().delta_pulls, 1u);

  // Nothing dirty: the delta degenerates to (nearly) just the frame header.
  const util::Bytes idle = cache.extract_from_original(*original);
  ASSERT_TRUE(read_image_frame(idle, frame));
  EXPECT_TRUE(frame.is_delta());
  EXPECT_LT(idle.size(), warm.size());
}

TEST(DeltaImage, DeltaMergeEqualsFullMerge) {
  DeltaWorld w;
  auto original = w.make_original();
  auto via_delta = minilang::instantiate(w.registry, "MailClient");
  auto via_full = minilang::instantiate(w.registry, "MailClient");
  CacheManager cache(CacheManager::Policy::kPull, Value::object(original));

  // Replica A follows the original through full + two deltas, with
  // different fields dirtied between syncs (including an in-place container
  // mutation through a builtin, the fingerprint-tracked case).
  cache.merge_pull(*via_delta, cache.extract_from_original(*original));
  original->call("addNote", {Value::string("n1")});
  original->call("deliver", {mail::make_message("bob", "alice", "s", "b")});
  cache.merge_pull(*via_delta, cache.extract_from_original(*original));
  original->call("addAccount", {Value::string("bob"), Value::string("777"),
                                Value::string("b@x")});
  original->call("addNote", {Value::string("n2")});
  cache.merge_pull(*via_delta, cache.extract_from_original(*original));

  // Replica B gets one fresh full image at the end.
  apply_instance_image(*via_full, instance_image_since(*original, 0));

  // Byte-identical state images: the delta path lost nothing.
  EXPECT_EQ(image_body(*via_delta), image_body(*via_full));
  EXPECT_EQ(image_body(*via_delta), image_body(*original));
}

TEST(DeltaImage, EpochChangeFallsBackToFull) {
  DeltaWorld w;
  auto original_a = w.make_original();
  auto original_b = w.make_original();  // distinct uid
  auto replica = minilang::instantiate(w.registry, "MailClient");
  CacheManager cache(CacheManager::Policy::kPull, Value::object(original_a));

  cache.merge_pull(*replica, cache.extract_from_original(*original_a));
  ImageFrame frame;
  // Rewired to a different original: uid mismatch forces a full image even
  // though the cache has a sync point.
  const util::Bytes img = cache.extract_from_original(*original_b);
  ASSERT_TRUE(read_image_frame(img, frame));
  EXPECT_FALSE(frame.is_delta());
  EXPECT_EQ(frame.uid, original_b->uid());
}

TEST(DeltaImage, SinceZeroIsFullAndUnframedImagesAreRejected) {
  DeltaWorld w;
  auto original = w.make_original();
  ImageFrame frame;
  // since == 0 cannot be expressed as a delta on the wire (0 marks "full"),
  // so it is the full image.
  const util::Bytes since_zero = instance_image_since(*original, 0);
  ASSERT_TRUE(read_image_frame(since_zero, frame));
  EXPECT_FALSE(frame.is_delta());
  // The body alone (an unframed encoded map) is no image.
  const util::Bytes unframed = image_body(*original);
  EXPECT_FALSE(read_image_frame(unframed, frame));
  auto replica = minilang::instantiate(w.registry, "MailClient");
  const std::uint64_t before = replica->state_version();
  EXPECT_THROW(apply_instance_image(*replica, unframed), MalformedImage);
  EXPECT_THROW(apply_instance_image(*replica, {}), MalformedImage);
  EXPECT_EQ(replica->state_version(), before);
}

TEST(DeltaImage, ApplyIsIdempotent) {
  DeltaWorld w;
  auto original = w.make_original();
  auto replica = minilang::instantiate(w.registry, "MailClient");
  apply_instance_image(*replica, instance_image_since(*original, 0));
  original->call("addNote", {Value::string("once")});
  const util::Bytes delta =
      instance_image_since(*original, original->state_version() - 1);
  apply_instance_image(*replica, delta);
  const std::uint64_t settled = replica->state_version();
  // Re-applying the same delta matches existing values field-by-field and
  // must not dirty the replica again (no pull -> push echo amplification).
  apply_instance_image(*replica, delta);
  EXPECT_EQ(replica->state_version(), settled);
  EXPECT_EQ(image_body(*replica), image_body(*original));
}

TEST(DeltaCoherence, ViewPullGoesDeltaAfterFirstSync) {
  DeltaWorld w;
  auto original = w.make_original();
  auto view = minilang::instantiate(w.registry, "ViewMailClient_Member");
  auto cache = attach_cache_manager(view, Value::object(original),
                                    CacheManager::Policy::kPull);
  EXPECT_EQ(view->call("getPhone", {Value::string("alice")}).as_string(),
            "555");
  EXPECT_EQ(cache->stats().full_syncs, 1u);
  const auto deltas_before = cache->stats().delta_pulls;
  original->call("addAccount", {Value::string("alice"), Value::string("556"),
                                Value::string("a@x")});
  EXPECT_EQ(view->call("getPhone", {Value::string("alice")}).as_string(),
            "556");
  EXPECT_GT(cache->stats().delta_pulls, deltas_before);
}

TEST(DeltaCoherence, ChainedReplicaPropagatesThroughImageEndpoint) {
  DeltaWorld w;
  // Nested view class over the member view (view-of-view).
  auto nested = ViewDefinition::from_xml(R"(
<View name="ViewOfMemberView">
  <Represents name="ViewMailClient_Member"/>
  <Restricts>
    <Interface name="AddressI" type="local"/>
  </Restricts>
  <Adds_Methods>
    <MSign>constructor()</MSign><MBody>accounts = map();</MBody>
  </Adds_Methods>
</View>)");
  ASSERT_TRUE(nested.ok());
  ASSERT_TRUE(w.vig.generate(nested.value()).ok());

  auto original = w.make_original();
  auto middle = minilang::instantiate(w.registry, "ViewMailClient_Member");
  auto middle_cache = attach_cache_manager(middle, Value::object(original),
                                           CacheManager::Policy::kPull);
  auto top = minilang::instantiate(w.registry, "ViewOfMemberView");
  auto top_cache = attach_cache_manager(
      top, Value::object(std::make_shared<ImageEndpoint>(middle)),
      CacheManager::Policy::kPull);

  // Cold chain: original -> middle -> top, full images both hops.
  EXPECT_EQ(top->call("getPhone", {Value::string("alice")}).as_string(),
            "555");

  // Mutate the root; the change must flow both hops, and the warm hops must
  // ride deltas (middle pulls a delta from the local original; top pulls a
  // delta from middle through the endpoint's two-arg extract).
  const auto middle_deltas = middle_cache->stats().delta_pulls;
  const auto top_deltas = top_cache->stats().delta_pulls;
  original->call("addAccount", {Value::string("alice"), Value::string("999"),
                                Value::string("a@x")});
  EXPECT_EQ(top->call("getPhone", {Value::string("alice")}).as_string(),
            "999");
  EXPECT_GT(middle_cache->stats().delta_pulls, middle_deltas);
  EXPECT_GT(top_cache->stats().delta_pulls, top_deltas);
}

TEST(DeltaImage, FullSyncsCountOncePerFullImageMerged) {
  DeltaWorld w;
  auto original_a = w.make_original();
  auto original_b = w.make_original();
  auto replica = minilang::instantiate(w.registry, "MailClient");
  CacheManager cache(CacheManager::Policy::kPull, Value::object(original_a));
  cache.merge_pull(*replica, cache.extract_from_original(*original_a));
  EXPECT_EQ(cache.stats().full_syncs, 1u);  // local first sync
  original_a->call("addNote", {Value::string("n")});
  cache.merge_pull(*replica, cache.extract_from_original(*original_a));
  EXPECT_EQ(cache.stats().full_syncs, 1u);  // a delta
  cache.merge_pull(*replica, cache.extract_from_original(*original_b));
  EXPECT_EQ(cache.stats().full_syncs, 2u);  // epoch change: one more

  // Remote first sync through an ImageEndpoint counts once, like a local one.
  auto view = minilang::instantiate(w.registry, "ViewMailClient_Member");
  auto remote = attach_cache_manager(
      view, Value::object(std::make_shared<ImageEndpoint>(original_a)),
      CacheManager::Policy::kPull);
  view->call("getPhone", {Value::string("alice")});
  EXPECT_EQ(remote->stats().full_syncs, 1u);
  original_a->call("addNote", {Value::string("m")});
  view->call("getPhone", {Value::string("alice")});
  EXPECT_EQ(remote->stats().full_syncs, 1u);
  EXPECT_GT(remote->stats().delta_pulls, 0u);

  // Both directions: the first bracket merges one full image each way.
  auto both = minilang::instantiate(w.registry, "ViewMailClient_Member");
  auto pull_push = attach_cache_manager(both, Value::object(original_a));
  both->call("addNote", {Value::string("x")});
  EXPECT_EQ(pull_push->stats().full_syncs, 2u);
  both->call("addNote", {Value::string("y")});
  EXPECT_EQ(pull_push->stats().full_syncs, 2u);
  EXPECT_EQ(pull_push->stats().delta_pushes, 1u);
}

TEST(DeltaImage, DeltaThatDoesNotContinueTheSyncPointIsRejected) {
  DeltaWorld w;
  auto original = w.make_original();
  auto other = w.make_original();
  auto replica = minilang::instantiate(w.registry, "MailClient");
  CacheManager cache(CacheManager::Policy::kPull, Value::object(original));
  original->call("addNote", {Value::string("a")});
  cache.merge_pull(*replica, cache.extract_from_original(*original));
  const auto [uid, synced] = cache.pull_sync();
  ASSERT_EQ(uid, original->uid());
  original->call("addNote", {Value::string("b")});
  other->call("addNote", {Value::string("c")});
  const std::uint64_t before = replica->state_version();
  // From an older version than the sync point, and from another epoch.
  EXPECT_THROW(cache.merge_pull(*replica,
                                instance_image_since(*original, synced - 1)),
               MalformedImage);
  EXPECT_THROW(cache.merge_pull(*replica, instance_image_since(*other, 1)),
               MalformedImage);
  EXPECT_EQ(replica->state_version(), before);
  EXPECT_EQ(cache.pull_sync(), std::make_pair(uid, synced));
  // The one that does continue it applies.
  cache.merge_pull(*replica, instance_image_since(*original, synced));
  EXPECT_EQ(image_body(*replica), image_body(*original));
}

TEST(DeltaCoherence, DirectCallsGetFullImagesAndRemotePullsNameTheirSyncPoint) {
  DeltaWorld w;
  auto original = w.make_original();
  auto view = minilang::instantiate(w.registry, "ViewMailClient_Member");
  attach_cache_manager(view, Value::object(original));
  view->call("addNote", {Value::string("n")});  // both sync points advance
  ImageFrame frame;
  ASSERT_TRUE(read_image_frame(
      view->call("extractImageFromView", {}).as_bytes(), frame));
  EXPECT_FALSE(frame.is_delta());
  EXPECT_EQ(frame.uid, view->uid());
  ASSERT_TRUE(read_image_frame(
      view->call("extractImageFromObj", {}).as_bytes(), frame));
  EXPECT_FALSE(frame.is_delta());
  EXPECT_EQ(frame.uid, original->uid());

  ImageEndpoint endpoint(original);
  EXPECT_THROW(endpoint.call("extractImageFromView", {}), minilang::EvalError);
  const Value cold = endpoint.call("extractImageFromView",
                                   {Value::integer(0), Value::integer(0)});
  ASSERT_TRUE(read_image_frame(cold.as_bytes(), frame));
  EXPECT_FALSE(frame.is_delta());
  // A sync point from the future is another epoch: full.
  const Value future = endpoint.call(
      "extractImageFromView",
      {Value::integer(static_cast<std::int64_t>(original->uid())),
       Value::integer(static_cast<std::int64_t>(frame.to_version + 1))});
  ASSERT_TRUE(read_image_frame(future.as_bytes(), frame));
  EXPECT_FALSE(frame.is_delta());
}

// ---- VDI1 image fuzz: seeded mutations of valid full and delta images.
// Every rejection is the one MalformedImage and applies nothing; a mutant
// that still decodes to a well-formed field map is applied (an image's
// integrity is its transport's, DESIGN §4e). Any other exception fails the
// test.

/// Apply `image` to a fresh replica: true if applied, false if rejected.
bool try_apply(DeltaWorld& w, const util::Bytes& image) {
  auto replica = minilang::instantiate(w.registry, "MailClient");
  const std::uint64_t before = replica->state_version();
  const util::Bytes body = image_body(*replica);
  try {
    apply_instance_image(*replica, image);
  } catch (const MalformedImage&) {
    EXPECT_EQ(replica->state_version(), before);
    EXPECT_EQ(image_body(*replica), body);
    return false;
  }
  return true;
}

void put_u64_at(util::Bytes& image, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    image[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * (7 - i)));
  }
}

TEST(ImageFuzz, MutantsAreRejectedWithOneErrorOrApplied) {
  DeltaWorld w;
  auto original = w.make_original();
  original->call("deliver", {mail::make_message("bob", "alice", "s", "b")});
  original->call("addNote", {Value::string("n1")});
  const util::Bytes full = instance_image_since(*original, 0);
  const std::uint64_t since = original->state_version();
  original->call("addNote", {Value::string("n2")});
  original->call("addMeeting", {Value::string("standup")});
  const util::Bytes delta = instance_image_since(*original, since);

  // Valid images round-trip.
  auto replica = minilang::instantiate(w.registry, "MailClient");
  EXPECT_FALSE(apply_instance_image(*replica, full).is_delta());
  EXPECT_TRUE(apply_instance_image(*replica, delta).is_delta());
  EXPECT_EQ(image_body(*replica), image_body(*original));

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed * 7919);
    for (const util::Bytes* base : {&full, &delta}) {
      SCOPED_TRACE(base == &full ? "full" : "delta");
      // Every truncation: the codec is prefix-free, so all are rejected.
      for (std::size_t n = 0; n < base->size(); ++n) {
        EXPECT_FALSE(try_apply(
            w, util::Bytes(base->begin(), base->begin() + n)));
      }
      // A bit flip at each byte.
      for (std::size_t i = 0; i < base->size(); ++i) {
        util::Bytes mutant = *base;
        mutant[i] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        try_apply(w, mutant);
      }
      // Header rewrites: a foreign uid is still a well-formed image (the
      // receiver's sync point, not the image, rejects a foreign delta);
      // from_version > to_version is not.
      util::Bytes foreign = *base;
      put_u64_at(foreign, 4, rng.next_u64() | 1);
      EXPECT_TRUE(try_apply(w, foreign));
      util::Bytes backwards = *base;
      put_u64_at(backwards, 12, util::get_u64_be(*base, 20) + 1);
      EXPECT_FALSE(try_apply(w, backwards));
      // Appended bytes: trailing garbage after the one map.
      util::Bytes appended = *base;
      const util::Bytes extra = rng.next_bytes(1 + rng.next_below(8));
      appended.insert(appended.end(), extra.begin(), extra.end());
      EXPECT_FALSE(try_apply(w, appended));
    }
    // Random byte strings, bare and behind a valid-looking header.
    for (int i = 0; i < 300; ++i) {
      util::Bytes junk = rng.next_bytes(rng.next_below(64));
      try_apply(w, junk);
      util::Bytes framed = util::to_bytes("VDI1");
      const util::Bytes header = rng.next_bytes(24);
      framed.insert(framed.end(), header.begin(), header.end());
      framed.insert(framed.end(), junk.begin(), junk.end());
      try_apply(w, framed);
    }
  }
}

// ---- view-update laws (Making View Update Strategies Programmable): the
// pull/push pair must behave like a well-behaved get/put lens.

struct LawWorld : DeltaWorld {
  std::shared_ptr<minilang::Instance> original = make_original();

  std::shared_ptr<minilang::Instance> member_view(CacheManager::Policy p) {
    auto view = minilang::instantiate(registry, "ViewMailClient_Member");
    attach_cache_manager(view, Value::object(original), p);
    return view;
  }

  void mutate_origin(util::Rng& rng) {
    const std::string tag = std::to_string(rng.next_below(1000));
    switch (rng.next_below(4)) {
      case 0:
        original->call("addAccount", {Value::string("u" + tag),
                                      Value::string(tag), Value::string("e")});
        break;
      case 1:
        original->call("deliver", {mail::make_message("x", "alice", tag, "b")});
        break;
      case 2: original->call("addNote", {Value::string("o" + tag)}); break;
      default: original->call("receiveMessages", {}); break;
    }
  }

  static void call_view(minilang::Instance& view, util::Rng& rng) {
    const std::string tag = std::to_string(rng.next_below(1000));
    switch (rng.next_below(5)) {
      case 0: view.call("getPhone", {Value::string("alice")}); break;
      case 1: view.call("addNote", {Value::string("v" + tag)}); break;
      case 2: view.call("addMeeting", {Value::string(tag)}); break;
      case 3:
        view.call("sendMessage", {mail::make_message("alice", "x", tag, "b")});
        break;
      default: view.call("receiveMessages", {}); break;
    }
  }
};

TEST(ViewUpdateLaw, PushingAnUnchangedViewLeavesTheOriginUnchanged) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    LawWorld w;
    util::Rng rng(seed);
    auto view = w.member_view(CacheManager::Policy::kPullPush);
    auto* cache = dynamic_cast<CacheManager*>(view->hooks());
    for (int step = 0; step < 40; ++step) {
      if (rng.next_below(2) == 0) w.mutate_origin(rng);
      if (rng.next_below(2) == 0) LawWorld::call_view(*view, rng);
      cache->acquire_image(*view);
      const std::uint64_t settled = w.original->state_version();
      cache->release_image(*view);
      EXPECT_EQ(w.original->state_version(), settled) << "step " << step;
    }
  }
}

TEST(ViewUpdateLaw, PullAfterPushReturnsWhatWasPushed) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    LawWorld w;
    util::Rng rng(seed + 100);
    auto writer = w.member_view(CacheManager::Policy::kPullPush);
    auto reader = w.member_view(CacheManager::Policy::kPull);
    auto* writer_cache = dynamic_cast<CacheManager*>(writer->hooks());
    auto* reader_cache = dynamic_cast<CacheManager*>(reader->hooks());
    for (int step = 0; step < 40; ++step) {
      if (rng.next_below(3) == 0) w.mutate_origin(rng);
      LawWorld::call_view(*writer, rng);  // the bracket pushes
      const util::Bytes pushed = image_body(*writer);
      writer_cache->acquire_image(*writer);
      EXPECT_EQ(image_body(*writer), pushed) << "step " << step;
      reader_cache->acquire_image(*reader);
      EXPECT_EQ(image_body(*reader), pushed) << "step " << step;
    }
  }
}

// ---- container-mutation oracle: random MiniLang bodies mutate containers
// in place (aliases through locals, one list in two fields, a list nested in
// a map); after every call a delta-synced replica must equal a replica built
// from a fresh full image.

std::string random_statement(util::Rng& rng) {
  const std::string x = std::to_string(rng.next_below(100));
  const std::string key = "\"k" + std::to_string(rng.next_below(3)) + "\"";
  switch (rng.next_below(14)) {
    case 0: return "push(a, " + x + ");";
    case 1: return "var out = a; push(out, " + x + ");";
    case 2: return "b = a;";
    case 3: return "push(b, " + x + ");";
    case 4: return "put(m, " + key + ", " + x + ");";
    case 5: return "put(m, \"in\", a);";
    case 6: return "if (has(m, \"in\")) { push(get(m, \"in\"), " + x + "); }";
    case 7: return "a = list();";
    case 8: return "if (len(b) > 0) { pop(b); }";
    case 9: return "n = n + 1;";
    case 10: return "remove(m, " + key + ");";
    case 11: return "var inner = list(); push(inner, " + x +
                    "); put(m, \"in\", inner);";
    case 12: return "if (has(m, \"in\")) { b = get(m, \"in\"); }";
    default: return "m = map();";
  }
}

minilang::MethodDef parsed(const std::string& name, const std::string& body) {
  minilang::MethodDef m;
  m.name = name;
  m.source = body;
  auto block = minilang::parse_block_source(body);
  EXPECT_TRUE(block.ok()) << body;
  m.body = std::move(block).take();
  return m;
}

TEST(ContainerMutationOracle, DeltaReplicaMatchesFullImageAfterEveryCall) {
  constexpr int kMethods = 12;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed * 31);
    minilang::ClassRegistry registry;
    auto box = std::make_shared<minilang::ClassDef>();
    box->name = "Box";
    for (const char* field : {"a", "b", "m", "n"}) {
      box->fields.push_back({field, "", Value::null()});
    }
    box->methods.push_back(
        parsed("constructor", "a = list(); b = list(); m = map(); n = 0;"));
    for (int i = 0; i < kMethods; ++i) {
      std::string body;
      for (std::uint64_t k = 0, n = 1 + rng.next_below(3); k < n; ++k) {
        body += random_statement(rng) + " ";
      }
      box->methods.push_back(parsed("m" + std::to_string(i), body));
    }
    registry.register_class(box);

    auto original = minilang::instantiate(registry, "Box");
    auto via_delta = minilang::instantiate(registry, "Box");
    CacheManager cache(CacheManager::Policy::kPull, Value::object(original));
    for (int step = 0; step < 60; ++step) {
      original->call("m" + std::to_string(rng.next_below(kMethods)), {});
      // Delta first: the full extract below must not be what notices the
      // mutation for it.
      cache.merge_pull(*via_delta, cache.extract_from_original(*original));
      auto via_full = minilang::instantiate(registry, "Box");
      apply_instance_image(*via_full, instance_image_since(*original, 0));
      ASSERT_EQ(image_body(*via_delta), image_body(*via_full))
          << "step " << step;
      for (const char* field : {"a", "b", "m", "n"}) {
        EXPECT_TRUE(via_delta->get_field(field).equals(
            original->get_field(field)))
            << field << " at step " << step;
      }
    }
    EXPECT_GT(cache.stats().delta_pulls, 0u);
  }
}

}  // namespace
}  // namespace psf::views
