#include "views/cache.hpp"

#include <algorithm>
#include <string_view>

#include "minilang/interp.hpp"
#include "minilang/value_codec.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace psf::views {

using minilang::Instance;
using minilang::Value;
using minilang::ValueMap;

namespace {
// View cache-coherence instrumentation (psf.views.cache.*).
struct CacheMetrics {
  obs::Counter& acquires = obs::counter("psf.views.cache.acquires");
  obs::Counter& releases = obs::counter("psf.views.cache.releases");
  obs::Counter& pulls = obs::counter("psf.views.cache.pulls");
  obs::Counter& pushes = obs::counter("psf.views.cache.pushes");
  obs::Counter& extracts = obs::counter("psf.views.cache.extracts");
  obs::Counter& merges = obs::counter("psf.views.cache.merges");
  obs::Histogram& pull_wait_us = obs::histogram("psf.views.cache.pull_wait_us");
  obs::Histogram& push_wait_us = obs::histogram("psf.views.cache.push_wait_us");
  obs::Histogram& image_bytes = obs::histogram("psf.views.cache.image_bytes");
  // Delta coherence (psf.views.cache.delta.*): how often the delta path is
  // taken, how much it carries, and when it falls back to full images.
  obs::Counter& delta_images = obs::counter("psf.views.cache.delta.images");
  obs::Counter& delta_fields = obs::counter("psf.views.cache.delta.fields");
  obs::Counter& delta_full_syncs =
      obs::counter("psf.views.cache.delta.full_syncs");
  obs::Histogram& delta_bytes =
      obs::histogram("psf.views.cache.delta.bytes");
  static CacheMetrics& get() {
    static CacheMetrics m;
    return m;
  }
};
}  // namespace

CacheManager::CacheManager(Policy policy, Value original)
    : policy_(policy), original_(std::move(original)) {}

void CacheManager::before_method(Instance& self, const minilang::MethodDef&) {
  acquire_image(self);
}

void CacheManager::after_method(Instance& self, const minilang::MethodDef&) {
  release_image(self);
}

void CacheManager::acquire_image(Instance& self) {
  CacheMetrics& metrics = CacheMetrics::get();
  ++stats_.acquires;
  metrics.acquires.inc();
  if (in_coherence_) return;
  if (policy_ != Policy::kPull && policy_ != Policy::kPullPush) return;
  if (original_.is_null()) return;
  in_coherence_ = true;
  obs::ScopedTimerUs wait(metrics.pull_wait_us);
  try {
    Value image = minilang::invoke_method(
        self.shared_from_this(), "extractImageFromObj", {}, /*external=*/false);
    if (image.is_bytes() && !image.as_bytes().empty()) {
      minilang::invoke_method(self.shared_from_this(), "mergeImageIntoView",
                              {image}, /*external=*/false);
      ++stats_.pulls;
      metrics.pulls.inc();
    }
  } catch (...) {
    in_coherence_ = false;
    throw;
  }
  in_coherence_ = false;
}

void CacheManager::release_image(Instance& self) {
  CacheMetrics& metrics = CacheMetrics::get();
  ++stats_.releases;
  metrics.releases.inc();
  if (in_coherence_) return;
  if (policy_ != Policy::kPush && policy_ != Policy::kPullPush) return;
  if (original_.is_null()) return;
  in_coherence_ = true;
  obs::ScopedTimerUs wait(metrics.push_wait_us);
  try {
    Value image = minilang::invoke_method(self.shared_from_this(),
                                          "extractImageFromView", {},
                                          /*external=*/false);
    if (image.is_bytes() && !image.as_bytes().empty()) {
      minilang::invoke_method(self.shared_from_this(), "mergeImageIntoObj",
                              {image}, /*external=*/false);
      ++stats_.pushes;
      metrics.pushes.inc();
    }
  } catch (...) {
    in_coherence_ = false;
    throw;
  }
  in_coherence_ = false;
}

std::shared_ptr<CacheManager> attach_cache_manager(
    const std::shared_ptr<Instance>& view, Value original,
    CacheManager::Policy policy) {
  auto manager = std::make_shared<CacheManager>(policy, std::move(original));
  view->set_hooks(manager);
  return manager;
}

util::Bytes CacheManager::extract_from_original(Instance& original) {
  return image_for_peer(original, pull_uid_, pull_version_);
}

void CacheManager::merge_pull(Instance& view, const util::Bytes& image) {
  ImageFrame frame;
  if (read_image_frame(image, frame) && frame.is_delta() &&
      (frame.uid != pull_uid_ || frame.from_version != pull_version_)) {
    throw MalformedImage("delta does not continue the pull sync point");
  }
  frame = apply_instance_image(view, image);
  if (frame.is_delta()) {
    ++stats_.delta_pulls;
  } else {
    ++stats_.full_syncs;  // first sync or epoch change
  }
  pull_uid_ = frame.uid;
  pull_version_ = frame.to_version;
}

util::Bytes CacheManager::extract_push(Instance& view) {
  util::Bytes image = instance_image_since(view, push_version_);
  if (push_version_ != 0) ++stats_.delta_pushes;
  // Extraction itself can advance the version (container fingerprints), so
  // the staged sync point is read *after* the image is built; committed by
  // note_push_applied() once the merge into the original succeeds.
  pending_push_version_ = view.state_version();
  return image;
}

void CacheManager::note_push_applied() {
  if (push_version_ == 0) ++stats_.full_syncs;  // the push was a full image
  push_version_ = pending_push_version_;
}

namespace {

bool is_wiring_field_name(const std::string& name) {
  return name == "cacheManager" || name.ends_with("_rmi") ||
         name.ends_with("_switch");
}

constexpr std::string_view kImageMagic = "VDI1";

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* data,
                    std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(h, buf, sizeof(buf));
}

std::uint64_t fingerprint_into(std::uint64_t h, const Value& v) {
  if (v.is_null()) return fnv1a_u64(h, 1);
  if (v.is_bool()) return fnv1a_u64(h, v.as_bool() ? 3 : 2);
  if (v.is_int()) {
    return fnv1a_u64(fnv1a_u64(h, 4), static_cast<std::uint64_t>(v.as_int()));
  }
  if (v.is_string()) {
    const std::string& s = v.as_string();
    return fnv1a(fnv1a_u64(fnv1a_u64(h, 5), s.size()),
                 reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  if (v.is_bytes()) {
    const util::Bytes& b = v.as_bytes();
    return fnv1a(fnv1a_u64(fnv1a_u64(h, 6), b.size()), b.data(), b.size());
  }
  if (v.is_list()) {
    h = fnv1a_u64(fnv1a_u64(h, 7), v.as_list()->size());
    for (const auto& item : *v.as_list()) h = fingerprint_into(h, item);
    return h;
  }
  if (v.is_map()) {
    h = fnv1a_u64(fnv1a_u64(h, 8), v.as_map()->size());
    for (const auto& [k, item] : *v.as_map()) {
      h = fnv1a(fnv1a_u64(h, k.size()),
                reinterpret_cast<const std::uint8_t*>(k.data()), k.size());
      h = fingerprint_into(h, item);
    }
    return h;
  }
  // Objects never enter images; identity is enough for a fingerprint.
  return fnv1a_u64(fnv1a_u64(h, 9),
                   reinterpret_cast<std::uintptr_t>(v.as_object().get()));
}

}  // namespace

util::Bytes instance_image_since(const Instance& instance,
                                 std::uint64_t since_version) {
  // One walk over the slots. Containers mutate in place through their
  // shared pointers without a write, so each serializable container field
  // is fingerprinted first — a changed fingerprint bumps the slot exactly
  // like a write would, which keeps deltas honest. Every extract primes, so
  // a first full sync records the baseline every later delta is diffed
  // against.
  ValueMap image;
  std::size_t slot = 0;
  for (const auto& [name, value] : instance.fields()) {
    const std::size_t s = slot++;
    if (is_wiring_field_name(name) || value.is_object()) continue;
    if (value.is_list() || value.is_map()) {
      instance.note_field_fingerprint(
          s, fingerprint_into(0xcbf29ce484222325ULL, value));  // FNV basis
    }
    if (since_version != 0 && instance.field_version(s) <= since_version) {
      continue;
    }
    image.emplace_hint(image.end(), name, value);
  }

  const std::size_t fields = image.size();
  const Value map = Value::map(std::move(image));
  util::Bytes encoded;
  encoded.reserve(kImageHeaderSize + minilang::encoded_size(map));
  util::append(encoded, kImageMagic);
  util::put_u64_be(encoded, instance.uid());
  util::put_u64_be(encoded, since_version);
  util::put_u64_be(encoded, instance.state_version());
  minilang::encode_value_into(map, encoded);

  CacheMetrics& metrics = CacheMetrics::get();
  metrics.extracts.inc();
  metrics.image_bytes.observe(static_cast<std::int64_t>(encoded.size()));
  if (since_version == 0) {
    metrics.delta_full_syncs.inc();
    obs::journal::emit(obs::journal::Subsystem::kViews,
                       obs::journal::kViFullImageFallback, instance.uid(),
                       encoded.size());
  } else {
    metrics.delta_images.inc();
    metrics.delta_fields.inc(static_cast<std::int64_t>(fields));
    metrics.delta_bytes.observe(static_cast<std::int64_t>(encoded.size()));
  }
  return encoded;
}

util::Bytes image_for_peer(const Instance& instance, std::uint64_t uid,
                           std::uint64_t since) {
  const bool same_epoch =
      uid == instance.uid() && since <= instance.state_version();
  return instance_image_since(instance, same_epoch ? since : 0);
}

bool read_image_frame(const util::Bytes& image, ImageFrame& frame) {
  if (image.size() < kImageHeaderSize ||
      !std::equal(kImageMagic.begin(), kImageMagic.end(), image.begin())) {
    return false;
  }
  frame.uid = util::get_u64_be(image, 4);
  frame.from_version = util::get_u64_be(image, 12);
  frame.to_version = util::get_u64_be(image, 20);
  return frame.from_version <= frame.to_version;
}

ImageFrame apply_instance_image(Instance& instance, const util::Bytes& image) {
  ImageFrame frame;
  if (!read_image_frame(image, frame)) throw MalformedImage("bad VDI1 header");
  CacheMetrics::get().merges.inc();
  const util::Result<Value> decoded = minilang::decode_value(util::Bytes(
      image.begin() + static_cast<std::ptrdiff_t>(kImageHeaderSize),
      image.end()));
  if (!decoded.ok() || !decoded.value().is_map()) {
    throw MalformedImage("body is not one encoded field map");
  }
  // Both maps iterate in name order, so one merge walk pairs image entries
  // with slots.
  const ValueMap& fields = instance.fields();
  auto field = fields.begin();
  std::size_t slot = 0;
  for (const auto& [name, value] : *decoded.value().as_map()) {
    while (field != fields.end() && field->first < name) {
      ++field;
      ++slot;
    }
    if (field == fields.end()) break;
    if (field->first != name || is_wiring_field_name(name)) continue;
    // Idempotent apply: only write fields that actually changed, so a pull
    // does not dirty the receiver and echo every field back on its next
    // push (delta amplification).
    if (field->second.equals(value)) continue;
    instance.set_field_slot(slot, value);
  }
  return frame;
}

Value ImageEndpoint::call(const std::string& method,
                          std::vector<Value> args) {
  // When the wrapped target is itself a view (a chained replica), its own
  // CacheManager keeps it coherent with *its* original: reads pull first
  // (read-through) and writes push afterwards (write-through), so updates
  // propagate along replica chains.
  auto* cache = dynamic_cast<CacheManager*>(target_->hooks());
  if (method == "extractImageFromView" || method == "extractImageFromObj") {
    // (uid, since) is the caller's pull sync point, (0, 0) before its first
    // sync.
    if (args.size() != 2 || !args[0].is_int() || !args[1].is_int()) {
      throw minilang::EvalError("extractImage: expects (uid, since)");
    }
    if (cache != nullptr) cache->acquire_image(*target_);
    return Value::bytes(
        image_for_peer(*target_, static_cast<std::uint64_t>(args[0].as_int()),
                       static_cast<std::uint64_t>(args[1].as_int())));
  }
  if (method == "mergeImageIntoView" || method == "mergeImageIntoObj") {
    if (args.size() != 1) throw minilang::EvalError("mergeImage: bad arity");
    apply_instance_image(*target_, args[0].as_bytes());
    if (cache != nullptr) cache->release_image(*target_);
    return Value::null();
  }
  return target_->call(method, std::move(args));
}

std::string ImageEndpoint::type_name() const {
  return "image-endpoint:" + target_->type_name();
}

}  // namespace psf::views
