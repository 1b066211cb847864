// Cache coherence for views (paper §4.1/§4.3, building on the OOPSLA'99
// object-views work): a view caches a subset of the original object's state;
// acquireImage/releaseImage calls bracket every view method so the method
// always works against the most current image. CacheManager implements the
// bracket as MethodHooks: `before` pulls the original's image into the view,
// `after` pushes the view's image back, under a configurable policy.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "minilang/object.hpp"

namespace psf::views {

class CacheManager : public minilang::MethodHooks {
 public:
  enum class Policy {
    kNone,      // no automatic coherence traffic
    kPull,      // acquire: refresh view from the original
    kPush,      // release: write view state back to the original
    kPullPush,  // both (the paper's default behaviour)
  };

  /// `original` is an object value referencing the represented object —
  /// a local Instance or a remote stub. Null means not yet wired.
  explicit CacheManager(Policy policy = Policy::kPullPush,
                        minilang::Value original = minilang::Value::null());

  void set_original(minilang::Value original) { original_ = std::move(original); }
  const minilang::Value& original() const { return original_; }

  Policy policy() const { return policy_; }

  // MethodHooks: acquireImage / releaseImage brackets.
  void before_method(minilang::Instance& self,
                     const minilang::MethodDef& method) override;
  void after_method(minilang::Instance& self,
                    const minilang::MethodDef& method) override;

  /// Explicit coherence operations (also usable by application code).
  void acquire_image(minilang::Instance& self);
  void release_image(minilang::Instance& self);

  /// True while this manager is driving a coherence bracket. The VIG default
  /// natives use it to tell a bracket-driven invocation (this manager's sync
  /// points apply) from a direct external call (always a full image).
  bool in_coherence() const { return in_coherence_; }

  // --- delta coherence (used by the VIG default coherence natives) ---
  //
  // The manager remembers, per peer direction, the sync point reached by the
  // last successful exchange: (uid, state_version) of the original for
  // pulls, and the view's own state_version for pushes. Within an epoch
  // (same uid), subsequent images carry only the fields dirtied since that
  // version; a first sync or a uid change (restart, rewire) gets a full
  // image. The original decides which (image_for_peer), local or remote.

  /// Pull-side extract against a *local* original: image_for_peer at this
  /// manager's pull sync point.
  util::Bytes extract_from_original(minilang::Instance& original);

  /// Sync point every pull sends, local or remote: (uid, version) of the
  /// last merged pull, (0, 0) before the first sync.
  std::pair<std::uint64_t, std::uint64_t> pull_sync() const {
    return {pull_uid_, pull_version_};
  }

  /// Apply a pulled image into the view and advance the pull sync point. A
  /// delta must continue from the current sync point (same uid, from_version
  /// == pull version); anything else is a MalformedImage.
  void merge_pull(minilang::Instance& view, const util::Bytes& image);

  /// Push-side extract of the view's own state: delta since the last
  /// *applied* push, full on the first push. The new sync point is staged
  /// and only committed by note_push_applied(), so a failed push cannot
  /// silently drop updates.
  util::Bytes extract_push(minilang::Instance& view);
  void note_push_applied();

  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t releases = 0;
    std::uint64_t pulls = 0;   // images fetched from the original
    std::uint64_t pushes = 0;  // images written back
    std::uint64_t delta_pulls = 0;   // pulls satisfied by a delta image
    std::uint64_t delta_pushes = 0;  // pushes carrying a delta image
    std::uint64_t full_syncs = 0;    // full images merged (first sync or
                                     // epoch change), either direction
  };
  const Stats& stats() const { return stats_; }

 private:
  Policy policy_;
  minilang::Value original_;
  Stats stats_;
  bool in_coherence_ = false;  // re-entrancy guard

  // Pull epoch: the original's (uid, state_version) as of the last merged
  // pull. uid 0 = never synced (instance uids start at 1).
  std::uint64_t pull_uid_ = 0;
  std::uint64_t pull_version_ = 0;

  // Push epoch: the view's own state_version as of the last applied push;
  // 0 = the next push is a full image.
  std::uint64_t push_version_ = 0;
  std::uint64_t pending_push_version_ = 0;
};

/// Wire a freshly instantiated view to its original object: installs a
/// CacheManager (stored in the `cacheManager` hook slot) and returns it.
std::shared_ptr<CacheManager> attach_cache_manager(
    const std::shared_ptr<minilang::Instance>& view, minilang::Value original,
    CacheManager::Policy policy = CacheManager::Policy::kPullPush);

// --- images (the byte[] the paper's coherence methods exchange) ---
//
// An image carries an instance's serializable state: every field except
// wiring fields (cacheManager, *_rmi, *_switch) and object references. It is
// framed as
//   magic "VDI1" (4) | uid (8, BE) | from_version (8) | to_version (8) | map
// so the receiver can track the sender's epoch. from_version == 0 marks a
// full image (every serializable field); from_version > 0 marks a delta
// carrying only fields dirtied in (from_version, to_version].

/// Header of an image.
struct ImageFrame {
  std::uint64_t uid = 0;
  std::uint64_t from_version = 0;  // 0 = full image
  std::uint64_t to_version = 0;
  bool is_delta() const { return from_version != 0; }
};

/// Size of the VDI1 header; the encoded field map (the image body) follows.
inline constexpr std::size_t kImageHeaderSize = 4 + 8 + 8 + 8;

/// The one rejection of an image: anything that is not a valid VDI1 image
/// (short or foreign header, from_version > to_version, a body that is not
/// exactly one encoded map), or a delta that does not continue the
/// receiver's sync point.
class MalformedImage : public minilang::EvalError {
 public:
  explicit MalformedImage(const std::string& why)
      : EvalError("mergeImage: malformed image: " + why) {}
};

/// Parse the header; false on a short or foreign header or
/// from_version > to_version.
bool read_image_frame(const util::Bytes& image, ImageFrame& frame);

/// Image of `instance` holding the fields dirtied after `since_version`
/// (framed with from_version = since_version); since_version == 0 is the
/// full image. Callers must have confirmed the uid.
util::Bytes instance_image_since(const minilang::Instance& instance,
                                 std::uint64_t since_version);

/// The one delta-or-full rule, for a peer whose sync point is (uid, since):
/// a delta inside the same epoch and never from the future, a full image
/// otherwise. Local pulls and ImageEndpoint both serve through it.
util::Bytes image_for_peer(const minilang::Instance& instance,
                           std::uint64_t uid, std::uint64_t since);

/// Apply an image: set every matching non-wiring field whose value actually
/// changed — the equality check keeps a pull from dirtying the receiver and
/// echoing every pulled field back on the next push. Returns the header;
/// throws MalformedImage (and applies nothing) on an invalid image.
ImageFrame apply_instance_image(minilang::Instance& instance,
                                const util::Bytes& image);

/// Remote coherence endpoint: wraps a (non-view) instance so that peers can
/// fetch/apply its image with extractImageFromView(uid, since) /
/// mergeImageIntoView(image) calls, while all other methods pass through.
/// This is how a view's default coherence handlers talk to an original
/// object across the network.
class ImageEndpoint : public minilang::CallTarget {
 public:
  explicit ImageEndpoint(std::shared_ptr<minilang::Instance> target)
      : target_(std::move(target)) {}

  minilang::Value call(const std::string& method,
                       std::vector<minilang::Value> args) override;
  std::string type_name() const override;

  const std::shared_ptr<minilang::Instance>& target() const { return target_; }

 private:
  std::shared_ptr<minilang::Instance> target_;
};

}  // namespace psf::views
