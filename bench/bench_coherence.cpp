// Ablation A1 (DESIGN.md §5): the cache-coherence bracket. Views pay
// acquireImage/releaseImage on every method (paper §4.3, following the
// OOPSLA'99 object-views work); this bench quantifies that bracket by
// policy (none / pull / push / pull+push) and by image size, plus the raw
// extract/merge codec cost and the heap bytes a Member view instance holds
// before and after its first full sync.
#include "bench_util.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "util/rng.hpp"
#include "views/cache.hpp"
#include "views/vig.hpp"

namespace {

using namespace psf;
using minilang::Value;
using views::CacheManager;

struct Fixture {
  minilang::ClassRegistry registry;
  std::shared_ptr<minilang::Instance> original;

  Fixture() {
    mail::register_all(registry);
    views::Vig vig(&registry);
    for (const std::string* xml :
         {&mail::view_xml_member(), &mail::view_xml_partner(),
          &mail::view_xml_anonymous()}) {
      auto def = views::ViewDefinition::from_xml(*xml);
      if (!vig.generate(def.value()).ok()) std::abort();
    }
    original = minilang::instantiate(registry, "MailClient");
    original->call("addAccount", {Value::string("alice"), Value::string("1"),
                                  Value::string("a@x")});
  }

  std::shared_ptr<minilang::Instance> make_view(CacheManager::Policy policy) {
    auto view = minilang::instantiate(registry, "ViewMailClient_Member");
    views::attach_cache_manager(view, Value::object(original), policy);
    // Seed the view once (policies without pull never sync on their own).
    views::apply_instance_image(*view,
                                views::instance_image_since(*original, 0));
    return view;
  }

  // Grow the original's notes so images have a controlled size.
  void set_state_size(int entries) {
    minilang::ValueList notes;
    for (int i = 0; i < entries; ++i) {
      notes.push_back(Value::string("note-" + std::to_string(i) +
                                    std::string(32, 'x')));
    }
    original->set_field("notes", Value::list(std::move(notes)));
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

constexpr int kLedgerObjects = 1000;

/// Heap bytes (mallinfo2 deltas, averaged over kLedgerObjects) that one
/// object made by `make` holds.
template <typename Make>
double bytes_each(Make make) {
  make();  // one-time costs stay outside the measured window
  std::vector<decltype(make())> kept;
  kept.reserve(kLedgerObjects);
  const std::size_t base = bench::heap_in_use();
  for (int i = 0; i < kLedgerObjects; ++i) kept.push_back(make());
  return static_cast<double>(bench::heap_in_use() - base) / kLedgerObjects;
}

std::shared_ptr<minilang::Instance> wired_view(Fixture& f,
                                               const std::string& cls,
                                               const Value& origin) {
  auto view = minilang::instantiate(f.registry, cls);
  views::attach_cache_manager(view, origin, CacheManager::Policy::kPull);
  return view;
}

/// Heap bytes of one Member view wired to `origin`, before and after its
/// first call (a getPhone of `contact`) pulls a full image: {unsynced,
/// synced}. The difference is the replica share of a session's memory, so
/// it grows with what the origin holds.
std::pair<double, double> member_view_bytes(Fixture& f, const Value& origin,
                                            const std::string& contact) {
  const auto make = [&] {
    return wired_view(f, "ViewMailClient_Member", origin);
  };
  make()->call("getPhone", {Value::string(contact)});
  std::vector<std::shared_ptr<minilang::Instance>> views;
  views.reserve(kLedgerObjects);
  const std::size_t base = bench::heap_in_use();
  for (int i = 0; i < kLedgerObjects; ++i) views.push_back(make());
  const std::size_t unsynced = bench::heap_in_use();
  for (const auto& view : views) {
    view->call("getPhone", {Value::string(contact)});
  }
  const std::size_t synced = bench::heap_in_use();
  return {static_cast<double>(unsynced - base) / kLedgerObjects,
          static_cast<double>(synced - base) / kLedgerObjects};
}

/// An origin holding a 16-contact directory shaped like psfbench's
/// (`user-<n>`, `555-<nnnn>`, `<name>@site<k>.example`): what a psfbench
/// session's Member view replicates. `contact` gets the last name added.
std::shared_ptr<minilang::Instance> directory_origin(Fixture& f,
                                                     util::Rng& rng,
                                                     std::string& contact) {
  auto origin = minilang::instantiate(f.registry, "MailClient");
  for (int i = 0; i < 16; ++i) {
    const std::string name = contact =
        "user-" + std::to_string(100000 + rng.next_below(900000));
    origin->call("addAccount",
                 {Value::string(name),
                  Value::string("555-" +
                                std::to_string(1000 + rng.next_below(9000))),
                  Value::string(name + "@site" +
                                std::to_string(rng.next_below(10)) +
                                ".example")});
  }
  return origin;
}

/// Per-session ledger: what each object kind of a psfbench session holds.
/// Member views against the one-contact fixture origin and against a
/// 16-contact directory; unsynced Partner and Anonymous views; one
/// 16-contact origin.
void view_ledger(Fixture& f, bench::Report& report) {
  const auto [unsynced, synced] =
      member_view_bytes(f, Value::object(f.original), "alice");
  report.add("member_view_bytes", unsynced, "bytes", kLedgerObjects);
  report.add("member_view_synced_bytes", synced, "bytes", kLedgerObjects);
  report.add("replica_image_bytes", synced - unsynced, "bytes",
             kLedgerObjects);
  util::Rng rng(16);
  std::string contact;
  const auto directory = directory_origin(f, rng, contact);
  const double synced16 =
      member_view_bytes(f, Value::object(directory), contact).second;
  report.add("member_view_synced_bytes.directory16", synced16, "bytes",
             kLedgerObjects);
  const double origin16 =
      bytes_each([&] { return directory_origin(f, rng, contact); });
  report.add("origin_bytes.directory16", origin16, "bytes", kLedgerObjects);
  const Value original = Value::object(f.original);
  const double partner = bytes_each(
      [&] { return wired_view(f, "ViewMailClient_Partner", original); });
  const double anonymous = bytes_each(
      [&] { return wired_view(f, "ViewMailClient_Anonymous", original); });
  report.add("partner_view_bytes", partner, "bytes", kLedgerObjects);
  report.add("anonymous_view_bytes", anonymous, "bytes", kLedgerObjects);
  std::cout << "  Member view instance: " << unsynced
            << " B before its first full sync, " << synced
            << " B after (replica image share " << synced - unsynced
            << " B); " << synced16
            << " B after syncing a 16-contact directory\n"
            << "  Partner view " << partner << " B, Anonymous view "
            << anonymous << " B, 16-contact origin " << origin16 << " B\n";
}

void reproduce() {
  Fixture& f = fixture();
  std::cout << "  per-call coherence traffic by policy (getPhone through a\n"
            << "  member view wired to a local original):\n";
  for (auto [label, policy] :
       {std::pair{"none     ", CacheManager::Policy::kNone},
        std::pair{"pull     ", CacheManager::Policy::kPull},
        std::pair{"push     ", CacheManager::Policy::kPush},
        std::pair{"pull+push", CacheManager::Policy::kPullPush}}) {
    auto view = f.make_view(policy);
    auto* cache = dynamic_cast<CacheManager*>(view->hooks());
    view->call("getPhone", {Value::string("alice")});
    std::cout << "    " << label << "  pulls=" << cache->stats().pulls
              << " pushes=" << cache->stats().pushes << "\n";
  }
  std::cout << "  (pull is what makes the read correct; push is write-back\n"
            << "   traffic a read-only method does not need — the ablation\n"
            << "   below quantifies both.)\n";

  // Delta coherence (BENCH_coherence.json): with field-level dirty tracking
  // the steady-state image carries only the dirtied fields, so coherence
  // bytes per op stop scaling with object size. Compare the cold (full) sync
  // against the warm delta when a single small field is dirty.
  bench::Report report("coherence");
  std::cout << "  delta coherence: image bytes, cold full sync vs warm delta\n"
            << "  (one small field dirty between calls):\n";
  for (const int entries : {16, 128, 1024}) {
    f.set_state_size(entries);
    const std::string suffix = std::to_string(entries);
    auto view = f.make_view(CacheManager::Policy::kPull);
    auto* cache = dynamic_cast<CacheManager*>(view->hooks());
    const util::Bytes cold = cache->extract_from_original(*f.original);
    views::ImageFrame frame;
    cache->merge_pull(*view, cold);
    // Warm pull: dirty one small field, extract again — a delta now.
    f.original->set_field("outbox",
                          Value::list({Value::string("ping-" + suffix)}));
    const util::Bytes warm = cache->extract_from_original(*f.original);
    views::read_image_frame(warm, frame);
    cache->merge_pull(*view, warm);
    report.add("full_image_bytes_" + suffix,
               static_cast<double>(cold.size()), "bytes");
    report.add("delta_image_bytes_" + suffix,
               static_cast<double>(warm.size()), "bytes");
    report.derived("delta_reduction_" + suffix,
                   static_cast<double>(cold.size()) /
                       static_cast<double>(warm.size()));
    std::cout << "    " << entries << " notes: full=" << cold.size()
              << " B, delta=" << warm.size() << " B ("
              << (frame.is_delta() ? "delta" : "full") << ")\n";
  }
  f.set_state_size(0);

  // Wall-clock trajectory for the bracketed call itself.
  for (const int entries : {16, 1024}) {
    f.set_state_size(entries);
    auto view = f.make_view(CacheManager::Policy::kPullPush);
    const int iters = bench::iterations(entries >= 1024 ? 200 : 1000);
    const double us = bench::time_us(iters, [&] {
      view->call("getPhone", {Value::string("alice")});
    });
    report.add("view_call_" + std::to_string(entries) + "_notes", us, "us",
               iters);
  }
  f.set_state_size(0);
  view_ledger(f, report);
  report.write();
}

void BM_ViewCallByPolicy(benchmark::State& state) {
  Fixture& f = fixture();
  f.set_state_size(16);
  const auto policy = static_cast<CacheManager::Policy>(state.range(0));
  auto view = f.make_view(policy);
  for (auto _ : state) {
    benchmark::DoNotOptimize(view->call("getPhone", {Value::string("alice")}));
  }
}
BENCHMARK(BM_ViewCallByPolicy)
    ->Arg(static_cast<int>(CacheManager::Policy::kNone))
    ->Arg(static_cast<int>(CacheManager::Policy::kPull))
    ->Arg(static_cast<int>(CacheManager::Policy::kPush))
    ->Arg(static_cast<int>(CacheManager::Policy::kPullPush));

void BM_ViewCallByImageSize(benchmark::State& state) {
  Fixture& f = fixture();
  f.set_state_size(static_cast<int>(state.range(0)));
  auto view = f.make_view(CacheManager::Policy::kPullPush);
  for (auto _ : state) {
    benchmark::DoNotOptimize(view->call("getPhone", {Value::string("alice")}));
  }
  f.set_state_size(0);
}
BENCHMARK(BM_ViewCallByImageSize)->Arg(0)->Arg(16)->Arg(128)->Arg(1024);

void BM_ExtractImage(benchmark::State& state) {
  Fixture& f = fixture();
  f.set_state_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(views::instance_image_since(*f.original, 0));
  }
  f.set_state_size(0);
}
BENCHMARK(BM_ExtractImage)->Arg(16)->Arg(128)->Arg(1024);

void BM_MergeImage(benchmark::State& state) {
  Fixture& f = fixture();
  f.set_state_size(static_cast<int>(state.range(0)));
  const util::Bytes image = views::instance_image_since(*f.original, 0);
  auto target = minilang::instantiate(f.registry, "MailClient");
  for (auto _ : state) {
    views::apply_instance_image(*target, image);
  }
  f.set_state_size(0);
}
BENCHMARK(BM_MergeImage)->Arg(16)->Arg(128)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  return psf::bench::run(
      argc, argv, "Ablation A1: cache-coherence bracket cost", reproduce);
}
