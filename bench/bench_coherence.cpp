// Ablation A1 (DESIGN.md §5): the cache-coherence bracket. Views pay
// acquireImage/releaseImage on every method (paper §4.3, following the
// OOPSLA'99 object-views work); this bench quantifies that bracket by
// policy (none / pull / push / pull+push) and by image size, plus the raw
// extract/merge codec cost and the heap bytes a Member view instance holds
// before and after its first full sync.
#include "bench_util.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
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
    auto def = views::ViewDefinition::from_xml(mail::view_xml_member());
    if (!vig.generate(def.value()).ok()) std::abort();
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

/// Per-session view ledger: heap bytes (mallinfo2 deltas, averaged over
/// 1000 instances) of one Member view wired to the original, before and
/// after its first call pulls a full image. The difference is the replica
/// image share of a session's memory.
void view_ledger(Fixture& f, bench::Report& report) {
  constexpr int kViews = 1000;
  auto make_unsynced = [&f] {
    auto view = minilang::instantiate(f.registry, "ViewMailClient_Member");
    views::attach_cache_manager(view, Value::object(f.original),
                                CacheManager::Policy::kPull);
    return view;
  };
  // One view first, so one-time costs stay outside the measured window.
  make_unsynced()->call("getPhone", {Value::string("alice")});
  std::vector<std::shared_ptr<minilang::Instance>> views;
  views.reserve(kViews);
  const std::size_t base = bench::heap_in_use();
  for (int i = 0; i < kViews; ++i) views.push_back(make_unsynced());
  const std::size_t unsynced = bench::heap_in_use();
  for (const auto& view : views) view->call("getPhone", {Value::string("alice")});
  const std::size_t synced = bench::heap_in_use();
  const auto per_view = [](std::size_t bytes) {
    return static_cast<double>(bytes) / kViews;
  };
  report.add("member_view_bytes", per_view(unsynced - base), "bytes", kViews);
  report.add("member_view_synced_bytes", per_view(synced - base), "bytes",
             kViews);
  report.add("replica_image_bytes", per_view(synced - unsynced), "bytes",
             kViews);
  std::cout << "  Member view instance: " << per_view(unsynced - base)
            << " B before its first full sync, " << per_view(synced - base)
            << " B after (replica image share "
            << per_view(synced - unsynced) << " B)\n";
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
