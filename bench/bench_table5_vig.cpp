// Table 5 reproduction: the view source code VIG generates for
// ViewMailClient_Partner — interface declarations with Remote/Serializable
// markers, stub fields, the constructor's lookup preamble, delegating stub
// methods, and the coherence methods. Timings cover cold generation, the
// lazy-generation cache hit, and source emission.
//
// Trajectory JSON: BENCH_table5_vig.json — generation cost (now including
// generation-time bytecode compilation of every view method) plus the
// member-stripping figures: the coherence image of a view with dead added
// members, with and without stripping. The stripped image size is gated in
// baselines.json (it is deterministic — encoded bytes, not a timing).
#include "bench_util.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "views/cache.hpp"
#include "views/codegen.hpp"
#include "views/vig.hpp"

namespace {

using namespace psf;

// A member-style view whose XML declares members nothing reaches: one dead
// added field and one dead added method (the PSA035/PSA036 set VIG strips).
const char* kDeadWeightViewXml = R"(<View name="DeadWeightView">
  <Represents name="MailClient"/>
  <Restricts>
    <Interface name="NotesI" type="local"/>
  </Restricts>
  <Adds_Fields>
    <Field name="auditTrail" type="list"/>
    <Field name="scratchCounter" type="int"/>
  </Adds_Fields>
  <Adds_Methods>
    <MSign>constructor()</MSign>
    <MBody><![CDATA[notes = list(); meetings = list(); auditTrail = list();]]></MBody>
    <MSign>orphanHelper(x)</MSign>
    <MBody><![CDATA[return x + 1;]]></MBody>
  </Adds_Methods>
</View>)";

std::size_t dead_weight_image_bytes(bool strip) {
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::VigOptions options;
  options.strip = strip;
  views::Vig vig(&registry, options);
  auto def = views::ViewDefinition::from_xml(kDeadWeightViewXml);
  auto cls = vig.generate(def.value());
  auto view = minilang::instantiate(registry, cls.value()->name);
  // The image body: the fixed VDI1 header does not depend on stripping.
  return views::instance_image_since(*view, 0).size() -
         views::kImageHeaderSize;
}

void reproduce() {
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  auto def = views::ViewDefinition::from_xml(mail::view_xml_partner());

  bench::Report report("table5_vig");
  const int iters = bench::iterations(300, 10);

  const double cold_us = bench::time_us(iters, [&] {
    minilang::ClassRegistry fresh;
    mail::register_all(fresh);
    views::VigOptions options;
    options.cache = false;
    views::Vig cold(&fresh, options);
    (void)cold.generate(def.value());
  });
  report.add("generate_cold_us", cold_us, "us", iters);

  auto cls = vig.generate(def.value());
  const double hit_us =
      bench::time_us(iters, [&] { (void)vig.generate(def.value()); });
  report.add("generate_cache_hit_us", hit_us, "us", iters);

  const double emit_us = bench::time_us(iters, [&] {
    benchmark::DoNotOptimize(
        views::generate_java_source(*cls.value(), registry));
  });
  report.add("emit_source_us", emit_us, "us", iters);

  // Member stripping: the same dead-weight view generated with and without
  // stripping; the coherence image is what every sync carries on the wire.
  const std::size_t stripped = dead_weight_image_bytes(/*strip=*/true);
  const std::size_t unstripped = dead_weight_image_bytes(/*strip=*/false);
  report.add("image_bytes_stripped", static_cast<double>(stripped), "bytes");
  report.add("image_bytes_unstripped", static_cast<double>(unstripped),
             "bytes");
  report.derived("strip_image_saving_bytes",
                 static_cast<double>(unstripped - stripped));
  std::cout << "\n  coherence image: " << unstripped << " bytes unstripped, "
            << stripped << " bytes stripped\n\n";
  report.write();

  std::cout << views::generate_java_source(*cls.value(), registry);
}

void BM_VigGenerateCold(benchmark::State& state) {
  auto def = views::ViewDefinition::from_xml(mail::view_xml_partner());
  for (auto _ : state) {
    state.PauseTiming();
    minilang::ClassRegistry registry;
    mail::register_all(registry);
    views::VigOptions options;
    options.cache = false;
    views::Vig vig(&registry, options);
    state.ResumeTiming();
    auto cls = vig.generate(def.value());
    benchmark::DoNotOptimize(cls);
  }
}
BENCHMARK(BM_VigGenerateCold);

void BM_VigCacheHit(benchmark::State& state) {
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  auto def = views::ViewDefinition::from_xml(mail::view_xml_partner());
  (void)vig.generate(def.value());
  for (auto _ : state) {
    auto cls = vig.generate(def.value());
    benchmark::DoNotOptimize(cls);
  }
}
BENCHMARK(BM_VigCacheHit);

void BM_JavaSourceEmission(benchmark::State& state) {
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  auto def = views::ViewDefinition::from_xml(mail::view_xml_partner());
  auto cls = vig.generate(def.value());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        views::generate_java_source(*cls.value(), registry));
  }
}
BENCHMARK(BM_JavaSourceEmission);

void BM_ViewInstantiation(benchmark::State& state) {
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  auto def = views::ViewDefinition::from_xml(mail::view_xml_partner());
  (void)vig.generate(def.value());
  for (auto _ : state) {
    auto view = minilang::instantiate(registry, "ViewMailClient_Partner");
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_ViewInstantiation);

}  // namespace

int main(int argc, char** argv) {
  return psf::bench::run(argc, argv,
                         "Table 5: VIG-generated view source", reproduce);
}
