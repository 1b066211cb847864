#include "views/vig.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string_view>

#include "analysis/analyzer.hpp"
#include "analysis/ast_scan.hpp"
#include "analysis/deployment.hpp"
#include "minilang/compile.hpp"
#include "minilang/interp.hpp"
#include "minilang/vm.hpp"
#include "minilang/parser.hpp"
#include "minilang/value_codec.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "views/cache.hpp"

namespace psf::views {

namespace {
// VIG codegen-phase instrumentation (psf.views.vig.*).
struct VigMetrics {
  obs::Counter& generated = obs::counter("psf.views.vig.generated");
  obs::Counter& cache_hits = obs::counter("psf.views.vig.cache_hits");
  obs::Counter& failures = obs::counter("psf.views.vig.failures");
  obs::Counter& diagnostics = obs::counter("psf.views.vig.diagnostics");
  obs::Counter& methods_copied = obs::counter("psf.views.vig.methods.copied");
  obs::Counter& methods_stubbed =
      obs::counter("psf.views.vig.methods.stubbed");
  obs::Counter& methods_spliced =
      obs::counter("psf.views.vig.methods.spliced");
  obs::Counter& members_stripped =
      obs::counter("psf.views.vig.members_stripped");
  obs::Histogram& generate_us = obs::histogram("psf.views.vig.generate_us");
  static VigMetrics& get() {
    static VigMetrics m;
    return m;
  }
};
}  // namespace

using minilang::Binding;
using minilang::ClassDef;
using minilang::Expr;
using minilang::ExprKind;
using minilang::FieldDef;
using minilang::Instance;
using minilang::InterfaceDef;
using minilang::MethodDef;
using minilang::Stmt;
using minilang::StmtKind;
using minilang::StmtPtr;
using minilang::Value;

std::string VigDiagnostic::display() const {
  std::string out = "view '" + view + "', " + context + ": ";
  if (!code.empty()) out += "[" + code + "] ";
  out += message;
  if (!hint.empty()) out += " (fix: " + hint + ")";
  return out;
}

namespace {

bool is_builtin(const std::string& name) {
  const auto& builtins = minilang::builtin_names();
  return std::find(builtins.begin(), builtins.end(), name) != builtins.end();
}

bool is_coherence_method(const std::string& name) {
  for (const char* m : kCoherenceMethods) {
    if (name == m) return true;
  }
  return false;
}

/// Run-time escape hatch for member stripping (PSF_VIG_STRIP=0); anything
/// else — including unset — keeps the VigOptions::strip default in force.
bool strip_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("PSF_VIG_STRIP");
    return env == nullptr || std::string_view(env) != "0";
  }();
  return enabled;
}

// ---- default coherence handlers (VigOptions::auto_coherence) ----
// The image is the encoded map of the view's serializable fields (see
// views::instance_image); stub/cacheManager fields and object-valued fields
// are excluded (they are not state, they are wiring).

/// The original object the view represents, as wired by the deployment
/// infrastructure through the CacheManager hooks; null Value if unwired.
Value original_of(Instance& self) {
  auto* cache = dynamic_cast<CacheManager*>(self.hooks());
  return cache != nullptr ? cache->original() : Value::null();
}

MethodDef make_native(const std::string& name, std::vector<std::string> params,
                      minilang::NativeFn fn, const std::string& source_note) {
  MethodDef m;
  m.name = name;
  m.params = std::move(params);
  m.is_native = true;
  m.native = std::move(fn);
  m.source = source_note;
  m.visibility = minilang::Visibility::kPublic;
  return m;
}

/// The CacheManager driving the current coherence bracket, or nullptr for a
/// direct external invocation (which must keep the legacy, peer-agnostic
/// image behaviour — delta sync state belongs to the bracket's peer only).
CacheManager* coherence_cache_of(Instance& self) {
  auto* cache = dynamic_cast<CacheManager*>(self.hooks());
  return cache != nullptr && cache->in_coherence() ? cache : nullptr;
}

std::vector<MethodDef> default_coherence_methods() {
  std::vector<MethodDef> out;
  out.push_back(make_native(
      "extractImageFromView", {},
      [](Instance& self, std::vector<Value>) {
        // Push-side extract: a delta of the view's own dirty fields since
        // the last applied push when the manager drives the bracket.
        if (CacheManager* cache = coherence_cache_of(self)) {
          return Value::bytes(cache->extract_push(self));
        }
        return Value::bytes(instance_image(self));
      },
      "/* VIG default: encode the view's serializable fields */"));
  out.push_back(make_native(
      "mergeImageIntoView", {"image"},
      [](Instance& self, std::vector<Value> args) {
        // Pull-side apply: advance the pull sync point when bracketed.
        if (CacheManager* cache = coherence_cache_of(self)) {
          cache->merge_pull(self, args[0].as_bytes());
        } else {
          merge_instance_image(self, args[0].as_bytes());
        }
        return Value::null();
      },
      "/* VIG default: decode image and update matching fields */"));
  out.push_back(make_native(
      "extractImageFromObj", {},
      [](Instance& self, std::vector<Value>) {
        Value original = original_of(self);
        if (original.is_null()) return Value::bytes({});
        CacheManager* cache = coherence_cache_of(self);
        auto instance =
            std::dynamic_pointer_cast<Instance>(original.as_object());
        if (instance == nullptr) {
          // Remote original: ask for a delta since our sync point. Peers
          // that predate the delta protocol reject the two extra arguments;
          // remember the rejection and use the legacy full fetch from then
          // on.
          if (cache != nullptr && cache->peer_supports_delta()) {
            const auto [uid, version] = cache->pull_sync();
            try {
              return original.as_object()->call(
                  "extractImageFromView",
                  {Value::integer(static_cast<std::int64_t>(uid)),
                   Value::integer(static_cast<std::int64_t>(version))});
            } catch (const minilang::EvalError&) {
              cache->note_peer_rejects_delta();
            }
          }
          return original.as_object()->call("extractImageFromView", {});
        }
        if (cache != nullptr) {
          return Value::bytes(cache->extract_from_original(*instance));
        }
        return Value::bytes(instance_image(*instance));
      },
      "/* VIG default: snapshot the original object's shared fields */"));
  out.push_back(make_native(
      "mergeImageIntoObj", {"image"},
      [](Instance& self, std::vector<Value> args) {
        Value original = original_of(self);
        if (original.is_null()) return Value::null();
        CacheManager* cache = coherence_cache_of(self);
        auto instance =
            std::dynamic_pointer_cast<Instance>(original.as_object());
        if (instance == nullptr) {
          original.as_object()->call("mergeImageIntoView", {args[0]});
        } else {
          merge_instance_image(*instance, args[0].as_bytes());
        }
        // The push reached the original: commit the staged sync point so
        // the next push can be a delta.
        if (cache != nullptr) cache->note_push_applied();
        return Value::null();
      },
      "/* VIG default: write shared fields back into the original */"));
  return out;
}

/// Build the stub body `return <stub>.<method>(args);` as parsed AST.
MethodDef make_stub_method(const minilang::MethodSig& sig,
                           const std::string& stub_field,
                           const std::string& interface_name) {
  std::ostringstream os;
  os << "return " << stub_field << "." << sig.name << "(";
  for (std::size_t i = 0; i < sig.params.size(); ++i) {
    if (i != 0) os << ", ";
    os << sig.params[i];
  }
  os << ");";
  MethodDef m;
  m.name = sig.name;
  m.params = sig.params;
  m.interface_name = interface_name;
  m.source = os.str();
  m.body = std::move(minilang::parse_block_source(m.source)).take();
  return m;
}

}  // namespace

FreeNames collect_free_names(const std::vector<StmtPtr>& body,
                             const std::vector<std::string>& params) {
  // The walk itself lives in the analysis engine (analysis::free_refs), so
  // validation and generation can never disagree about what "free" means.
  std::set<std::string> vars;
  std::set<std::string> calls;
  for (const auto& ref : analysis::free_refs(body, params)) {
    if (ref.kind == analysis::Ref::Kind::kVar) {
      vars.insert(ref.name);
    } else {
      calls.insert(ref.name);
    }
  }
  FreeNames out;
  out.variables.assign(vars.begin(), vars.end());
  out.calls.assign(calls.begin(), calls.end());
  return out;
}

Vig::Vig(minilang::ClassRegistry* registry, VigOptions options)
    : registry_(registry), options_(options) {}

util::Result<std::shared_ptr<ClassDef>> Vig::generate(
    const ViewDefinition& def) {
  VigMetrics& metrics = VigMetrics::get();
  diagnostics_.clear();

  // Lazy-generation cache (paper: code generation deferred to first deploy).
  if (options_.cache) {
    if (auto cached = registry_->find_class(def.name);
        cached != nullptr && cached->represents == def.represents) {
      ++stats_.cache_hits;
      metrics.cache_hits.inc();
      return std::const_pointer_cast<ClassDef>(cached);
    }
  }

  obs::ScopedSpan span("vig.generate");
  obs::ScopedTimerUs timer(metrics.generate_us);

  // ---- validation: the shared analysis engine, every pass, all findings
  // in one run. Generation is refused iff any finding is an error;
  // warnings are kept for callers but do not block. ----
  analysis::AnalysisOptions analysis_options;
  analysis_options.auto_coherence = options_.auto_coherence;
  const analysis::AnalysisResult verdict =
      analysis::analyze(def, *registry_, analysis_options);
  for (const auto& d : verdict.diagnostics) {
    metrics.diagnostics.inc();
    std::string context = d.span.where;
    if (d.span.line != 0) context += ":" + std::to_string(d.span.line);
    diagnostics_.push_back(
        VigDiagnostic{def.name, std::move(context), d.message, d.hint, d.code,
                      d.severity == analysis::Severity::kError});
  }
  if (verdict.has_errors()) {
    metrics.failures.inc();
    std::ostringstream os;
    os << verdict.errors << " error(s) generating view '" << def.name << "':";
    for (const auto& d : diagnostics_) os << "\n  " << d.display();
    return util::Result<std::shared_ptr<ClassDef>>::failure("vig", os.str());
  }

  // ---- member stripping: added members the analysis proved unreachable
  // (the PSA035/PSA036 warnings above) are dropped before generation, so
  // the transitive copy pass never pulls in their dependencies and the
  // coherence image never carries their fields. verdict.stripped is the
  // same compute_dead_members fact base the warnings came from, so the
  // report and the drop cannot disagree. ----
  std::set<std::string> dead_methods;
  std::set<std::string> dead_fields;
  if (options_.strip && strip_enabled()) {
    for (const std::string& entry : verdict.stripped) {
      if (entry.rfind("method ", 0) == 0) {
        dead_methods.insert(entry.substr(7));
      } else if (entry.rfind("field ", 0) == 0) {
        dead_fields.insert(entry.substr(6));
      }
    }
  }

  // ---- generation mechanics. The analysis above guarantees every name
  // resolves, so the copy logic below runs diagnostic-free. ----
  auto represented = registry_->find_class(def.represents);

  auto view = std::make_shared<ClassDef>();
  view->name = def.name;
  view->represents = def.represents;
  if (!dead_methods.empty() || !dead_fields.empty()) {
    view->stripped_members = verdict.stripped;
    const std::size_t n = dead_methods.size() + dead_fields.size();
    stats_.members_stripped += n;
    metrics.members_stripped.inc(n);
    obs::journal::emit(obs::journal::Subsystem::kViews,
                       obs::journal::kViMemberStrip,
                       obs::journal::tag(def.name), dead_methods.size(),
                       dead_fields.size());
  }

  std::set<std::string> view_method_names;
  std::vector<MethodDef> methods;
  auto add_method = [&](MethodDef m) {
    if (!view_method_names.insert(m.name).second) return;  // PSA005 upstream
    methods.push_back(std::move(m));
  };

  // Method-level restriction: names the definition removes from the
  // restricted interfaces (paper §4.2's finest granularity).
  std::set<std::string> removed(def.removed_methods.begin(),
                                def.removed_methods.end());

  // ---- (1) interfaces ----
  {
  obs::ScopedSpan interfaces_span("vig.interfaces");
  for (const auto& restriction : def.interfaces) {
    const InterfaceDef* iface = registry_->find_interface(restriction.name);
    if (iface == nullptr) continue;  // PSA002 upstream
    view->interfaces.push_back(restriction.name);
    view->interface_bindings[restriction.name] = restriction.binding;

    if (restriction.binding == Binding::kLocal) {
      // Copy each implementation from the represented chain.
      for (const auto& sig : iface->methods) {
        if (removed.count(sig.name) > 0) continue;
        const MethodDef* impl =
            registry_->resolve_method(*represented, sig.name);
        if (impl == nullptr) continue;  // PSA004 upstream
        MethodDef copy = impl->clone();
        copy.interface_name = restriction.name;
        add_method(std::move(copy));
        metrics.methods_copied.inc();
      }
    } else {
      // Remote binding: synthesize stub methods against the original object.
      const std::string stub = stub_field_name(restriction.name,
                                               restriction.binding);
      for (const auto& sig : iface->methods) {
        if (removed.count(sig.name) > 0) continue;
        MethodDef m = make_stub_method(sig, stub, restriction.name);
        add_method(std::move(m));
        metrics.methods_stubbed.inc();
      }
      view->fields.push_back(FieldDef{stub, restriction.name, Value::null()});
    }
  }
  }  // vig.interfaces span

  // ---- (2) added and customized methods from the XML ----
  auto splice = [&](const MethodSpec& spec, bool customize) {
    auto parsed = minilang::parse_block_source(spec.body);
    if (!parsed.ok()) return;  // PSA006/PSA007 upstream
    MethodDef m;
    m.name = spec.name;
    m.params = spec.params;
    m.source = spec.body;
    m.body = std::move(parsed).take();
    if (customize) {
      // Replace any implementation copied from the interface pass.
      auto it = std::find_if(methods.begin(), methods.end(),
                             [&](const MethodDef& existing) {
                               return existing.name == spec.name;
                             });
      if (it != methods.end()) {
        m.interface_name = it->interface_name;
        *it = std::move(m);
        return;
      }
    }
    add_method(std::move(m));
  };
  {
    obs::ScopedSpan splice_span("vig.splice");
    for (const auto& spec : def.added_methods) {
      if (dead_methods.count(spec.name) > 0) continue;  // stripped
      splice(spec, /*customize=*/false);
      metrics.methods_spliced.inc();
    }
    for (const auto& spec : def.customized_methods) {
      splice(spec, /*customize=*/true);
      metrics.methods_spliced.inc();
    }
  }

  // Coherence methods: required upstream (PSA011); VIG supplies the default
  // handlers when the definition omits them and auto_coherence is on.
  for (const char* name : kCoherenceMethods) {
    if (view_method_names.count(name) > 0) continue;
    if (options_.auto_coherence) {
      for (auto& m : default_coherence_methods()) {
        if (m.name == name) add_method(std::move(m));
      }
    }
  }

  // ---- (3) fields ----
  for (const auto& field : def.added_fields) {
    if (dead_fields.count(field.name) > 0) continue;  // stripped
    if (represented->find_field(field.name) == nullptr) {
      // PSA010 upstream rules out stub collisions.
      view->fields.push_back(FieldDef{field.name, field.type, Value::null()});
    } else {
      // Redeclares a represented field: copy type from the original.
      view->fields.push_back(*represented->find_field(field.name));
    }
  }
  view->fields.push_back(FieldDef{"cacheManager", "CacheManager", Value::null()});

  // Copy used fields and transitively referenced methods from the
  // represented chain (paper: VIG parses the method code and copies the
  // declarations of all used class fields; Javassist-style chain walk).
  // The field-reachability pass (PSA020/PSA021) has already proven every
  // name below resolves.
  auto field_known = [&](const std::string& name) {
    return std::any_of(view->fields.begin(), view->fields.end(),
                       [&](const FieldDef& f) { return f.name == name; });
  };
  auto copy_field_if_represented = [&](const std::string& name) {
    for (const auto& cls : registry_->chain(*represented)) {
      if (const FieldDef* f = cls->find_field(name)) {
        view->fields.push_back(*f);
        return true;
      }
    }
    return false;
  };

  obs::ScopedSpan validate_span("vig.validate");
  for (std::size_t i = 0; i < methods.size(); ++i) {
    // Indexed loop: transitive copies append to `methods`.
    const MethodDef& m = methods[i];
    if (m.is_native) continue;
    const FreeNames free = collect_free_names(m.body, m.params);
    for (const auto& var : free.variables) {
      if (field_known(var)) continue;
      copy_field_if_represented(var);
    }
    for (const auto& call : free.calls) {
      if (is_builtin(call) || view_method_names.count(call) > 0) continue;
      const MethodDef* impl = registry_->resolve_method(*represented, call);
      if (impl == nullptr) continue;  // PSA021 upstream
      MethodDef copy = impl->clone();
      view_method_names.insert(copy.name);
      methods.push_back(std::move(copy));  // walked later in this loop
      metrics.methods_copied.inc();
    }
  }

  // Coherence wrapping: every method implemented by the view except the
  // constructor and the coherence methods themselves.
  for (auto& m : methods) {
    if (options_.wrap_coherence && m.name != "constructor" &&
        !is_coherence_method(m.name)) {
      m.coherence_wrapped = true;
    }
  }
  view->methods = std::move(methods);

  // Compilation resolves fields through the registry, so the class must be
  // registered first; a refused view is taken back out (restoring whatever
  // class held the name before) so the generation cache never serves it.
  const std::shared_ptr<const ClassDef> displaced =
      registry_->find_class(def.name);
  registry_->register_class(view);

  // Generation-time lowering: compile every view method body now, so the
  // first dispatch pays no compile latency and a body the compiler cannot
  // encode refuses the view here rather than failing mid-request.
  //
  // IC seeding: a deployment fact proving a member-call site monomorphic
  // lets generation pre-fill the site's inline cache with the receiver
  // class, so even the first dispatch skips the name-hash lookup. The VM's
  // receiver guard keeps a stale or wrong fact harmless.
  auto seed_caches = [&](const MethodDef& m,
                         const minilang::CompiledMethod& code) {
    if (options_.deployment_facts == nullptr || code.num_caches == 0) return;
    for (const minilang::Insn& insn : code.code) {
      if (insn.op != minilang::Op::kCallMember) continue;
      const std::string& member = code.names[insn.b];
      for (const analysis::CallSiteFact& fact : *options_.deployment_facts) {
        if (!fact.monomorphic || fact.view != def.name ||
            fact.method != m.name || fact.member != member) {
          continue;
        }
        auto receiver = registry_->find_class(fact.receiver_class);
        if (receiver == nullptr) break;
        const MethodDef* target = receiver->find_method(member);
        if (minilang::seed_inline_cache(code.caches[insn.d - 1],
                                        std::move(receiver), target)) {
          ++stats_.caches_seeded;
        }
        break;
      }
    }
  };
  for (const MethodDef& m : view->methods) {
    if (m.is_native) continue;
    try {
      seed_caches(m, minilang::ensure_compiled(*registry_, *view, m));
      ++stats_.methods_compiled;
    } catch (const minilang::CompileError& e) {
      if (displaced != nullptr) {
        registry_->register_class(std::const_pointer_cast<ClassDef>(displaced));
      } else {
        registry_->unregister_class(def.name);
      }
      metrics.failures.inc();
      diagnostics_.push_back(
          VigDiagnostic{def.name, "method " + m.name, e.what(), "", "", true});
      return util::Result<std::shared_ptr<ClassDef>>::failure(
          "vig", "error generating view '" + def.name + "':\n  " +
                     diagnostics_.back().display());
    }
  }

  ++stats_.generated;
  metrics.generated.inc();
  obs::journal::emit(obs::journal::Subsystem::kViews,
                     obs::journal::kViVigGenerate, obs::journal::tag(def.name),
                     obs::journal::tag(def.represents));
  return view;
}

}  // namespace psf::views
