// Differential suite for MiniLang (DESIGN.md §4j): every method body must
// produce the same value, the same field mutations, the same coherence
// image, and the same error message on the register-bytecode VM — the only
// production engine — as on the tree-walking oracle
// (support/minilang_oracle.hpp). Each scenario runs once per engine against
// a fresh instance, and the full outcome transcripts are compared.
//
// Coverage: every builtin, the arithmetic/comparison/logical operator
// surface, control flow (loops, break/continue, short-circuit), dynamic
// locals, the five in-tree mail views plus the good_* analysis fixtures,
// error parity (division by zero, undefined variables, bad indexing, step
// limits), inherited methods across field layouts, and the shapes the
// compiler once refused (duplicate parameters, `var this`, wide bodies).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mail/components.hpp"
#include "minilang/compile.hpp"
#include "minilang/interp.hpp"
#include "minilang/parser.hpp"
#include "obs/metrics.hpp"
#include "support/minilang_oracle.hpp"
#include "views/cache.hpp"
#include "views/vig.hpp"

namespace psf {
namespace {

using minilang::ClassDef;
using minilang::ClassRegistry;
using minilang::EvalError;
using minilang::Instance;
using minilang::InterpOptions;
using minilang::MethodDef;
using minilang::Value;
using minilang::Visibility;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

enum class Engine { kOracle, kVm };

// One call's observable outcome: tagged result or the exact error text.
std::string call_outcome(const std::shared_ptr<Instance>& self,
                         const std::string& method, std::vector<Value> args,
                         Engine engine, InterpOptions options = {}) {
  try {
    Value v = engine == Engine::kVm
                  ? minilang::invoke_method(self, method, std::move(args),
                                            /*external=*/true, options)
                  : minilang::oracle::invoke_method(
                        self, method, std::move(args), /*external=*/true,
                        options);
    return "ok " + v.type_name() + ":" + v.to_display_string();
  } catch (const EvalError& e) {
    return std::string("error ") + e.what();
  }
}

// Serializable field state (object-valued fields carry no stable printable
// identity and are excluded, mirroring views::instance_image).
std::string field_snapshot(const ClassRegistry& registry, Instance& self) {
  std::ostringstream os;
  for (const auto* field : registry.all_fields(self.cls())) {
    const Value v = self.get_field(field->name);
    if (v.is_object()) continue;
    os << field->name << "=" << v.type_name() << ":" << v.to_display_string()
       << "\n";
  }
  return os.str();
}

// Run the same call sequence on a fresh instance under one engine and
// return the full transcript: per-call outcomes, the final field state,
// and the coherence image the view would push.
std::string transcript(const ClassRegistry& registry,
                       const std::string& class_name,
                       std::vector<Value> ctor_args,
                       const std::vector<std::pair<std::string,
                                                   std::vector<Value>>>& calls,
                       Engine engine) {
  std::ostringstream os;
  std::shared_ptr<Instance> self;
  try {
    self = engine == Engine::kVm
               ? minilang::instantiate(registry, class_name,
                                       std::move(ctor_args))
               : minilang::oracle::instantiate(registry, class_name,
                                               std::move(ctor_args));
  } catch (const EvalError& e) {
    return std::string("ctor error ") + e.what();
  }
  for (const auto& [method, args] : calls) {
    os << method << " -> " << call_outcome(self, method, args, engine)
       << "\n";
  }
  os << "-- fields --\n" << field_snapshot(registry, *self);
  os << "-- image --\n" << util::to_hex(views::instance_image(*self)) << "\n";
  return os.str();
}

void expect_engines_agree(
    const ClassRegistry& registry, const std::string& class_name,
    const std::vector<Value>& ctor_args,
    const std::vector<std::pair<std::string, std::vector<Value>>>& calls) {
  const std::string oracle =
      transcript(registry, class_name, ctor_args, calls, Engine::kOracle);
  const std::string vm =
      transcript(registry, class_name, ctor_args, calls, Engine::kVm);
  EXPECT_EQ(oracle, vm) << class_name;
}

// Build a one-class registry from (name, params, body) method triples.
std::shared_ptr<ClassRegistry> make_registry(
    const std::string& class_name,
    const std::vector<std::tuple<std::string, std::vector<std::string>,
                                 std::string>>& methods,
    const std::vector<std::pair<std::string, Value>>& fields = {}) {
  auto registry = std::make_shared<ClassRegistry>();
  auto cls = std::make_shared<ClassDef>();
  cls->name = class_name;
  for (const auto& [name, initial] : fields) {
    cls->fields.push_back({name, initial.type_name(), initial});
  }
  for (const auto& [name, params, body] : methods) {
    MethodDef m;
    m.name = name;
    m.params = params;
    m.source = body;
    auto parsed = minilang::parse_block_source(body);
    EXPECT_TRUE(parsed.ok()) << name << ": " << parsed.error().message;
    m.body = std::move(parsed).take();
    m.visibility = Visibility::kPublic;
    cls->methods.push_back(std::move(m));
  }
  registry->register_class(cls);
  return registry;
}

// ---------------------------------------------------------------- builtins

TEST(BytecodeDiff, EveryBuiltinAgrees) {
  auto registry = make_registry(
      "Builtins",
      {
          {"lists", {}, R"(
              var l = list(1, 2, 3);
              push(l, 4);
              var popped = pop(l);
              return str(l) + "|" + str(popped) + "|" + str(len(l)) +
                     "|" + str(contains(l, 2));)"},
          {"maps", {}, R"(
              var m = map();
              put(m, "a", 1);
              put(m, "b", 2);
              var r = remove(m, "a");
              return str(get(m, "b")) + "|" + str(has(m, "a")) + "|" +
                     str(keys(m)) + "|" + str(len(m)) + "|" + str(r) +
                     "|" + str(get(m, "missing"));)"},
          {"strings", {}, R"(
              var s = "hello world";
              return substr(s, 0, 5) + "|" + str(contains(s, "wor")) +
                     "|" + str(len(s)) + "|" + text(bytes(s));)"},
          {"numbers", {}, R"(
              return str(min(3, 7)) + "|" + str(max(3, 7)) + "|" +
                     str(abs(0 - 9)) + "|" + typeof(1) + "|" + typeof("x") +
                     "|" + typeof(list());)"},
          {"printing", {}, R"(print("diff probe"); return 0;)"},
      });
  expect_engines_agree(*registry, "Builtins", {},
                       {{"lists", {}},
                        {"maps", {}},
                        {"strings", {}},
                        {"numbers", {}},
                        {"printing", {}}});
}

// ------------------------------------------------------- language surface

TEST(BytecodeDiff, OperatorsAndControlFlowAgree) {
  auto registry = make_registry(
      "Lang",
      {
          {"constructor", {}, "acc = 0;"},
          {"arith", {"a", "b"}, R"(
              return str(a + b) + "|" + str(a - b) + "|" + str(a * b) +
                     "|" + str(a / b) + "|" + str(a % b) + "|" + str(0 - a);)"},
          {"compare", {"a", "b"}, R"(
              return str(a == b) + str(a != b) + str(a < b) + str(a <= b) +
                     str(a > b) + str(a >= b) + str("x" < "y");)"},
          {"logic", {"x"}, R"(
              var hits = 0;
              if (x > 0 && sideEffect() > 0) { hits = hits + 1; }
              if (x > 0 || sideEffect() > 0) { hits = hits + 10; }
              return str(hits) + "|" + str(acc) + "|" + str(!(x > 0));)"},
          {"sideEffect", {}, "acc = acc + 1; return acc;"},
          {"loops", {"n"}, R"(
              var total = 0;
              for (var i = 0; i < n; i = i + 1) {
                if (i % 2 == 0) { continue; }
                if (i > 7) { break; }
                total = total + i;
              }
              var j = 0;
              while (true) {
                j = j + 1;
                if (j >= 3) { break; }
              }
              return str(total) + "|" + str(j);)"},
          {"dynamicLocals", {"flag"}, R"(
              if (flag) { var late = 41; }
              var late = late + 1;
              return late;)"},
          {"stringConcat", {}, R"(return "n=" + 42 + " b=" + true;)"},
      },
      {{"acc", Value::integer(0)}});
  expect_engines_agree(
      *registry, "Lang", {},
      {{"arith", {Value::integer(17), Value::integer(5)}},
       {"arith", {Value::integer(-17), Value::integer(5)}},
       {"compare", {Value::integer(3), Value::integer(3)}},
       {"compare", {Value::integer(2), Value::integer(9)}},
       {"logic", {Value::integer(1)}},
       {"logic", {Value::integer(0)}},
       {"loops", {Value::integer(20)}},
       {"dynamicLocals", {Value::boolean(true)}},
       {"dynamicLocals", {Value::boolean(false)}},  // use-before-declare error
       {"stringConcat", {}}});
}

// ------------------------------------------------------------ error parity

TEST(BytecodeDiff, ErrorMessagesAgree) {
  auto registry = make_registry(
      "Errs",
      {
          {"constructor", {}, "hits = 0;"},
          {"divZero", {}, "return 1 / (hits * 0);"},
          {"modZero", {}, "return 1 % (hits * 0);"},
          {"undefinedVar", {}, "return ghost + 1;"},
          {"listRange", {}, "var l = list(1); return l[5];"},
          {"strRange", {}, "var s = \"ab\"; return s[9];"},
          {"badIndex", {}, "var n = 4; return n[0];"},
          {"badMember", {}, "var n = 4; return n.field;"},
          {"missingMethod", {}, "hits = hits + 1; return nowhere();"},
          {"mutateThenThrow", {}, "hits = hits + 1; return 1 / 0;"},
      },
      {{"hits", Value::integer(0)}});
  expect_engines_agree(*registry, "Errs", {},
                       {{"divZero", {}},
                        {"modZero", {}},
                        {"undefinedVar", {}},
                        {"listRange", {}},
                        {"strRange", {}},
                        {"badIndex", {}},
                        {"badMember", {}},
                        {"missingMethod", {}},   // args/mutations before throw
                        {"mutateThenThrow", {}},
                        {"divZero", {}}});
}

TEST(BytecodeDiff, StepLimitAgrees) {
  auto registry = make_registry(
      "Spin", {{"spin", {}, "var i = 0; while (true) { i = i + 1; }"}});
  InterpOptions options;
  options.max_steps = 10'000;
  auto obj = minilang::instantiate(*registry, "Spin");
  for (Engine engine : {Engine::kOracle, Engine::kVm}) {
    EXPECT_EQ(call_outcome(obj, "spin", {}, engine, options),
              "error step limit exceeded");
  }
}

// ----------------------------------------------------------- view classes

// Generate a view, then run its public scripted methods on both engines
// and require identical transcripts (results, fields, coherence image).
void diff_view(ClassRegistry& registry, const std::string& xml,
               const std::vector<std::pair<std::string,
                                           std::vector<Value>>>& calls) {
  auto def = views::ViewDefinition::from_xml(xml);
  ASSERT_TRUE(def.ok()) << def.error().message;
  views::Vig vig(&registry);
  auto cls = vig.generate(def.value());
  ASSERT_TRUE(cls.ok()) << cls.error().message;
  expect_engines_agree(registry, cls.value()->name, {}, calls);
}

// Every public spliced/copied method with no parameters, probed generically
// (int args would only exercise the arity check, which is engine-neutral).
std::vector<std::pair<std::string, std::vector<Value>>> zero_arg_calls(
    const ClassDef& cls) {
  std::vector<std::pair<std::string, std::vector<Value>>> calls;
  for (const auto& m : cls.methods) {
    if (m.is_native || m.name == "constructor") continue;
    if (m.visibility != Visibility::kPublic) continue;
    if (!m.params.empty()) continue;
    calls.push_back({m.name, {}});
  }
  return calls;
}

TEST(BytecodeDiff, MemberViewAgrees) {
  ClassRegistry registry;
  mail::register_all(registry);
  diff_view(registry, mail::view_xml_member(),
            {{"addNote", {Value::string("remember the milk")}},
             {"addNote", {Value::string("second note")}},
             {"receiveMessages", {}},
             {"addAccount",
              {Value::string("a"), Value::string("p"), Value::string("e")}}});
}

TEST(BytecodeDiff, PartnerViewAgrees) {
  ClassRegistry registry;
  mail::register_all(registry);
  diff_view(registry, mail::view_xml_partner(),
            {{"addAccount",
              {Value::string("alice"), Value::string("555"),
               Value::string("alice@x")}},
             {"getPhone", {Value::string("alice")}},
             {"getEmail", {Value::string("alice")}},
             {"getPhone", {Value::string("nobody")}},
             {"addNote", {Value::string("from the view")}}});
}

TEST(BytecodeDiff, RemainingInTreeViewsAgree) {
  const std::string xmls[] = {mail::view_xml_anonymous(),
                              mail::view_xml_mail_server_cache(),
                              mail::view_xml_client_replica()};
  for (const std::string& xml : xmls) {
    ClassRegistry registry;
    mail::register_all(registry);
    auto def = views::ViewDefinition::from_xml(xml);
    ASSERT_TRUE(def.ok());
    views::Vig vig(&registry);
    auto cls = vig.generate(def.value());
    ASSERT_TRUE(cls.ok()) << cls.error().message;
    expect_engines_agree(registry, cls.value()->name, {},
                         zero_arg_calls(*cls.value()));
  }
}

TEST(BytecodeDiff, GoodAnalysisFixtureViewsAgree) {
  const char* fixtures[] = {"good_reachability.xml", "good_use_before_init.xml",
                            "good_dead_members.xml", "good_exposure.xml",
                            "good_coherence.xml"};
  for (const char* name : fixtures) {
    ClassRegistry registry;
    mail::register_all(registry);
    auto def = views::ViewDefinition::from_xml(
        read_file(std::string(PSF_ANALYSIS_FIXTURE_DIR) + "/" + name));
    ASSERT_TRUE(def.ok()) << name;
    views::Vig vig(&registry);
    auto cls = vig.generate(def.value());
    ASSERT_TRUE(cls.ok()) << name << ": " << cls.error().message;
    expect_engines_agree(registry, cls.value()->name, {},
                         zero_arg_calls(*cls.value()));
  }
}

// ------------------------------------------------------- hot-path bodies

// Bodies that stress register reuse: repeated field loads inside one
// expression, chains of local copies, stores followed by reloads, and
// branches and calls between field reads.
std::shared_ptr<ClassRegistry> make_hotspot_registry() {
  return make_registry(
      "Hotspot",
      {
          {"constructor", {}, "balance = 100; count = 7; acc = 0;"},
          {"fieldExpr", {"n"}, R"(
              var total = 0;
              for (var i = 0; i < n; i = i + 1) {
                total = total + balance * balance + balance
                              - count * count + count;
              }
              acc = total;
              return total;)"},
          {"copies", {"a"}, R"(
              var x = a;
              var y = x;
              var z = y;
              return z + balance + balance + balance;)"},
          {"storeReload", {"v"}, R"(
              balance = v;
              var twice = balance + balance;
              sideEffect();
              return twice + balance;)"},
          {"sideEffect", {}, "balance = balance + 1; return balance;"},
          {"branchy", {"n"}, R"(
              var total = balance + balance;
              if (n > 0) { balance = n; } else { count = n; }
              return total + balance + count;)"},
      },
      {{"balance", Value::integer(0)},
       {"count", Value::integer(0)},
       {"acc", Value::integer(0)}});
}

TEST(BytecodeDiff, HotspotBodiesAgree) {
  expect_engines_agree(*make_hotspot_registry(), "Hotspot", {},
                       {{"fieldExpr", {Value::integer(6)}},
                        {"copies", {Value::integer(5)}},
                        {"storeReload", {Value::integer(40)}},
                        {"branchy", {Value::integer(3)}},
                        {"branchy", {Value::integer(-3)}},
                        {"fieldExpr", {Value::integer(0)}}});
}

TEST(BytecodeDiff, StepLimitParityAcrossBudgetSweep) {
  // The engines charge steps differently — the VM one per instruction, the
  // oracle one per statement, loop iteration and expression node — so the
  // smallest budget that lets a call finish differs. What must hold at
  // EVERY budget: each engine either finishes with the unlimited answer or
  // stops with exactly "step limit exceeded" (never another error or a
  // different value), and once it finishes it finishes at every larger
  // budget. The sweep must cross both engines' thresholds.
  auto registry = make_hotspot_registry();
  auto outcome = [&](Engine engine, std::size_t budget) {
    InterpOptions options;
    options.max_steps = budget;
    try {
      auto obj = engine == Engine::kVm
                     ? minilang::instantiate(*registry, "Hotspot", {}, options)
                     : minilang::oracle::instantiate(*registry, "Hotspot", {},
                                                     options);
      return call_outcome(obj, "fieldExpr", {Value::integer(2)}, engine,
                          options);
    } catch (const EvalError& e) {
      return std::string("error ") + e.what();
    }
  };
  const std::string want = outcome(Engine::kOracle, 1'000'000);
  ASSERT_EQ(want, outcome(Engine::kVm, 1'000'000));
  ASSERT_EQ(want.rfind("ok ", 0), 0u) << want;
  for (Engine engine : {Engine::kOracle, Engine::kVm}) {
    bool finished = false;
    for (std::size_t budget = 1; budget <= 160; ++budget) {
      const std::string got = outcome(engine, budget);
      if (got == want) {
        finished = true;
      } else {
        EXPECT_FALSE(finished) << "budget " << budget << " regressed: " << got;
        EXPECT_EQ(got, "error step limit exceeded") << "budget " << budget;
      }
    }
    EXPECT_TRUE(finished) << "engine " << static_cast<int>(engine)
                          << " never finished within 160 steps";
  }
}

// ---------------------------------------------- inherited methods, layouts

TEST(BytecodeDiff, InheritedMethodCompilesPerClassLayout) {
  // Base declares `total` over field `b`; Derived adds field `a`, which
  // sorts first and shifts `b` to slot 1. Calling the inherited method
  // alternately on both must compile it once per class and match the
  // oracle on each.
  auto registry = make_registry(
      "Base",
      {{"constructor", {}, "b = 5;"},
       {"total", {"k"}, "b = b + k; return b * 10;"}},
      {{"b", Value::integer(0)}});
  auto derived = std::make_shared<ClassDef>();
  derived->name = "Derived";
  derived->super_name = "Base";
  derived->fields.push_back({"a", "int", Value::integer(100)});
  registry->register_class(derived);

  // One Base and one Derived instance, called alternately so the method
  // switches layouts on every call.
  auto alternate = [&](Engine engine) {
    auto make = [&](const std::string& cls) {
      return engine == Engine::kVm
                 ? minilang::instantiate(*registry, cls)
                 : minilang::oracle::instantiate(*registry, cls);
    };
    auto base_obj = make("Base");
    auto derived_obj = make("Derived");
    std::ostringstream os;
    for (std::int64_t k = 1; k <= 3; ++k) {
      os << call_outcome(base_obj, "total", {Value::integer(k)}, engine)
         << "\n"
         << call_outcome(derived_obj, "total", {Value::integer(10 * k)},
                         engine)
         << "\n";
    }
    os << field_snapshot(*registry, *base_obj) << "--\n"
       << field_snapshot(*registry, *derived_obj);
    return os.str();
  };
  const std::string vm = alternate(Engine::kVm);
  EXPECT_EQ(alternate(Engine::kOracle), vm);
  // The inherited store hit Derived's `b`, not the `a` now in slot 0.
  EXPECT_NE(vm.find("--\na=int:100\nb=int:65\n"), std::string::npos) << vm;

  const auto base = registry->find_class("Base");
  const MethodDef* total = base->find_method("total");
  const auto& base_code = minilang::ensure_compiled(*registry, *base, *total);
  const auto& derived_code =
      minilang::ensure_compiled(*registry, *derived, *total);
  EXPECT_EQ(base_code.self_class, base.get());
  EXPECT_EQ(derived_code.self_class, derived.get());
  EXPECT_NE(&base_code, &derived_code);
  // Published, not recompiled: a second lookup returns the same code.
  EXPECT_EQ(&minilang::ensure_compiled(*registry, *derived, *total),
            &derived_code);
}

TEST(BytecodeDiff, ConcurrentFirstCallsCompileOncePerClass) {
  // Threads race the first calls of an inherited method on both classes:
  // the lock-free slot for the first class and the guarded list for the
  // second must each end up with exactly one compile.
  auto registry = make_registry(
      "Base", {{"total", {"k"}, "b = b + k; return b;"}},
      {{"b", Value::integer(0)}});
  auto derived = std::make_shared<ClassDef>();
  derived->name = "Derived";
  derived->super_name = "Base";
  derived->fields.push_back({"a", "int", Value::integer(0)});
  registry->register_class(derived);

  auto& compiled = obs::counter("psf.minilang.methods_compiled");
  const std::uint64_t before = compiled.value();
  constexpr int kThreads = 4;
  constexpr int kCalls = 200;
  std::vector<std::int64_t> finals(2 * kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto base_obj = minilang::instantiate(*registry, "Base");
      auto derived_obj = minilang::instantiate(*registry, "Derived");
      for (int i = 0; i < kCalls; ++i) {
        finals[2 * t] = base_obj->call("total", {Value::integer(1)}).as_int();
        finals[2 * t + 1] =
            derived_obj->call("total", {Value::integer(2)}).as_int();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(finals[2 * t], kCalls);
    EXPECT_EQ(finals[2 * t + 1], 2 * kCalls);
  }
  EXPECT_EQ(compiled.value() - before, 2u);
}

// ------------------------------------------ shapes the compiler once refused

TEST(BytecodeDiff, DuplicateParametersMatchOracle) {
  auto registry = make_registry(
      "Dup", {{"pair", {"a", "a"}, "return a;"},
              {"triple", {"a", "b", "a"}, "a = a + b; return str(a) + str(b);"},
              {"shadow", {"x", "x"}, "var x = x * 2; return x;"}});
  expect_engines_agree(
      *registry, "Dup", {},
      {{"pair", {Value::integer(1), Value::integer(2)}},
       {"triple", {Value::integer(1), Value::integer(2), Value::integer(3)}},
       {"shadow", {Value::integer(4), Value::integer(5)}}});
}

TEST(BytecodeDiff, VarThisMatchesOracle) {
  auto registry = make_registry(
      "Self",
      {{"tag", {}, "return \"self\";"},
       {"declared", {}, R"(
            var this = 41;
            this = this.tag();
            return typeof(this) + ":" + this.tag();)"},
       {"assignFirst", {}, "this = 1; var this = 2; return 0;"},
       {"inLoop", {"n"}, R"(
            var hits = 0;
            for (var this = 0; hits < n; this = hits) { hits = hits + 1; }
            return str(hits) + this.tag();)"}});
  expect_engines_agree(*registry, "Self", {},
                       {{"declared", {}},
                        {"assignFirst", {}},
                        {"inLoop", {Value::integer(3)}}});
}

// `var v0 = seed; var v1 = v0 + 1; ...; return v<n-1>;`
std::string wide_body(std::size_t n) {
  std::ostringstream os;
  os << "var v0 = seed;\n";
  for (std::size_t i = 1; i < n; ++i) {
    os << "var v" << i << " = v" << i - 1 << " + 1;\n";
  }
  os << "return v" << n - 1 << ";";
  return os.str();
}

TEST(BytecodeDiff, WideBodyBeyondOldRegisterBudgetMatchesOracle) {
  // 300 locals: past the 250-register budget that used to send a method
  // back to the tree-walker.
  auto registry = make_registry("Wide", {{"go", {"seed"}, wide_body(300)}});
  expect_engines_agree(*registry, "Wide", {}, {{"go", {Value::integer(7)}}});
  const auto cls = registry->find_class("Wide");
  EXPECT_GT(minilang::ensure_compiled(*registry, *cls,
                                      *cls->find_method("go"))
                .num_registers,
            250u);
}

TEST(BytecodeDiff, RegisterCeilingRaisesNamedCompileError) {
  // One local more than a 16-bit register operand can address.
  auto registry = make_registry("Huge", {{"go", {"seed"}, wide_body(0x10000)}});
  auto obj = minilang::instantiate(*registry, "Huge");
  try {
    obj->call("go", {Value::integer(1)});
    FAIL() << "a 65536-local body compiled";
  } catch (const minilang::CompileError& e) {
    EXPECT_STREQ(e.what(),
                 "cannot compile method 'go' on Huge: too many locals");
  }
}

TEST(BytecodeDiff, VigRefusesViewWhoseMethodCannotCompile) {
  ClassRegistry registry;
  mail::register_all(registry);
  const std::string xml = R"(<View name="ViewMailClient_Huge">
  <Represents name="MailClient"/>
  <Restricts><Interface name="AddressI" type="local"/></Restricts>
  <Adds_Methods>
    <MSign>constructor()</MSign>
    <MBody><![CDATA[huge(1);]]></MBody>
    <MSign>huge(seed)</MSign>
    <MBody><![CDATA[)" + wide_body(0x10000) + R"(]]></MBody>
  </Adds_Methods>
</View>)";
  auto def = views::ViewDefinition::from_xml(xml);
  ASSERT_TRUE(def.ok()) << def.error().message;
  views::Vig vig(&registry);
  for (int attempt = 0; attempt < 2; ++attempt) {  // nothing cached
    auto cls = vig.generate(def.value());
    ASSERT_FALSE(cls.ok());
    EXPECT_NE(cls.error().message.find(
                  "cannot compile method 'huge' on ViewMailClient_Huge: "
                  "too many locals"),
              std::string::npos)
        << cls.error().message;
    EXPECT_EQ(registry.find_class("ViewMailClient_Huge"), nullptr);
  }
  EXPECT_EQ(vig.stats().generated, 0u);
}

// ------------------------------------------------------------ inline caches

TEST(BytecodeDiff, InlineCacheHitAndGuardMissAgreeWithInterpreter) {
  auto registry = std::make_shared<ClassRegistry>();
  auto add_class = [&](const std::string& name, const std::string& body) {
    auto cls = std::make_shared<ClassDef>();
    cls->name = name;
    MethodDef m;
    m.name = "ping";
    m.source = body;
    auto parsed = minilang::parse_block_source(body);
    ASSERT_TRUE(parsed.ok());
    m.body = std::move(parsed).take();
    cls->methods.push_back(std::move(m));
    registry->register_class(cls);
  };
  add_class("Alpha", "return \"alpha\";");
  add_class("Beta", "return \"beta\";");
  {
    auto cls = std::make_shared<ClassDef>();
    cls->name = "Driver";
    MethodDef m;
    m.name = "relay";
    m.params = {"target"};
    m.source = "return target.ping();";
    auto parsed = minilang::parse_block_source(m.source);
    ASSERT_TRUE(parsed.ok());
    m.body = std::move(parsed).take();
    cls->methods.push_back(std::move(m));
    registry->register_class(cls);
  }

  auto driver = minilang::instantiate(*registry, "Driver");
  auto alpha = minilang::instantiate(*registry, "Alpha");
  auto beta = minilang::instantiate(*registry, "Beta");
  auto& hits = obs::counter("psf.minilang.ic_hits");
  auto& misses = obs::counter("psf.minilang.ic_misses");
  const std::uint64_t hits_before = hits.value();
  const std::uint64_t misses_before = misses.value();

  // The same polymorphic sequence on both engines: fill on Alpha, hit on
  // Alpha, guard-miss on Beta (twice), then a receiver with no method.
  const std::vector<Value> receivers = {
      Value::object(alpha), Value::object(alpha), Value::object(beta),
      Value::object(beta),  Value::object(alpha), Value::integer(9)};
  std::string transcripts[2];
  const Engine engines[2] = {Engine::kVm, Engine::kOracle};
  for (int i = 0; i < 2; ++i) {
    std::ostringstream os;
    for (const Value& receiver : receivers) {
      os << call_outcome(driver, "relay", {receiver}, engines[i]) << "\n";
    }
    transcripts[i] = os.str();
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
  EXPECT_NE(transcripts[0].find("ok string:alpha"), std::string::npos);
  EXPECT_NE(transcripts[0].find("ok string:beta"), std::string::npos);
  // The VM pass filled the cache on Alpha, then hit it at least once and
  // guard-missed on every Beta dispatch.
  EXPECT_GT(hits.value(), hits_before);
  EXPECT_GT(misses.value(), misses_before);
}

// ------------------------------------------------------ generation time

TEST(BytecodeDiff, VigPrecompilesViewMethods) {
  ClassRegistry registry;
  mail::register_all(registry);
  views::Vig vig(&registry);
  auto def = views::ViewDefinition::from_xml(mail::view_xml_member());
  ASSERT_TRUE(def.ok());
  auto cls = vig.generate(def.value());
  ASSERT_TRUE(cls.ok());
  EXPECT_GT(vig.stats().methods_compiled, 0u);
  for (const MethodDef& m : cls.value()->methods) {
    if (m.is_native) continue;
    EXPECT_EQ(minilang::ensure_compiled(registry, *cls.value(), m).self_class,
              cls.value().get())
        << m.name;
  }
}

}  // namespace
}  // namespace psf
