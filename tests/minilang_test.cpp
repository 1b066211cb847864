#include <gtest/gtest.h>

#include "minilang/interp.hpp"
#include "minilang/lexer.hpp"
#include "minilang/object.hpp"
#include "minilang/parser.hpp"
#include "minilang/value.hpp"
#include "support/minilang_oracle.hpp"

namespace psf::minilang {
namespace {

// ------------------------------------------------------------------ Lexer

TEST(Lexer, TokenizesIdentifiersAndKeywords) {
  auto r = lex("var x = foo;");
  ASSERT_TRUE(r.ok());
  const auto& t = r.value();
  ASSERT_EQ(t.size(), 6u);  // var x = foo ; END
  EXPECT_TRUE(t[0].is_keyword("var"));
  EXPECT_EQ(t[1].kind, TokenKind::kIdent);
  EXPECT_TRUE(t[2].is_punct("="));
  EXPECT_EQ(t[3].text, "foo");
}

TEST(Lexer, TokenizesTwoCharOperators) {
  auto r = lex("a == b != c <= d >= e && f || g");
  ASSERT_TRUE(r.ok());
  int two_char = 0;
  for (const auto& tok : r.value()) {
    if (tok.kind == TokenKind::kPunct && tok.text.size() == 2) ++two_char;
  }
  EXPECT_EQ(two_char, 6);
}

TEST(Lexer, StringEscapes) {
  auto r = lex(R"("a\nb\"c")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0].text, "a\nb\"c");
}

TEST(Lexer, SkipsComments) {
  auto r = lex("x; // comment here\ny;");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 5u);  // x ; y ; END
}

TEST(Lexer, RejectsUnterminatedString) {
  EXPECT_FALSE(lex("\"abc").ok());
}

TEST(Lexer, RejectsUnknownCharacter) {
  EXPECT_FALSE(lex("a @ b").ok());
}

TEST(Lexer, TracksLineNumbers) {
  auto r = lex("a;\nb;\nc;");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[4].line, 3u);  // 'c'
}

// ----------------------------------------------------------------- Parser

TEST(Parser, ParsesVarAndReturn) {
  auto r = parse_block_source("var x = 1 + 2; return x;");
  ASSERT_TRUE(r.ok()) << r.error().message;
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_EQ(r.value()[0]->kind, StmtKind::kVarDecl);
  EXPECT_EQ(r.value()[1]->kind, StmtKind::kReturn);
}

TEST(Parser, PrecedenceMultiplicationBindsTighter) {
  // 1 + 2 * 3 → Binary(+, 1, Binary(*, 2, 3))
  auto r = parse_expression_source("1 + 2 * 3");
  ASSERT_TRUE(r.ok());
  const Expr& e = *r.value();
  ASSERT_EQ(e.kind, ExprKind::kBinary);
  EXPECT_EQ(e.name, "+");
  EXPECT_EQ(e.children[1]->name, "*");
}

TEST(Parser, ParsesIfElseChain) {
  auto r = parse_block_source(
      "if (a == 1) { return 1; } else if (a == 2) { return 2; } else { return 3; }");
  ASSERT_TRUE(r.ok()) << r.error().message;
  const Stmt& s = *r.value()[0];
  EXPECT_EQ(s.kind, StmtKind::kIf);
  ASSERT_EQ(s.else_body.size(), 1u);
  EXPECT_EQ(s.else_body[0]->kind, StmtKind::kIf);
}

TEST(Parser, ParsesWhileLoop) {
  auto r = parse_block_source("var i = 0; while (i < 10) { i = i + 1; }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[1]->kind, StmtKind::kWhile);
}

TEST(Parser, ParsesMemberCallChains) {
  auto r = parse_expression_source("server.findAccount(name).getPhone()");
  ASSERT_TRUE(r.ok());
  const Expr& e = *r.value();
  EXPECT_EQ(e.kind, ExprKind::kMemberCall);
  EXPECT_EQ(e.name, "getPhone");
  EXPECT_EQ(e.children[0]->kind, ExprKind::kMemberCall);
  EXPECT_EQ(e.children[0]->name, "findAccount");
}

TEST(Parser, ParsesIndexing) {
  auto r = parse_expression_source("accounts[name]");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()->kind, ExprKind::kIndex);
}

TEST(Parser, RejectsInvalidAssignmentTarget) {
  EXPECT_FALSE(parse_block_source("1 + 2 = 3;").ok());
}

TEST(Parser, RejectsMissingSemicolon) {
  EXPECT_FALSE(parse_block_source("var x = 1").ok());
}

TEST(Parser, RejectsUnterminatedBlock) {
  EXPECT_FALSE(parse_block_source("if (a) { return 1;").ok());
}

TEST(Parser, CloneProducesEqualStructure) {
  auto r = parse_block_source("if (a < b) { c = a.m(1, \"x\"); } return c;");
  ASSERT_TRUE(r.ok());
  auto cloned = clone_block(r.value());
  ASSERT_EQ(cloned.size(), 2u);
  EXPECT_EQ(cloned[0]->kind, StmtKind::kIf);
  EXPECT_EQ(cloned[0]->body[0]->kind, StmtKind::kAssign);
  // Deep copy: distinct nodes.
  EXPECT_NE(cloned[0].get(), r.value()[0].get());
}

// ------------------------------------------------------------ Interpreter

// Evaluate `expr` on both engines: the oracle's standalone evaluator, and
// the VM as the body `return <expr>;` of a one-method class. Values must
// match (type and rendering) and an error on one engine must be an error on
// the other. Returns the VM's value; rethrows the VM's EvalError.
Value eval_both(const std::string& expr) {
  std::string oracle_outcome;
  try {
    const Value v = oracle::eval_standalone(expr);
    oracle_outcome = v.type_name() + ":" + v.to_display_string();
  } catch (const EvalError&) {
    oracle_outcome = "error";
  }
  ClassRegistry registry;
  auto cls = std::make_shared<ClassDef>();
  cls->name = "Expr";
  MethodDef m;
  m.name = "eval";
  m.source = "return " + expr + ";";
  auto parsed = parse_block_source(m.source);
  if (!parsed.ok()) throw EvalError(parsed.error().message);
  m.body = std::move(parsed).take();
  cls->methods.push_back(std::move(m));
  registry.register_class(cls);
  try {
    const Value v = instantiate(registry, "Expr")->call("eval", {});
    EXPECT_EQ(v.type_name() + ":" + v.to_display_string(), oracle_outcome)
        << expr;
    return v;
  } catch (const EvalError&) {
    EXPECT_EQ(oracle_outcome, "error") << expr;
    throw;
  }
}

TEST(Interp, EvaluatesArithmetic) {
  EXPECT_EQ(eval_both("1 + 2 * 3 - 4 / 2").as_int(), 5);
  EXPECT_EQ(eval_both("10 % 3").as_int(), 1);
  EXPECT_EQ(eval_both("-(3 + 4)").as_int(), -7);
}

TEST(Interp, EvaluatesComparisonsAndLogic) {
  EXPECT_TRUE(eval_both("1 < 2 && 2 <= 2 && 3 > 2 && 3 >= 3").as_bool());
  EXPECT_TRUE(eval_both("1 == 1 && 1 != 2").as_bool());
  EXPECT_TRUE(eval_both("false || true").as_bool());
  EXPECT_FALSE(eval_both("!true").as_bool());
}

TEST(Interp, StringConcatenation) {
  EXPECT_EQ(eval_both("\"a\" + \"b\" + 3").as_string(), "ab3");
}

TEST(Interp, StringComparison) {
  EXPECT_TRUE(eval_both("\"abc\" < \"abd\"").as_bool());
}

TEST(Interp, DivisionByZeroThrows) {
  EXPECT_THROW(eval_both("1 / 0"), EvalError);
  EXPECT_THROW(eval_both("1 % 0"), EvalError);
}

TEST(Interp, BuiltinListOperations) {
  EXPECT_EQ(eval_both("len(list(1, 2, 3))").as_int(), 3);
  EXPECT_TRUE(eval_both("contains(list(1, 2, 3), 2)").as_bool());
  EXPECT_FALSE(eval_both("contains(list(1, 2, 3), 9)").as_bool());
}

TEST(Interp, BuiltinStringOperations) {
  EXPECT_EQ(eval_both("substr(\"hello\", 1, 3)").as_string(), "ell");
  EXPECT_TRUE(eval_both("contains(\"hello\", \"ell\")").as_bool());
  EXPECT_EQ(eval_both("str(42)").as_string(), "42");
}

TEST(Interp, BuiltinBytesRoundTrip) {
  EXPECT_EQ(eval_both("text(bytes(\"data\"))").as_string(), "data");
  EXPECT_EQ(eval_both("len(bytes(\"data\"))").as_int(), 4);
}

TEST(Interp, BuiltinMinMaxAbs) {
  EXPECT_EQ(eval_both("min(3, 5)").as_int(), 3);
  EXPECT_EQ(eval_both("max(3, 5)").as_int(), 5);
  EXPECT_EQ(eval_both("abs(0 - 9)").as_int(), 9);
}

// Builds a small class for object tests:
//   class Counter { count; limit;
//     constructor(start) { count = start; limit = 10; }
//     increment(by) { count = count + by; return count; }
//     atLimit() { return count >= limit; }
//     private reset() { count = 0; }
//     callReset() { reset(); return count; } }
std::shared_ptr<ClassRegistry> make_counter_registry() {
  auto registry = std::make_shared<ClassRegistry>();
  auto cls = std::make_shared<ClassDef>();
  cls->name = "Counter";
  cls->fields.push_back({"count", "int", Value::integer(0)});
  cls->fields.push_back({"limit", "int", Value::integer(0)});

  auto add_method = [&](const std::string& name, std::vector<std::string> params,
                        const std::string& body, Visibility vis) {
    MethodDef m;
    m.name = name;
    m.params = std::move(params);
    m.visibility = vis;
    m.source = body;
    auto parsed = parse_block_source(body);
    if (!parsed.ok()) throw std::runtime_error(parsed.error().message);
    m.body = std::move(parsed).take();
    cls->methods.push_back(std::move(m));
  };
  add_method("constructor", {"start"}, "count = start; limit = 10;",
             Visibility::kPublic);
  add_method("increment", {"by"}, "count = count + by; return count;",
             Visibility::kPublic);
  add_method("atLimit", {}, "return count >= limit;", Visibility::kPublic);
  add_method("reset", {}, "count = 0;", Visibility::kPrivate);
  add_method("callReset", {}, "reset(); return count;", Visibility::kPublic);
  registry->register_class(cls);
  return registry;
}

TEST(Interp, ConstructorInitializesFields) {
  auto registry = make_counter_registry();
  auto obj = instantiate(*registry, "Counter", {Value::integer(5)});
  EXPECT_EQ(obj->get_field("count").as_int(), 5);
  EXPECT_EQ(obj->get_field("limit").as_int(), 10);
}

TEST(Interp, MethodsReadAndWriteFields) {
  auto registry = make_counter_registry();
  auto obj = instantiate(*registry, "Counter", {Value::integer(0)});
  EXPECT_EQ(obj->call("increment", {Value::integer(3)}).as_int(), 3);
  EXPECT_EQ(obj->call("increment", {Value::integer(4)}).as_int(), 7);
  EXPECT_FALSE(obj->call("atLimit", {}).as_bool());
  obj->call("increment", {Value::integer(5)});
  EXPECT_TRUE(obj->call("atLimit", {}).as_bool());
}

TEST(Interp, PrivateMethodsRejectedExternally) {
  auto registry = make_counter_registry();
  auto obj = instantiate(*registry, "Counter", {Value::integer(9)});
  EXPECT_THROW(obj->call("reset", {}), EvalError);
  // ... but callable from inside the class.
  EXPECT_EQ(obj->call("callReset", {}).as_int(), 0);
}

TEST(Interp, UnknownMethodThrows) {
  auto registry = make_counter_registry();
  auto obj = instantiate(*registry, "Counter", {Value::integer(0)});
  EXPECT_THROW(obj->call("nope", {}), EvalError);
}

TEST(Interp, WrongArityThrows) {
  auto registry = make_counter_registry();
  auto obj = instantiate(*registry, "Counter", {Value::integer(0)});
  EXPECT_THROW(obj->call("increment", {}), EvalError);
}

TEST(Interp, UndefinedVariableMentionsName) {
  auto registry = make_counter_registry();
  auto cls = std::make_shared<ClassDef>();
  cls->name = "Bad";
  MethodDef m;
  m.name = "go";
  m.source = "return missingVar;";
  m.body = std::move(parse_block_source(m.source)).take();
  cls->methods.push_back(std::move(m));
  registry->register_class(cls);
  auto obj = instantiate(*registry, "Bad");
  try {
    obj->call("go", {});
    FAIL() << "expected EvalError";
  } catch (const EvalError& e) {
    EXPECT_NE(std::string(e.what()).find("missingVar"), std::string::npos);
  }
}

TEST(Interp, InheritanceResolvesMethodsAndFields) {
  auto registry = make_counter_registry();
  auto derived = std::make_shared<ClassDef>();
  derived->name = "BoundedCounter";
  derived->super_name = "Counter";
  derived->fields.push_back({"bound", "int", Value::integer(3)});
  MethodDef m;
  m.name = "boundedIncrement";
  m.params = {"by"};
  m.source = "if (count + by > bound) { return count; } return increment(by);";
  m.body = std::move(parse_block_source(m.source)).take();
  derived->methods.push_back(std::move(m));
  registry->register_class(derived);

  auto obj = instantiate(*registry, "BoundedCounter", {Value::integer(0)});
  EXPECT_EQ(obj->call("boundedIncrement", {Value::integer(2)}).as_int(), 2);
  EXPECT_EQ(obj->call("boundedIncrement", {Value::integer(5)}).as_int(), 2);
  // Inherited method still callable directly.
  EXPECT_EQ(obj->call("increment", {Value::integer(1)}).as_int(), 3);
}

TEST(Interp, NativeMethodsCallCpp) {
  auto registry = std::make_shared<ClassRegistry>();
  auto cls = std::make_shared<ClassDef>();
  cls->name = "Native";
  MethodDef m;
  m.name = "twice";
  m.params = {"x"};
  m.is_native = true;
  m.native = [](Instance&, std::vector<Value> args) {
    return Value::integer(args[0].as_int() * 2);
  };
  cls->methods.push_back(std::move(m));
  registry->register_class(cls);
  auto obj = instantiate(*registry, "Native");
  EXPECT_EQ(obj->call("twice", {Value::integer(21)}).as_int(), 42);
}

TEST(Interp, MethodHooksFireAroundWrappedMethods) {
  struct CountingHooks : MethodHooks {
    int before = 0, after = 0;
    void before_method(Instance&, const MethodDef&) override { ++before; }
    void after_method(Instance&, const MethodDef&) override { ++after; }
  };
  auto registry = make_counter_registry();
  auto cls = registry->find_class("Counter");
  // Mark increment as coherence-wrapped on a copy of the class.
  auto wrapped = std::make_shared<ClassDef>();
  wrapped->name = "WrappedCounter";
  wrapped->super_name = "";
  wrapped->fields = cls->fields;
  for (const auto& m : cls->methods) {
    MethodDef copy = m.clone();
    if (copy.name == "increment") copy.coherence_wrapped = true;
    wrapped->methods.push_back(std::move(copy));
  }
  registry->register_class(wrapped);

  auto obj = instantiate(*registry, "WrappedCounter", {Value::integer(0)});
  auto hooks = std::make_shared<CountingHooks>();
  obj->set_hooks(hooks);
  obj->call("increment", {Value::integer(1)});
  obj->call("increment", {Value::integer(1)});
  obj->call("atLimit", {});  // not wrapped
  EXPECT_EQ(hooks->before, 2);
  EXPECT_EQ(hooks->after, 2);
}

TEST(Interp, StepLimitStopsInfiniteLoop) {
  auto registry = std::make_shared<ClassRegistry>();
  auto cls = std::make_shared<ClassDef>();
  cls->name = "Spinner";
  MethodDef m;
  m.name = "spin";
  m.source = "while (true) { }";
  m.body = std::move(parse_block_source(m.source)).take();
  cls->methods.push_back(std::move(m));
  registry->register_class(cls);
  auto obj = instantiate(*registry, "Spinner");
  InterpOptions opts;
  opts.max_steps = 10'000;
  EXPECT_THROW(invoke_method(obj, "spin", {}, true, opts), EvalError);
}

TEST(Interp, DepthLimitStopsRunawayRecursion) {
  auto registry = std::make_shared<ClassRegistry>();
  auto cls = std::make_shared<ClassDef>();
  cls->name = "Recurser";
  MethodDef m;
  m.name = "go";
  m.source = "return go();";
  m.body = std::move(parse_block_source(m.source)).take();
  cls->methods.push_back(std::move(m));
  registry->register_class(cls);
  auto obj = instantiate(*registry, "Recurser");
  EXPECT_THROW(obj->call("go", {}), EvalError);
}

TEST(Interp, MapsAndListsShareByReference) {
  auto registry = std::make_shared<ClassRegistry>();
  auto cls = std::make_shared<ClassDef>();
  cls->name = "Store";
  cls->fields.push_back({"data", "map", Value::null()});
  auto add = [&](const std::string& name, std::vector<std::string> params,
                 const std::string& body) {
    MethodDef m;
    m.name = name;
    m.params = std::move(params);
    m.source = body;
    m.body = std::move(parse_block_source(body)).take();
    cls->methods.push_back(std::move(m));
  };
  add("constructor", {}, "data = map();");
  add("set", {"k", "v"}, "put(data, k, v);");
  add("get", {"k"}, "return get(data, k);");
  add("size", {}, "return len(data);");
  registry->register_class(cls);

  auto obj = instantiate(*registry, "Store");
  obj->call("set", {Value::string("a"), Value::integer(1)});
  obj->call("set", {Value::string("b"), Value::integer(2)});
  EXPECT_EQ(obj->call("get", {Value::string("a")}).as_int(), 1);
  EXPECT_EQ(obj->call("size", {}).as_int(), 2);
}

TEST(Interp, MemberAccessOnMaps) {
  auto registry = std::make_shared<ClassRegistry>();
  auto cls = std::make_shared<ClassDef>();
  cls->name = "M";
  MethodDef m;
  m.name = "go";
  m.source =
      "var mes = map(); mes.subject = \"hi\"; mes.body = \"text\"; "
      "return mes.subject + \":\" + mes.body;";
  m.body = std::move(parse_block_source(m.source)).take();
  cls->methods.push_back(std::move(m));
  registry->register_class(cls);
  auto obj = instantiate(*registry, "M");
  EXPECT_EQ(obj->call("go", {}).as_string(), "hi:text");
}

TEST(Interp, ObjectsPassedBetweenInstances) {
  // instance A holds a reference to instance B and calls through it.
  auto registry = make_counter_registry();
  auto holder = std::make_shared<ClassDef>();
  holder->name = "Holder";
  holder->fields.push_back({"target", "Counter", Value::null()});
  auto add = [&](const std::string& name, std::vector<std::string> params,
                 const std::string& body) {
    MethodDef m;
    m.name = name;
    m.params = std::move(params);
    m.source = body;
    m.body = std::move(parse_block_source(body)).take();
    holder->methods.push_back(std::move(m));
  };
  add("setTarget", {"t"}, "target = t;");
  add("bump", {}, "return target.increment(10);");
  registry->register_class(holder);

  auto counter = instantiate(*registry, "Counter", {Value::integer(1)});
  auto h = instantiate(*registry, "Holder");
  h->call("setTarget", {Value::object(counter)});
  EXPECT_EQ(h->call("bump", {}).as_int(), 11);
  EXPECT_EQ(counter->get_field("count").as_int(), 11);
}

// -------------------------------------------------- for / break / continue

std::shared_ptr<Instance> one_method(const std::string& body) {
  static std::vector<std::shared_ptr<ClassRegistry>> keep_alive;
  auto registry = std::make_shared<ClassRegistry>();
  keep_alive.push_back(registry);
  auto cls = std::make_shared<ClassDef>();
  cls->name = "L";
  MethodDef m;
  m.name = "go";
  m.source = body;
  auto parsed = parse_block_source(body);
  if (!parsed.ok()) throw std::runtime_error(parsed.error().message);
  m.body = std::move(parsed).take();
  cls->methods.push_back(std::move(m));
  registry->register_class(cls);
  return instantiate(*registry, "L");
}

TEST(Loops, ForLoopSums) {
  auto obj = one_method(
      "var acc = 0; for (var i = 1; i <= 10; i = i + 1) { acc = acc + i; } "
      "return acc;");
  EXPECT_EQ(obj->call("go", {}).as_int(), 55);
}

TEST(Loops, ForWithEmptyClauses) {
  auto obj = one_method(
      "var i = 0; for (;;) { i = i + 1; if (i == 5) { break; } } return i;");
  EXPECT_EQ(obj->call("go", {}).as_int(), 5);
}

TEST(Loops, BreakExitsWhile) {
  auto obj = one_method(
      "var i = 0; while (true) { i = i + 1; if (i >= 3) { break; } } "
      "return i;");
  EXPECT_EQ(obj->call("go", {}).as_int(), 3);
}

TEST(Loops, ContinueSkipsIteration) {
  auto obj = one_method(
      "var acc = 0; for (var i = 0; i < 10; i = i + 1) { "
      "if (i % 2 == 0) { continue; } acc = acc + i; } return acc;");
  EXPECT_EQ(obj->call("go", {}).as_int(), 25);  // 1+3+5+7+9
}

TEST(Loops, ContinueRunsForUpdate) {
  // A `continue` inside a for must still execute the update clause (no
  // infinite loop).
  auto obj = one_method(
      "var n = 0; for (var i = 0; i < 4; i = i + 1) { continue; } "
      "return n;");
  EXPECT_EQ(obj->call("go", {}).as_int(), 0);
}

TEST(Loops, NestedLoopsBreakInnerOnly) {
  auto obj = one_method(
      "var acc = 0; for (var i = 0; i < 3; i = i + 1) { "
      "  for (var j = 0; j < 10; j = j + 1) { "
      "    if (j == 2) { break; } acc = acc + 1; } } return acc;");
  EXPECT_EQ(obj->call("go", {}).as_int(), 6);
}

TEST(Loops, ReturnInsideForPropagates) {
  auto obj = one_method(
      "for (var i = 0; i < 100; i = i + 1) { if (i == 7) { return i; } } "
      "return 0 - 1;");
  EXPECT_EQ(obj->call("go", {}).as_int(), 7);
}

TEST(Loops, BreakOutsideLoopIsAnError) {
  auto obj = one_method("break;");
  EXPECT_THROW(obj->call("go", {}), EvalError);
}

TEST(Loops, ForParseErrors) {
  EXPECT_FALSE(parse_block_source("for (var i = 0 i < 3; ) { }").ok());
  EXPECT_FALSE(parse_block_source("for (;;) i;").ok());
  EXPECT_FALSE(parse_block_source("break").ok());  // missing ';'
}

TEST(Interp, StandaloneUnknownFunctionThrows) {
  EXPECT_THROW(eval_both("nosuchfn(1)"), EvalError);
}

TEST(Interp, BuiltinNamesNonEmptyAndContainCore) {
  const auto& names = builtin_names();
  EXPECT_FALSE(names.empty());
  EXPECT_NE(std::find(names.begin(), names.end(), "len"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "push"), names.end());
}

}  // namespace
}  // namespace psf::minilang
