#include "support/minilang_oracle.hpp"

#include "minilang/builtins.hpp"
#include "minilang/parser.hpp"

namespace psf::minilang::oracle {

namespace {

struct ExecResult {
  enum class Flow { kNormal, kReturn, kBreak, kContinue };
  Flow flow = Flow::kNormal;
  Value value;
};

class Frame {
 public:
  explicit Frame(std::shared_ptr<Instance> self) : self_(std::move(self)) {}

  bool has_local(const std::string& name) const {
    return locals_.count(name) > 0;
  }
  Value get_local(const std::string& name) const { return locals_.at(name); }
  void set_local(const std::string& name, Value v) {
    locals_[name] = std::move(v);
  }
  void declare_local(const std::string& name, Value v) {
    locals_[name] = std::move(v);
  }

  Instance* self() const { return self_.get(); }
  std::shared_ptr<Instance> self_ptr() const { return self_; }

 private:
  std::shared_ptr<Instance> self_;  // may be null (standalone evaluation)
  ValueMap locals_;
};

class Engine {
 public:
  explicit Engine(InterpOptions options) : options_(options) {}

  Value invoke(const std::shared_ptr<Instance>& self,
               const std::string& method_name, std::vector<Value> args,
               bool external) {
    const ClassRegistry& registry = self->registry();
    const MethodDef* method = registry.resolve_method(self->cls(), method_name);
    if (method == nullptr) {
      throw EvalError("no method '" + method_name + "' on " +
                      self->cls().name);
    }
    if (external && method->visibility == Visibility::kPrivate) {
      throw EvalError("method '" + method_name + "' on " + self->cls().name +
                      " is private");
    }
    return invoke_resolved(self, *method, std::move(args));
  }

  Value invoke_resolved(const std::shared_ptr<Instance>& self,
                        const MethodDef& method, std::vector<Value> args) {
    if (++depth_ > options_.max_depth) {
      --depth_;
      throw EvalError("call depth limit exceeded in " + method.name);
    }
    struct DepthGuard {
      std::size_t& d;
      ~DepthGuard() { --d; }
    } guard{depth_};

    if (args.size() != method.params.size()) {
      throw EvalError("method '" + method.name + "' expects " +
                      std::to_string(method.params.size()) + " args, got " +
                      std::to_string(args.size()));
    }

    // Cache-coherence hooks injected by VIG (paper §4.3: every view method
    // works against the freshest image).
    if (method.coherence_wrapped && self->hooks() != nullptr) {
      self->hooks()->before_method(*self, method);
    }
    Value result;
    try {
      if (method.is_native) {
        result = method.native(*self, std::move(args));
      } else {
        Frame frame(self);
        for (std::size_t i = 0; i < args.size(); ++i) {
          frame.declare_local(method.params[i], std::move(args[i]));
        }
        ExecResult r = exec_block(method.body, frame);
        if (r.flow == ExecResult::Flow::kBreak ||
            r.flow == ExecResult::Flow::kContinue) {
          throw EvalError("'break'/'continue' outside a loop in " +
                          method.name);
        }
        result = r.flow == ExecResult::Flow::kReturn ? r.value : Value::null();
      }
    } catch (...) {
      if (method.coherence_wrapped && self->hooks() != nullptr) {
        self->hooks()->after_method(*self, method);
      }
      throw;
    }
    if (method.coherence_wrapped && self->hooks() != nullptr) {
      self->hooks()->after_method(*self, method);
    }
    return result;
  }

  Value eval_in_empty_frame(const Expr& e) {
    Frame frame(nullptr);
    return eval(e, frame);
  }

 private:
  void tick() {
    if (++steps_ > options_.max_steps) {
      throw EvalError("step limit exceeded");
    }
  }

  ExecResult exec_block(const std::vector<StmtPtr>& block, Frame& frame) {
    for (const auto& stmt : block) {
      ExecResult r = exec(*stmt, frame);
      if (r.flow != ExecResult::Flow::kNormal) return r;
    }
    return {};
  }

  ExecResult exec(const Stmt& s, Frame& frame) {
    tick();
    switch (s.kind) {
      case StmtKind::kVarDecl:
        frame.declare_local(s.name, eval(*s.expr, frame));
        return {};
      case StmtKind::kAssign:
        assign(*s.target, eval(*s.expr, frame), frame);
        return {};
      case StmtKind::kExpr:
        eval(*s.expr, frame);
        return {};
      case StmtKind::kIf:
        if (eval(*s.expr, frame).truthy()) {
          return exec_block(s.body, frame);
        }
        return exec_block(s.else_body, frame);
      case StmtKind::kWhile:
        while (eval(*s.expr, frame).truthy()) {
          tick();
          ExecResult r = exec_block(s.body, frame);
          if (r.flow == ExecResult::Flow::kReturn) return r;
          if (r.flow == ExecResult::Flow::kBreak) break;
          // kContinue / kNormal: next iteration.
        }
        return {};
      case StmtKind::kFor: {
        if (s.init) {
          ExecResult r = exec(*s.init, frame);
          if (r.flow != ExecResult::Flow::kNormal) return r;
        }
        while (s.expr == nullptr || eval(*s.expr, frame).truthy()) {
          tick();
          ExecResult r = exec_block(s.body, frame);
          if (r.flow == ExecResult::Flow::kReturn) return r;
          if (r.flow == ExecResult::Flow::kBreak) break;
          if (s.update) {
            ExecResult u = exec(*s.update, frame);
            if (u.flow != ExecResult::Flow::kNormal) return u;
          }
        }
        return {};
      }
      case StmtKind::kBreak: {
        ExecResult r;
        r.flow = ExecResult::Flow::kBreak;
        return r;
      }
      case StmtKind::kContinue: {
        ExecResult r;
        r.flow = ExecResult::Flow::kContinue;
        return r;
      }
      case StmtKind::kReturn: {
        ExecResult r;
        r.flow = ExecResult::Flow::kReturn;
        if (s.expr) r.value = eval(*s.expr, frame);
        return r;
      }
      case StmtKind::kBlock:
        return exec_block(s.body, frame);
    }
    throw EvalError("unknown statement kind");
  }

  void assign(const Expr& target, Value value, Frame& frame) {
    switch (target.kind) {
      case ExprKind::kIdent: {
        if (frame.has_local(target.name)) {
          frame.set_local(target.name, std::move(value));
          return;
        }
        Instance* self = frame.self();
        if (self != nullptr && self->has_field(target.name)) {
          self->set_field(target.name, std::move(value));
          return;
        }
        throw EvalError("line " + std::to_string(target.line) +
                        ": assignment to undefined variable '" + target.name +
                        "'");
      }
      case ExprKind::kMemberGet: {
        Value object = eval(*target.children[0], frame);
        if (object.is_map()) {
          (*object.as_map())[target.name] = std::move(value);
          return;
        }
        if (object.is_object()) {
          auto instance =
              std::dynamic_pointer_cast<Instance>(object.as_object());
          if (instance != nullptr) {
            instance->set_field(target.name, std::move(value));
            return;
          }
          throw EvalError("cannot set field on remote reference");
        }
        throw EvalError("cannot set member on " + object.type_name());
      }
      case ExprKind::kIndex: {
        Value object = eval(*target.children[0], frame);
        Value key = eval(*target.children[1], frame);
        if (object.is_list()) {
          auto& list = *object.as_list();
          const std::int64_t i = key.as_int();
          if (i < 0 || static_cast<std::size_t>(i) >= list.size()) {
            throw EvalError("list index out of range");
          }
          list[static_cast<std::size_t>(i)] = std::move(value);
          return;
        }
        if (object.is_map()) {
          (*object.as_map())[key.as_string()] = std::move(value);
          return;
        }
        throw EvalError("cannot index-assign " + object.type_name());
      }
      default:
        throw EvalError("invalid assignment target");
    }
  }

  Value eval(const Expr& e, Frame& frame) {
    tick();
    switch (e.kind) {
      case ExprKind::kNull: return Value::null();
      case ExprKind::kBool: return Value::boolean(e.bool_value);
      case ExprKind::kInt: return Value::integer(e.int_value);
      case ExprKind::kString: return Value::string(e.string_value);
      case ExprKind::kIdent: return resolve_ident(e, frame);
      case ExprKind::kUnary: {
        Value v = eval(*e.children[0], frame);
        if (e.name == "!") return Value::boolean(!v.truthy());
        if (e.name == "-") return Value::integer(-v.as_int());
        throw EvalError("unknown unary operator " + e.name);
      }
      case ExprKind::kBinary: return eval_binary(e, frame);
      case ExprKind::kCall: return eval_call(e, frame);
      case ExprKind::kMemberCall: {
        Value object = eval(*e.children[0], frame);
        std::vector<Value> args;
        for (std::size_t i = 1; i < e.children.size(); ++i) {
          args.push_back(eval(*e.children[i], frame));
        }
        if (object.is_object()) {
          // Calls on `this` stay internal (private methods allowed).
          auto instance = std::dynamic_pointer_cast<Instance>(object.as_object());
          if (instance != nullptr && instance.get() == frame.self()) {
            return invoke(instance, e.name, std::move(args), /*external=*/false);
          }
          return object.as_object()->call(e.name, std::move(args));
        }
        throw EvalError("line " + std::to_string(e.line) + ": cannot call '" +
                        e.name + "' on " + object.type_name());
      }
      case ExprKind::kMemberGet: {
        Value object = eval(*e.children[0], frame);
        if (object.is_map()) {
          auto it = object.as_map()->find(e.name);
          return it == object.as_map()->end() ? Value::null() : it->second;
        }
        if (object.is_object()) {
          auto instance = std::dynamic_pointer_cast<Instance>(object.as_object());
          if (instance != nullptr) return instance->get_field(e.name);
          throw EvalError("cannot read field through remote reference");
        }
        throw EvalError("cannot read member of " + object.type_name());
      }
      case ExprKind::kIndex: {
        Value object = eval(*e.children[0], frame);
        Value key = eval(*e.children[1], frame);
        if (object.is_list()) {
          const auto& list = *object.as_list();
          const std::int64_t i = key.as_int();
          if (i < 0 || static_cast<std::size_t>(i) >= list.size()) {
            throw EvalError("list index out of range");
          }
          return list[static_cast<std::size_t>(i)];
        }
        if (object.is_map()) {
          auto it = object.as_map()->find(key.as_string());
          return it == object.as_map()->end() ? Value::null() : it->second;
        }
        if (object.is_string()) {
          const auto& s = object.as_string();
          const std::int64_t i = key.as_int();
          if (i < 0 || static_cast<std::size_t>(i) >= s.size()) {
            throw EvalError("string index out of range");
          }
          return Value::string(std::string(1, s[static_cast<std::size_t>(i)]));
        }
        throw EvalError("cannot index " + object.type_name());
      }
    }
    throw EvalError("unknown expression kind");
  }

  Value resolve_ident(const Expr& e, Frame& frame) {
    if (e.name == "this") {
      if (frame.self() == nullptr) throw EvalError("'this' outside a method");
      return Value::object(frame.self_ptr());
    }
    if (frame.has_local(e.name)) return frame.get_local(e.name);
    if (frame.self() != nullptr && frame.self()->has_field(e.name)) {
      return frame.self()->get_field(e.name);
    }
    throw EvalError("line " + std::to_string(e.line) +
                    ": undefined variable '" + e.name + "'");
  }

  Value eval_binary(const Expr& e, Frame& frame) {
    const std::string& op = e.name;
    // Short-circuit logical operators.
    if (op == "&&") {
      Value lhs = eval(*e.children[0], frame);
      if (!lhs.truthy()) return Value::boolean(false);
      return Value::boolean(eval(*e.children[1], frame).truthy());
    }
    if (op == "||") {
      Value lhs = eval(*e.children[0], frame);
      if (lhs.truthy()) return Value::boolean(true);
      return Value::boolean(eval(*e.children[1], frame).truthy());
    }

    Value lhs = eval(*e.children[0], frame);
    Value rhs = eval(*e.children[1], frame);

    if (op == "==") return Value::boolean(lhs.equals(rhs));
    if (op == "!=") return Value::boolean(!lhs.equals(rhs));

    if (op == "+") {
      if (lhs.is_string() || rhs.is_string()) {
        return Value::string(lhs.to_display_string() + rhs.to_display_string());
      }
      if (lhs.is_list() && rhs.is_list()) {
        ValueList out = *lhs.as_list();
        out.insert(out.end(), rhs.as_list()->begin(), rhs.as_list()->end());
        return Value::list(std::move(out));
      }
      if (lhs.is_bytes() && rhs.is_bytes()) {
        util::Bytes out = lhs.as_bytes();
        util::append(out, rhs.as_bytes());
        return Value::bytes(std::move(out));
      }
      return Value::integer(lhs.as_int() + rhs.as_int());
    }
    if (op == "-") return Value::integer(lhs.as_int() - rhs.as_int());
    if (op == "*") return Value::integer(lhs.as_int() * rhs.as_int());
    if (op == "/") {
      if (rhs.as_int() == 0) throw EvalError("division by zero");
      return Value::integer(lhs.as_int() / rhs.as_int());
    }
    if (op == "%") {
      if (rhs.as_int() == 0) throw EvalError("modulo by zero");
      return Value::integer(lhs.as_int() % rhs.as_int());
    }

    // Ordering: ints or strings.
    auto cmp = [&]() -> int {
      if (lhs.is_string() && rhs.is_string()) {
        return lhs.as_string().compare(rhs.as_string());
      }
      const std::int64_t a = lhs.as_int();
      const std::int64_t b = rhs.as_int();
      return a < b ? -1 : (a > b ? 1 : 0);
    };
    if (op == "<") return Value::boolean(cmp() < 0);
    if (op == "<=") return Value::boolean(cmp() <= 0);
    if (op == ">") return Value::boolean(cmp() > 0);
    if (op == ">=") return Value::boolean(cmp() >= 0);

    throw EvalError("unknown binary operator " + op);
  }

  Value eval_call(const Expr& e, Frame& frame) {
    std::vector<Value> args;
    args.reserve(e.children.size());
    for (const auto& child : e.children) args.push_back(eval(*child, frame));

    // Builtins first; they are not overridable (matching java.lang statics).
    // Dispatch through the table the VM uses (builtins.hpp), so builtin
    // semantics are shared and only the evaluator itself is under test.
    const int builtin = builtin_index(e.name);
    if (builtin >= 0) return call_builtin(builtin, args);

    if (frame.self() != nullptr) {
      return invoke(frame.self_ptr(), e.name, std::move(args),
                    /*external=*/false);
    }
    throw EvalError("line " + std::to_string(e.line) + ": unknown function '" +
                    e.name + "'");
  }

  InterpOptions options_;
  std::size_t steps_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

std::shared_ptr<Instance> instantiate(const ClassRegistry& registry,
                                      const std::string& class_name,
                                      std::vector<Value> args,
                                      InterpOptions options) {
  auto cls = registry.find_class(class_name);
  if (cls == nullptr) throw EvalError("unknown class " + class_name);
  auto instance = std::make_shared<Instance>(cls, &registry);
  if (registry.resolve_method(*cls, "constructor") != nullptr) {
    Engine engine(options);
    engine.invoke(instance, "constructor", std::move(args),
                  /*external=*/false);
  }
  return instance;
}

Value invoke_method(const std::shared_ptr<Instance>& self,
                    const std::string& method, std::vector<Value> args,
                    bool external, InterpOptions options) {
  Engine engine(options);
  return engine.invoke(self, method, std::move(args), external);
}

Value eval_standalone(const std::string& source, InterpOptions options) {
  auto expr = parse_expression_source(source);
  if (!expr.ok()) throw EvalError(expr.error().message);
  Engine engine(options);
  return engine.eval_in_empty_frame(*expr.value());
}

}  // namespace psf::minilang::oracle
