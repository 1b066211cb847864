#include "minilang/compile.hpp"

#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "minilang/builtins.hpp"
#include "obs/metrics.hpp"

namespace psf::minilang {

namespace {

// Register, name-pool and method-pool indices are 16-bit instruction
// operands; a body needing more cannot be encoded.
constexpr std::size_t kMaxOperand = 0xFFFF;

// How an identifier resolves inside the method being compiled. MiniLang
// locals are *dynamic* — `var x` makes `x` local only once
// the statement executes; before that the name falls through to a self
// field or an undefined-variable error. The compiler keeps that behavior
// with per-slot defined bits and four access flavors:
//   params               -> plain registers (defined from entry)
//   var-only names       -> checked slots (throw until kDeclareLocal runs)
//   var-and-field names  -> checked slots falling through to the field
//   field-only names     -> direct slot-resolved field access
struct Local {
  std::uint16_t reg = 0;
  bool always_defined = false;  // parameter (or var shadowing a parameter)
  bool also_field = false;
  std::int32_t field_slot = -1;
};

class Compiler {
 public:
  Compiler(const ClassRegistry& registry, const ClassDef& cls,
           const MethodDef& method)
      : registry_(registry), cls_(cls), method_(method) {}

  std::shared_ptr<const CompiledMethod> run() {
    out_ = std::make_shared<CompiledMethod>();
    out_->method_name = method_.name;
    out_->self_class = &cls_;

    // Field slots: sorted unique names across the inheritance chain — the
    // exact iteration order of Instance::fields_ (a std::map keyed by name),
    // which is what Instance's slot table is built from.
    std::set<std::string> field_names;
    for (const FieldDef* f : registry_.all_fields(cls_)) {
      field_names.insert(f->name);
    }
    std::int32_t slot = 0;
    for (const auto& name : field_names) field_slots_[name] = slot++;

    // A repeated parameter name binds to its last occurrence, as the
    // oracle's in-order declaration does; earlier registers stay unnamed.
    for (const auto& p : method_.params) {
      Local l;
      l.reg = next_local_reg();
      l.always_defined = true;
      locals_[p] = l;
      out_->local_names.push_back(p);
    }
    out_->num_params = static_cast<std::uint32_t>(method_.params.size());
    collect_vars(method_.body);
    out_->num_locals = static_cast<std::uint32_t>(out_->local_names.size());

    temp_top_ = out_->num_locals;
    high_water_ = temp_top_;

    compile_block(method_.body);
    emit(Op::kReturnNull, 0, 0, 0, 0, 0);

    out_->num_registers = high_water_;
    allocate_inline_caches();
    return out_;
  }

 private:
  [[noreturn]] void fail(const std::string& reason) const {
    throw CompileError("cannot compile method '" + method_.name + "' on " +
                       cls_.name + ": " + reason);
  }

  // One monomorphic inline-cache slot per member-call site; the VM fills
  // them on first dispatch and VIG seeds them from deployment facts.
  void allocate_inline_caches() {
    std::uint32_t caches = 0;
    for (Insn& insn : out_->code) {
      if (insn.op != Op::kCallMember) continue;
      if (caches >= kMaxOperand) fail("too many member-call sites");
      insn.d = static_cast<std::uint16_t>(++caches);
    }
    if (caches > 0) {
      out_->caches = std::make_unique<InlineCache[]>(caches);
      out_->num_caches = caches;
    }
  }

  // --- local discovery -----------------------------------------------------

  void collect_vars(const std::vector<StmtPtr>& block) {
    for (const auto& s : block) collect_vars_stmt(*s);
  }

  void collect_vars_stmt(const Stmt& s) {
    // `var this` gets a slot like any local: reads of `this` always load
    // self (ident_into), so the slot is only ever declared and assigned.
    if (s.kind == StmtKind::kVarDecl) {
      if (locals_.count(s.name) == 0) {
        Local l;
        l.reg = next_local_reg();
        auto field = field_slots_.find(s.name);
        if (field != field_slots_.end()) {
          l.also_field = true;
          l.field_slot = field->second;
        }
        locals_[s.name] = l;
        out_->local_names.push_back(s.name);
      }
    }
    if (s.init) collect_vars_stmt(*s.init);
    if (s.update) collect_vars_stmt(*s.update);
    collect_vars(s.body);
    collect_vars(s.else_body);
  }

  std::uint16_t next_local_reg() {
    const std::size_t reg = out_->local_names.size();
    if (reg >= kMaxOperand) fail("too many locals");
    return static_cast<std::uint16_t>(reg);
  }

  // --- emission ------------------------------------------------------------

  std::size_t emit(Op op, std::uint16_t a, std::uint16_t b, std::uint16_t c,
                   std::int32_t imm, std::size_t line) {
    Insn insn;
    insn.op = op;
    insn.a = a;
    insn.b = b;
    insn.c = c;
    insn.imm = imm;
    insn.line = static_cast<std::uint32_t>(line);
    out_->code.push_back(insn);
    return out_->code.size() - 1;
  }

  void patch(std::size_t jump, std::size_t target) {
    out_->code[jump].imm = static_cast<std::int32_t>(target);
  }

  std::size_t here() const { return out_->code.size(); }

  std::uint16_t alloc_temp() {
    if (temp_top_ >= kMaxOperand) fail("register overflow");
    const std::uint16_t reg = static_cast<std::uint16_t>(temp_top_++);
    if (temp_top_ > high_water_) high_water_ = temp_top_;
    return reg;
  }

  std::uint16_t add_name(const std::string& name) {
    auto it = name_index_.find(name);
    if (it != name_index_.end()) return it->second;
    if (out_->names.size() >= kMaxOperand) fail("name pool overflow");
    const auto idx = static_cast<std::uint16_t>(out_->names.size());
    out_->names.push_back(name);
    name_index_[name] = idx;
    return idx;
  }

  std::int32_t add_const(const Value& v) {
    for (std::size_t i = 0; i < out_->constants.size(); ++i) {
      const Value& c = out_->constants[i];
      // equals() is structural across types (1 == true is false, but guard
      // with type_name anyway so the pool never aliases distinct types).
      if (c.type_name() == v.type_name() && c.equals(v)) {
        return static_cast<std::int32_t>(i);
      }
    }
    out_->constants.push_back(v);
    return static_cast<std::int32_t>(out_->constants.size() - 1);
  }

  std::uint16_t add_self_method(const MethodDef* m) {
    for (std::size_t i = 0; i < out_->self_methods.size(); ++i) {
      if (out_->self_methods[i] == m) return static_cast<std::uint16_t>(i);
    }
    if (out_->self_methods.size() >= kMaxOperand) {
      fail("method pool overflow");
    }
    out_->self_methods.push_back(m);
    return static_cast<std::uint16_t>(out_->self_methods.size() - 1);
  }

  void emit_const(const Value& v, std::uint16_t dst, std::size_t line) {
    if (v.is_null()) {
      emit(Op::kLoadNull, dst, 0, 0, 0, line);
    } else {
      emit(Op::kLoadConst, dst, 0, 0, add_const(v), line);
    }
  }

  void emit_throw(const std::string& message, std::size_t line) {
    emit(Op::kThrow, 0, add_name(message), 0, 0, line);
  }

  // --- constant folding ----------------------------------------------------

  static bool add_overflows(std::int64_t a, std::int64_t b) {
    std::int64_t r = 0;
    return __builtin_add_overflow(a, b, &r);
  }
  static bool sub_overflows(std::int64_t a, std::int64_t b) {
    std::int64_t r = 0;
    return __builtin_sub_overflow(a, b, &r);
  }
  static bool mul_overflows(std::int64_t a, std::int64_t b) {
    std::int64_t r = 0;
    return __builtin_mul_overflow(a, b, &r);
  }

  /// Evaluate `e` at compile time when that provably matches what running
  /// it would produce: literal leaves, pure operators, no
  /// chance of an error (division by zero and overflow stay runtime ops).
  std::optional<Value> fold(const Expr& e) {  // NOLINT(misc-no-recursion)
    switch (e.kind) {
      case ExprKind::kNull: return Value::null();
      case ExprKind::kBool: return Value::boolean(e.bool_value);
      case ExprKind::kInt: return Value::integer(e.int_value);
      case ExprKind::kString: return Value::string(e.string_value);
      case ExprKind::kUnary: {
        auto v = fold(*e.children[0]);
        if (!v) return std::nullopt;
        if (e.name == "!") return Value::boolean(!v->truthy());
        if (e.name == "-" && v->is_int() &&
            v->as_int() != std::numeric_limits<std::int64_t>::min()) {
          return Value::integer(-v->as_int());
        }
        return std::nullopt;
      }
      case ExprKind::kBinary: return fold_binary(e);
      default: return std::nullopt;
    }
  }

  std::optional<Value> fold_binary(const Expr& e) {  // NOLINT(misc-no-recursion)
    const std::string& op = e.name;
    if (op == "&&" || op == "||") {
      auto lhs = fold(*e.children[0]);
      if (!lhs) return std::nullopt;
      const bool lt = lhs->truthy();
      // Short-circuit: when the lhs decides, the rhs never runs at run time
      // either, so folding is safe regardless of what the rhs contains.
      if (op == "&&" && !lt) return Value::boolean(false);
      if (op == "||" && lt) return Value::boolean(true);
      auto rhs = fold(*e.children[1]);
      if (!rhs) return std::nullopt;
      return Value::boolean(rhs->truthy());
    }
    auto lhs = fold(*e.children[0]);
    if (!lhs) return std::nullopt;
    auto rhs = fold(*e.children[1]);
    if (!rhs) return std::nullopt;
    if (op == "==") return Value::boolean(lhs->equals(*rhs));
    if (op == "!=") return Value::boolean(!lhs->equals(*rhs));
    if (op == "+") {
      if (lhs->is_string() || rhs->is_string()) {
        return Value::string(lhs->to_display_string() +
                             rhs->to_display_string());
      }
      if (lhs->is_int() && rhs->is_int() &&
          !add_overflows(lhs->as_int(), rhs->as_int())) {
        return Value::integer(lhs->as_int() + rhs->as_int());
      }
      return std::nullopt;
    }
    if (!lhs->is_int() || !rhs->is_int()) {
      if ((op == "<" || op == "<=" || op == ">" || op == ">=") &&
          lhs->is_string() && rhs->is_string()) {
        const int c = lhs->as_string().compare(rhs->as_string());
        if (op == "<") return Value::boolean(c < 0);
        if (op == "<=") return Value::boolean(c <= 0);
        if (op == ">") return Value::boolean(c > 0);
        return Value::boolean(c >= 0);
      }
      return std::nullopt;
    }
    const std::int64_t a = lhs->as_int();
    const std::int64_t b = rhs->as_int();
    if (op == "-" && !sub_overflows(a, b)) return Value::integer(a - b);
    if (op == "*" && !mul_overflows(a, b)) return Value::integer(a * b);
    if (op == "/" && b != 0 && !(a == std::numeric_limits<std::int64_t>::min() && b == -1)) {
      return Value::integer(a / b);
    }
    if (op == "%" && b != 0 && !(a == std::numeric_limits<std::int64_t>::min() && b == -1)) {
      return Value::integer(a % b);
    }
    if (op == "<") return Value::boolean(a < b);
    if (op == "<=") return Value::boolean(a <= b);
    if (op == ">") return Value::boolean(a > b);
    if (op == ">=") return Value::boolean(a >= b);
    return std::nullopt;
  }

  // --- expressions ---------------------------------------------------------

  /// Compile `e` and return the register holding its value. Plain
  /// always-defined locals are returned in place (no copy); locals cannot
  /// change mid-expression because MiniLang has no assignment expressions
  /// and nested calls run in their own frames.
  std::uint16_t expr_value(const Expr& e) {  // NOLINT(misc-no-recursion)
    if (e.kind == ExprKind::kIdent && e.name != "this") {
      auto it = locals_.find(e.name);
      if (it != locals_.end() && it->second.always_defined) {
        return it->second.reg;
      }
    }
    const std::uint16_t dst = alloc_temp();
    expr_into(e, dst);
    return dst;
  }

  void expr_into(const Expr& e, std::uint16_t dst) {  // NOLINT(misc-no-recursion)
    const std::size_t saved = temp_top_;
    if (auto v = fold(e)) {
      emit_const(*v, dst, e.line);
      temp_top_ = saved;
      return;
    }
    switch (e.kind) {
      case ExprKind::kNull:
      case ExprKind::kBool:
      case ExprKind::kInt:
      case ExprKind::kString:
        break;  // handled by fold() above
      case ExprKind::kIdent:
        ident_into(e, dst);
        break;
      case ExprKind::kUnary: {
        const std::uint16_t v = expr_value(*e.children[0]);
        if (e.name == "-") {
          emit(Op::kNeg, dst, v, 0, 0, e.line);
        } else if (e.name == "!") {
          emit(Op::kNot, dst, v, 0, 0, e.line);
        } else {
          fail("unknown unary operator " + e.name);
        }
        break;
      }
      case ExprKind::kBinary:
        binary_into(e, dst);
        break;
      case ExprKind::kCall:
        call_into(e, dst);
        break;
      case ExprKind::kMemberCall: {
        const std::uint16_t base = alloc_temp();
        expr_into(*e.children[0], base);
        for (std::size_t i = 1; i < e.children.size(); ++i) {
          const std::uint16_t arg = alloc_temp();
          expr_into(*e.children[i], arg);
        }
        emit(Op::kCallMember, dst, add_name(e.name), base,
             static_cast<std::int32_t>(e.children.size() - 1), e.line);
        break;
      }
      case ExprKind::kMemberGet: {
        const std::uint16_t obj = expr_value(*e.children[0]);
        emit(Op::kMemberGet, dst, add_name(e.name), obj, 0, e.line);
        break;
      }
      case ExprKind::kIndex: {
        const std::uint16_t obj = expr_value(*e.children[0]);
        const std::uint16_t key = expr_value(*e.children[1]);
        emit(Op::kIndexGet, dst, obj, key, 0, e.line);
        break;
      }
    }
    temp_top_ = saved;
  }

  void ident_into(const Expr& e, std::uint16_t dst) {
    if (e.name == "this") {
      emit(Op::kLoadThis, dst, 0, 0, 0, e.line);
      return;
    }
    auto local = locals_.find(e.name);
    if (local != locals_.end()) {
      const Local& l = local->second;
      if (l.always_defined) {
        if (dst != l.reg) emit(Op::kMove, dst, l.reg, 0, 0, e.line);
      } else if (l.also_field) {
        emit(Op::kLoadLocalOrField, dst, l.reg, add_name(e.name),
             l.field_slot, e.line);
      } else {
        emit(Op::kLoadChecked, dst, l.reg, add_name(e.name), 0, e.line);
      }
      return;
    }
    auto field = field_slots_.find(e.name);
    if (field != field_slots_.end()) {
      emit(Op::kLoadField, dst, add_name(e.name), 0, field->second, e.line);
      return;
    }
    emit_throw("line " + std::to_string(e.line) + ": undefined variable '" +
                   e.name + "'",
               e.line);
  }

  void binary_into(const Expr& e, std::uint16_t dst) {  // NOLINT(misc-no-recursion)
    const std::string& op = e.name;
    if (op == "&&" || op == "||") {
      const std::size_t saved = temp_top_;
      const std::uint16_t lhs = expr_value(*e.children[0]);
      const std::size_t decide = emit(
          op == "&&" ? Op::kJumpIfFalse : Op::kJumpIfTrue, lhs, 0, 0, 0,
          e.line);
      temp_top_ = saved;
      const std::uint16_t rhs = expr_value(*e.children[1]);
      emit(Op::kBool, dst, rhs, 0, 0, e.line);
      temp_top_ = saved;
      const std::size_t done = emit(Op::kJump, 0, 0, 0, 0, e.line);
      patch(decide, here());
      emit_const(Value::boolean(op == "||"), dst, e.line);
      patch(done, here());
      return;
    }
    static const std::map<std::string, Op> kOps = {
        {"+", Op::kAdd}, {"-", Op::kSub}, {"*", Op::kMul}, {"/", Op::kDiv},
        {"%", Op::kMod}, {"==", Op::kEq}, {"!=", Op::kNe}, {"<", Op::kLt},
        {"<=", Op::kLe}, {">", Op::kGt},  {">=", Op::kGe},
    };
    auto it = kOps.find(op);
    if (it == kOps.end()) fail("unknown binary operator " + op);
    const std::uint16_t lhs = expr_value(*e.children[0]);
    const std::uint16_t rhs = expr_value(*e.children[1]);
    emit(it->second, dst, lhs, rhs, 0, e.line);
  }

  void call_into(const Expr& e, std::uint16_t dst) {  // NOLINT(misc-no-recursion)
    const std::uint16_t base =
        e.children.empty() ? static_cast<std::uint16_t>(temp_top_)
                           : alloc_temp();
    for (std::size_t i = 0; i < e.children.size(); ++i) {
      const std::uint16_t arg = i == 0 ? base : alloc_temp();
      expr_into(*e.children[i], arg);
    }
    const auto nargs = static_cast<std::int32_t>(e.children.size());
    const int builtin = builtin_index(e.name);
    if (builtin >= 0) {
      emit(Op::kCallBuiltin, dst, static_cast<std::uint16_t>(builtin), base,
           nargs, e.line);
      return;
    }
    const MethodDef* m = registry_.resolve_method(cls_, e.name);
    if (m != nullptr) {
      emit(Op::kCallSelf, dst, add_self_method(m), base, nargs, e.line);
      return;
    }
    // Arguments are evaluated before the missing method is discovered; keep
    // that order with an inline throw.
    emit_throw("no method '" + e.name + "' on " + cls_.name, e.line);
  }

  // --- statements ----------------------------------------------------------

  struct LoopCtx {
    std::vector<std::size_t> break_jumps;
    std::vector<std::size_t> continue_jumps;
  };

  void compile_block(const std::vector<StmtPtr>& block) {  // NOLINT(misc-no-recursion)
    for (const auto& s : block) compile_stmt(*s);
  }

  void compile_stmt(const Stmt& s) {  // NOLINT(misc-no-recursion)
    const std::size_t saved = temp_top_;
    switch (s.kind) {
      case StmtKind::kVarDecl: {
        const Local& l = locals_.at(s.name);
        expr_into(*s.expr, l.reg);
        if (!l.always_defined) emit(Op::kDeclareLocal, l.reg, 0, 0, 0, s.line);
        break;
      }
      case StmtKind::kAssign:
        compile_assign(s);
        break;
      case StmtKind::kExpr:
        expr_value(*s.expr);
        break;
      case StmtKind::kIf: {
        const std::uint16_t cond = expr_value(*s.expr);
        const std::size_t to_else =
            emit(Op::kJumpIfFalse, cond, 0, 0, 0, s.line);
        temp_top_ = saved;
        compile_block(s.body);
        if (s.else_body.empty()) {
          patch(to_else, here());
        } else {
          const std::size_t to_end = emit(Op::kJump, 0, 0, 0, 0, s.line);
          patch(to_else, here());
          compile_block(s.else_body);
          patch(to_end, here());
        }
        break;
      }
      case StmtKind::kWhile: {
        const std::size_t top = here();
        const std::uint16_t cond = expr_value(*s.expr);
        const std::size_t exit = emit(Op::kJumpIfFalse, cond, 0, 0, 0, s.line);
        temp_top_ = saved;
        loops_.emplace_back();
        compile_block(s.body);
        const LoopCtx ctx = loops_.back();
        loops_.pop_back();
        emit(Op::kJump, 0, 0, 0, static_cast<std::int32_t>(top), s.line);
        patch(exit, here());
        for (const std::size_t j : ctx.break_jumps) patch(j, here());
        for (const std::size_t j : ctx.continue_jumps) patch(j, top);
        break;
      }
      case StmtKind::kFor: {
        // init and update execute in the *enclosing* loop context: a break
        // or continue inside them escapes this loop, as in the oracle.
        if (s.init) compile_stmt(*s.init);
        const std::size_t top = here();
        std::size_t exit = 0;
        bool has_exit = false;
        if (s.expr) {
          const std::uint16_t cond = expr_value(*s.expr);
          exit = emit(Op::kJumpIfFalse, cond, 0, 0, 0, s.line);
          has_exit = true;
          temp_top_ = saved;
        }
        loops_.emplace_back();
        compile_block(s.body);
        const LoopCtx ctx = loops_.back();
        loops_.pop_back();
        const std::size_t update = here();
        if (s.update) compile_stmt(*s.update);
        emit(Op::kJump, 0, 0, 0, static_cast<std::int32_t>(top), s.line);
        if (has_exit) patch(exit, here());
        for (const std::size_t j : ctx.break_jumps) patch(j, here());
        for (const std::size_t j : ctx.continue_jumps) patch(j, update);
        break;
      }
      case StmtKind::kBreak:
      case StmtKind::kContinue: {
        if (loops_.empty()) {
          // Thrown only if the statement actually executes, like the
          // oracle's flow-escape check after a method body.
          emit_throw("'break'/'continue' outside a loop in " + method_.name,
                     s.line);
        } else if (s.kind == StmtKind::kBreak) {
          loops_.back().break_jumps.push_back(
              emit(Op::kJump, 0, 0, 0, 0, s.line));
        } else {
          loops_.back().continue_jumps.push_back(
              emit(Op::kJump, 0, 0, 0, 0, s.line));
        }
        break;
      }
      case StmtKind::kReturn: {
        if (s.expr) {
          const std::uint16_t v = expr_value(*s.expr);
          emit(Op::kReturn, v, 0, 0, 0, s.line);
        } else {
          emit(Op::kReturnNull, 0, 0, 0, 0, s.line);
        }
        break;
      }
      case StmtKind::kBlock:
        compile_block(s.body);
        break;
    }
    temp_top_ = saved;
  }

  void compile_assign(const Stmt& s) {  // NOLINT(misc-no-recursion)
    const Expr& target = *s.target;
    switch (target.kind) {
      case ExprKind::kIdent: {
        auto local = locals_.find(target.name);
        if (local != locals_.end()) {
          const Local& l = local->second;
          if (l.always_defined) {
            expr_into(*s.expr, l.reg);
          } else if (l.also_field) {
            const std::uint16_t v = expr_value(*s.expr);
            emit(Op::kStoreLocalOrField, l.reg, v, 0, l.field_slot,
                 target.line);
          } else {
            const std::uint16_t v = expr_value(*s.expr);
            emit(Op::kStoreChecked, l.reg, v, add_name(target.name), 0,
                 target.line);
          }
          return;
        }
        auto field = field_slots_.find(target.name);
        if (field != field_slots_.end()) {
          const std::uint16_t v = expr_value(*s.expr);
          emit(Op::kStoreField, v, add_name(target.name), 0, field->second,
               target.line);
          return;
        }
        // RHS runs before the error, like the oracle.
        expr_value(*s.expr);
        emit_throw("line " + std::to_string(target.line) +
                       ": assignment to undefined variable '" + target.name +
                       "'",
                   target.line);
        return;
      }
      case ExprKind::kMemberGet: {
        const std::uint16_t v = expr_value(*s.expr);
        const std::uint16_t obj = expr_value(*target.children[0]);
        emit(Op::kMemberSet, obj, add_name(target.name), v, 0, target.line);
        return;
      }
      case ExprKind::kIndex: {
        const std::uint16_t v = expr_value(*s.expr);
        const std::uint16_t obj = expr_value(*target.children[0]);
        const std::uint16_t key = expr_value(*target.children[1]);
        emit(Op::kIndexSet, obj, key, v, 0, target.line);
        return;
      }
      default:
        expr_value(*s.expr);
        emit_throw("invalid assignment target", target.line);
        return;
    }
  }

  const ClassRegistry& registry_;
  const ClassDef& cls_;
  const MethodDef& method_;

  std::shared_ptr<CompiledMethod> out_;
  std::map<std::string, Local> locals_;
  std::map<std::string, std::int32_t> field_slots_;
  std::map<std::string, std::uint16_t> name_index_;
  std::vector<LoopCtx> loops_;
  std::size_t temp_top_ = 0;
  std::uint32_t high_water_ = 0;
};

}  // namespace

const CompiledMethod& ensure_compiled(const ClassRegistry& registry,
                                      const ClassDef& cls,
                                      const MethodDef& method) {
  CompiledSlot* slot = method.compiled.get();
  if (slot == nullptr || method.is_native) {
    throw EvalError("method '" + method.name + "' on " + cls.name +
                    " has no bytecode (native, or class never registered)");
  }
  if (slot->ready.load(std::memory_order_acquire) &&
      slot->code->self_class == &cls) {
    return *slot->code;
  }

  const std::lock_guard<std::mutex> lock(slot->mu);
  if (slot->code != nullptr && slot->code->self_class == &cls) {
    return *slot->code;
  }
  for (const auto& code : slot->others) {
    if (code->self_class == &cls) return *code;
  }

  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const CompiledMethod> code =
      Compiler(registry, cls, method).run();
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  obs::histogram("psf.minilang.compile_us").observe(static_cast<double>(us));
  obs::counter("psf.minilang.methods_compiled").inc();
  if (slot->code == nullptr) {
    slot->code = std::move(code);
    slot->ready.store(true, std::memory_order_release);
    return *slot->code;
  }
  slot->others.push_back(std::move(code));
  return *slot->others.back();
}

namespace {

const char* op_name(Op op) {
  switch (op) {
    case Op::kLoadConst: return "load_const";
    case Op::kLoadNull: return "load_null";
    case Op::kLoadThis: return "load_this";
    case Op::kMove: return "move";
    case Op::kDeclareLocal: return "declare_local";
    case Op::kLoadChecked: return "load_checked";
    case Op::kStoreChecked: return "store_checked";
    case Op::kLoadLocalOrField: return "load_local_or_field";
    case Op::kStoreLocalOrField: return "store_local_or_field";
    case Op::kLoadField: return "load_field";
    case Op::kStoreField: return "store_field";
    case Op::kNeg: return "neg";
    case Op::kNot: return "not";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMul: return "mul";
    case Op::kDiv: return "div";
    case Op::kMod: return "mod";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
    case Op::kGt: return "gt";
    case Op::kGe: return "ge";
    case Op::kBool: return "bool";
    case Op::kJump: return "jump";
    case Op::kJumpIfFalse: return "jump_if_false";
    case Op::kJumpIfTrue: return "jump_if_true";
    case Op::kCallBuiltin: return "call_builtin";
    case Op::kCallSelf: return "call_self";
    case Op::kCallMember: return "call_member";
    case Op::kMemberGet: return "member_get";
    case Op::kMemberSet: return "member_set";
    case Op::kIndexGet: return "index_get";
    case Op::kIndexSet: return "index_set";
    case Op::kReturn: return "return";
    case Op::kReturnNull: return "return_null";
    case Op::kThrow: return "throw";
  }
  return "?";
}

}  // namespace

std::string disassemble(const CompiledMethod& m) {
  std::ostringstream out;
  out << "method " << m.method_name << "/" << m.num_params;
  if (m.self_class != nullptr) out << " on " << m.self_class->name;
  out << "  (" << m.num_locals << " locals, " << m.num_registers
      << " registers, " << m.code.size() << " insns)\n";
  for (std::size_t i = 0; i < m.local_names.size(); ++i) {
    out << "  r" << i << " = " << m.local_names[i]
        << (i < m.num_params ? " (param)\n" : " (var)\n");
  }
  for (std::size_t i = 0; i < m.constants.size(); ++i) {
    out << "  const[" << i << "] = " << m.constants[i].to_display_string()
        << "\n";
  }
  for (std::size_t i = 0; i < m.code.size(); ++i) {
    const Insn& insn = m.code[i];
    out << "  ";
    out.width(4);
    out << i;
    out.width(0);
    out << ": " << op_name(insn.op);
    switch (insn.op) {
      case Op::kLoadConst:
        out << " r" << insn.a << ", const[" << insn.imm << "]";
        break;
      case Op::kLoadNull:
      case Op::kLoadThis:
      case Op::kDeclareLocal:
      case Op::kReturn:
        out << " r" << insn.a;
        break;
      case Op::kMove:
      case Op::kNeg:
      case Op::kNot:
      case Op::kBool:
        out << " r" << insn.a << ", r" << insn.b;
        break;
      case Op::kLoadChecked:
        out << " r" << insn.a << ", r" << insn.b << "  ; " << m.names[insn.c];
        break;
      case Op::kStoreChecked:
        out << " r" << insn.a << " <- r" << insn.b << "  ; " << m.names[insn.c];
        break;
      case Op::kLoadLocalOrField:
        out << " r" << insn.a << ", r" << insn.b << "|field[" << insn.imm
            << "]  ; " << m.names[insn.c];
        break;
      case Op::kStoreLocalOrField:
        out << " r" << insn.a << "|field[" << insn.imm << "] <- r" << insn.b;
        break;
      case Op::kLoadField:
        out << " r" << insn.a << ", field[" << insn.imm << "]  ; "
            << m.names[insn.b];
        break;
      case Op::kStoreField:
        out << " field[" << insn.imm << "] <- r" << insn.a << "  ; "
            << m.names[insn.b];
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMul:
      case Op::kDiv:
      case Op::kMod:
      case Op::kEq:
      case Op::kNe:
      case Op::kLt:
      case Op::kLe:
      case Op::kGt:
      case Op::kGe:
        out << " r" << insn.a << ", r" << insn.b << ", r" << insn.c;
        break;
      case Op::kJump:
        out << " -> " << insn.imm;
        break;
      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue:
        out << " r" << insn.a << " -> " << insn.imm;
        break;
      case Op::kCallBuiltin:
        out << " r" << insn.a << " = " << builtin_name(insn.b) << "(r"
            << insn.c << "..+" << insn.imm << ")";
        break;
      case Op::kCallSelf:
        out << " r" << insn.a << " = this."
            << m.self_methods[insn.b]->name << "(r" << insn.c << "..+"
            << insn.imm << ")";
        break;
      case Op::kCallMember:
        out << " r" << insn.a << " = (r" << insn.c << ")." << m.names[insn.b]
            << "(+" << insn.imm << ")";
        break;
      case Op::kMemberGet:
        out << " r" << insn.a << " = (r" << insn.c << ")." << m.names[insn.b];
        break;
      case Op::kMemberSet:
        out << " (r" << insn.a << ")." << m.names[insn.b] << " = r" << insn.c;
        break;
      case Op::kIndexGet:
        out << " r" << insn.a << " = r" << insn.b << "[r" << insn.c << "]";
        break;
      case Op::kIndexSet:
        out << " r" << insn.a << "[r" << insn.b << "] = r" << insn.c;
        break;
      case Op::kReturnNull:
        break;
      case Op::kThrow:
        out << " \"" << m.names[insn.b] << "\"";
        break;
    }
    if (insn.op == Op::kCallMember) out << " [ic " << insn.d << "]";
    if (insn.line != 0) out << "  ; line " << insn.line;
    out << "\n";
  }
  return out.str();
}

}  // namespace psf::minilang
