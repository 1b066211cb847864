#include "minilang/vm.hpp"

#include <string>

#include "minilang/builtins.hpp"
#include "obs/metrics.hpp"

// Dispatch strategy: computed goto (a direct threaded jump per instruction,
// no bounds re-check, branch predictors see one indirect branch per opcode
// site) on GCC/Clang, a plain switch loop elsewhere. Define
// PSF_VM_NO_COMPUTED_GOTO to force the portable loop.
#if defined(__GNUC__) && !defined(PSF_VM_NO_COMPUTED_GOTO)
#define PSF_VM_COMPUTED_GOTO 1
#endif

namespace psf::minilang {

namespace {

// The arithmetic/comparison helpers define MiniLang's operator semantics
// (operand evaluation order, error strings, type coercions); the
// tree-walking oracle in tests/support replicates them and
// tests/bytecode_diff_test.cpp pins the equivalence.

Value op_add(const Value& lhs, const Value& rhs) {
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

Value op_div(const Value& lhs, const Value& rhs) {
  if (rhs.as_int() == 0) throw EvalError("division by zero");
  return Value::integer(lhs.as_int() / rhs.as_int());
}

Value op_mod(const Value& lhs, const Value& rhs) {
  if (rhs.as_int() == 0) throw EvalError("modulo by zero");
  return Value::integer(lhs.as_int() % rhs.as_int());
}

int op_cmp(const Value& lhs, const Value& rhs) {
  if (lhs.is_string() && rhs.is_string()) {
    return lhs.as_string().compare(rhs.as_string());
  }
  const std::int64_t a = lhs.as_int();
  const std::int64_t b = rhs.as_int();
  return a < b ? -1 : (a > b ? 1 : 0);
}

Value member_get(const Value& object, const std::string& name) {
  if (object.is_map()) {
    auto it = object.as_map()->find(name);
    return it == object.as_map()->end() ? Value::null() : it->second;
  }
  if (object.is_object()) {
    auto instance = std::dynamic_pointer_cast<Instance>(object.as_object());
    if (instance != nullptr) return instance->get_field(name);
    throw EvalError("cannot read field through remote reference");
  }
  throw EvalError("cannot read member of " + object.type_name());
}

void member_set(const Value& object, const std::string& name, Value value) {
  if (object.is_map()) {
    (*object.as_map())[name] = std::move(value);
    return;
  }
  if (object.is_object()) {
    auto instance = std::dynamic_pointer_cast<Instance>(object.as_object());
    if (instance != nullptr) {
      instance->set_field(name, std::move(value));
      return;
    }
    throw EvalError("cannot set field on remote reference");
  }
  throw EvalError("cannot set member on " + object.type_name());
}

Value index_get(const Value& object, const Value& key) {
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

void index_set(const Value& object, const Value& key, Value value) {
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

// First-dispatch inline-cache fill. Caches exclusively the monomorphic
// happy case: the receiver's ClassDef is the one currently registered under
// its name and declares the method itself as public. Anything else —
// inherited resolution, private targets, stale class generations — marks the
// site uncacheable so the named slow path stays authoritative.
void fill_inline_cache(InlineCache& ic, const Instance& instance,
                       const std::string& name) {
  int expected = 0;
  if (!ic.state.compare_exchange_strong(expected, 1,
                                        std::memory_order_acq_rel)) {
    return;  // another thread is filling, or the site is already decided
  }
  std::shared_ptr<const ClassDef> registered =
      instance.registry().find_class(instance.cls().name);
  const MethodDef* method =
      registered != nullptr && registered.get() == &instance.cls()
          ? registered->find_method(name)
          : nullptr;
  if (method != nullptr && method->visibility == Visibility::kPublic) {
    ic.cls = std::move(registered);
    ic.method = method;
    ic.state.store(2, std::memory_order_release);
  } else {
    ic.state.store(3, std::memory_order_release);
  }
}

}  // namespace

Value vm_execute(const CompiledMethod& m,
                 const std::shared_ptr<Instance>& self,
                 std::vector<Value> args, Engine& engine, std::size_t& steps,
                 std::size_t max_steps) {
  std::vector<Value> regs(m.num_registers);
  std::vector<unsigned char> defined(m.num_locals, 0);
  for (std::size_t i = 0; i < m.num_params && i < args.size(); ++i) {
    regs[i] = std::move(args[i]);
    defined[i] = 1;
  }

  const Insn* code = m.code.data();
  const Value* consts = m.constants.data();
  std::size_t ip = 0;
  const Insn* insn = nullptr;

#ifdef PSF_VM_COMPUTED_GOTO
  // Order must match the Op enumerators exactly.
  static const void* kTargets[] = {
      &&L_kLoadConst,  &&L_kLoadNull,     &&L_kLoadThis,
      &&L_kMove,       &&L_kDeclareLocal, &&L_kLoadChecked,
      &&L_kStoreChecked, &&L_kLoadLocalOrField, &&L_kStoreLocalOrField,
      &&L_kLoadField,  &&L_kStoreField,   &&L_kNeg,
      &&L_kNot,        &&L_kAdd,          &&L_kSub,
      &&L_kMul,        &&L_kDiv,          &&L_kMod,
      &&L_kEq,         &&L_kNe,           &&L_kLt,
      &&L_kLe,         &&L_kGt,           &&L_kGe,
      &&L_kBool,       &&L_kJump,         &&L_kJumpIfFalse,
      &&L_kJumpIfTrue, &&L_kCallBuiltin,  &&L_kCallSelf,
      &&L_kCallMember, &&L_kMemberGet,    &&L_kMemberSet,
      &&L_kIndexGet,   &&L_kIndexSet,     &&L_kReturn,
      &&L_kReturnNull, &&L_kThrow,
  };
  static_assert(sizeof(kTargets) / sizeof(kTargets[0]) == kNumOps,
                "dispatch table out of sync with Op enum");
#define VM_NEXT()                                                      \
  do {                                                                 \
    insn = &code[ip++];                                                \
    if (++steps > max_steps) throw EvalError("step limit exceeded");   \
    goto* kTargets[static_cast<unsigned>(insn->op)];                   \
  } while (0)
#define VM_OP(name) L_##name
  VM_NEXT();
#else
#define VM_NEXT() continue
#define VM_OP(name) case Op::name
  for (;;) {
    insn = &code[ip++];
    if (++steps > max_steps) throw EvalError("step limit exceeded");
    switch (insn->op) {
#endif

  VM_OP(kLoadConst) : { regs[insn->a] = consts[insn->imm]; }
  VM_NEXT();

  VM_OP(kLoadNull) : { regs[insn->a] = Value::null(); }
  VM_NEXT();

  VM_OP(kLoadThis) : { regs[insn->a] = Value::object(self); }
  VM_NEXT();

  VM_OP(kMove) : { regs[insn->a] = regs[insn->b]; }
  VM_NEXT();

  VM_OP(kDeclareLocal) : { defined[insn->a] = 1; }
  VM_NEXT();

  VM_OP(kLoadChecked) : {
    if (defined[insn->b] == 0) {
      throw EvalError("line " + std::to_string(insn->line) +
                      ": undefined variable '" + m.names[insn->c] + "'");
    }
    regs[insn->a] = regs[insn->b];
  }
  VM_NEXT();

  VM_OP(kStoreChecked) : {
    if (defined[insn->a] == 0) {
      throw EvalError("line " + std::to_string(insn->line) +
                      ": assignment to undefined variable '" +
                      m.names[insn->c] + "'");
    }
    regs[insn->a] = regs[insn->b];
  }
  VM_NEXT();

  VM_OP(kLoadLocalOrField) : {
    if (defined[insn->b] != 0) {
      regs[insn->a] = regs[insn->b];
    } else {
      regs[insn->a] = self->get_field_slot(
          static_cast<std::size_t>(insn->imm));
    }
  }
  VM_NEXT();

  VM_OP(kStoreLocalOrField) : {
    if (defined[insn->a] != 0) {
      regs[insn->a] = regs[insn->b];
    } else {
      self->set_field_slot(static_cast<std::size_t>(insn->imm),
                           regs[insn->b]);
    }
  }
  VM_NEXT();

  VM_OP(kLoadField) : {
    regs[insn->a] = self->get_field_slot(static_cast<std::size_t>(insn->imm));
  }
  VM_NEXT();

  VM_OP(kStoreField) : {
    self->set_field_slot(static_cast<std::size_t>(insn->imm), regs[insn->a]);
  }
  VM_NEXT();

  VM_OP(kNeg) : { regs[insn->a] = Value::integer(-regs[insn->b].as_int()); }
  VM_NEXT();

  VM_OP(kNot) : { regs[insn->a] = Value::boolean(!regs[insn->b].truthy()); }
  VM_NEXT();

  VM_OP(kAdd) : { regs[insn->a] = op_add(regs[insn->b], regs[insn->c]); }
  VM_NEXT();

  VM_OP(kSub) : {
    regs[insn->a] =
        Value::integer(regs[insn->b].as_int() - regs[insn->c].as_int());
  }
  VM_NEXT();

  VM_OP(kMul) : {
    regs[insn->a] =
        Value::integer(regs[insn->b].as_int() * regs[insn->c].as_int());
  }
  VM_NEXT();

  VM_OP(kDiv) : { regs[insn->a] = op_div(regs[insn->b], regs[insn->c]); }
  VM_NEXT();

  VM_OP(kMod) : { regs[insn->a] = op_mod(regs[insn->b], regs[insn->c]); }
  VM_NEXT();

  VM_OP(kEq) : {
    regs[insn->a] = Value::boolean(regs[insn->b].equals(regs[insn->c]));
  }
  VM_NEXT();

  VM_OP(kNe) : {
    regs[insn->a] = Value::boolean(!regs[insn->b].equals(regs[insn->c]));
  }
  VM_NEXT();

  VM_OP(kLt) : {
    regs[insn->a] = Value::boolean(op_cmp(regs[insn->b], regs[insn->c]) < 0);
  }
  VM_NEXT();

  VM_OP(kLe) : {
    regs[insn->a] = Value::boolean(op_cmp(regs[insn->b], regs[insn->c]) <= 0);
  }
  VM_NEXT();

  VM_OP(kGt) : {
    regs[insn->a] = Value::boolean(op_cmp(regs[insn->b], regs[insn->c]) > 0);
  }
  VM_NEXT();

  VM_OP(kGe) : {
    regs[insn->a] = Value::boolean(op_cmp(regs[insn->b], regs[insn->c]) >= 0);
  }
  VM_NEXT();

  VM_OP(kBool) : { regs[insn->a] = Value::boolean(regs[insn->b].truthy()); }
  VM_NEXT();

  VM_OP(kJump) : { ip = static_cast<std::size_t>(insn->imm); }
  VM_NEXT();

  VM_OP(kJumpIfFalse) : {
    if (!regs[insn->a].truthy()) ip = static_cast<std::size_t>(insn->imm);
  }
  VM_NEXT();

  VM_OP(kJumpIfTrue) : {
    if (regs[insn->a].truthy()) ip = static_cast<std::size_t>(insn->imm);
  }
  VM_NEXT();

  VM_OP(kCallBuiltin) : {
    std::vector<Value> call_args(regs.begin() + insn->c,
                                 regs.begin() + insn->c + insn->imm);
    regs[insn->a] = call_builtin(insn->b, call_args);
  }
  VM_NEXT();

  VM_OP(kCallSelf) : {
    std::vector<Value> call_args(regs.begin() + insn->c,
                                 regs.begin() + insn->c + insn->imm);
    regs[insn->a] = engine.invoke_resolved(self, *m.self_methods[insn->b],
                                           std::move(call_args));
  }
  VM_NEXT();

  VM_OP(kCallMember) : {
    const Value& receiver = regs[insn->c];
    if (!receiver.is_object()) {
      throw EvalError("line " + std::to_string(insn->line) +
                      ": cannot call '" + m.names[insn->b] + "' on " +
                      receiver.type_name());
    }
    std::vector<Value> call_args(regs.begin() + insn->c + 1,
                                 regs.begin() + insn->c + 1 + insn->imm);
    auto instance = std::dynamic_pointer_cast<Instance>(receiver.as_object());
    if (instance != nullptr && instance.get() == self.get()) {
      // Calls on `this` stay internal (private methods allowed).
      regs[insn->a] = engine.invoke(instance, m.names[insn->b],
                                    std::move(call_args), /*external=*/false);
    } else if (instance != nullptr) {
      // Monomorphic inline cache (one per site). A hit skips the name
      // resolution but keeps Instance::call semantics exactly: fresh engine,
      // default budgets, public target. Any guard mismatch falls back to the
      // named slow path, which also fills an empty cache.
      InlineCache& ic = m.caches[insn->d - 1];
      if (ic.state.load(std::memory_order_acquire) == 2 &&
          ic.cls.get() == &instance->cls()) {
        static auto& hits = obs::counter("psf.minilang.ic_hits");
        hits.inc();
        regs[insn->a] =
            invoke_method_resolved(instance, *ic.method, std::move(call_args));
      } else {
        static auto& misses = obs::counter("psf.minilang.ic_misses");
        misses.inc();
        fill_inline_cache(ic, *instance, m.names[insn->b]);
        regs[insn->a] =
            receiver.as_object()->call(m.names[insn->b], std::move(call_args));
      }
    } else {
      regs[insn->a] =
          receiver.as_object()->call(m.names[insn->b], std::move(call_args));
    }
  }
  VM_NEXT();

  VM_OP(kMemberGet) : {
    regs[insn->a] = member_get(regs[insn->c], m.names[insn->b]);
  }
  VM_NEXT();

  VM_OP(kMemberSet) : {
    member_set(regs[insn->a], m.names[insn->b], regs[insn->c]);
  }
  VM_NEXT();

  VM_OP(kIndexGet) : {
    regs[insn->a] = index_get(regs[insn->b], regs[insn->c]);
  }
  VM_NEXT();

  VM_OP(kIndexSet) : {
    index_set(regs[insn->a], regs[insn->b], regs[insn->c]);
  }
  VM_NEXT();

  VM_OP(kReturn) : { return std::move(regs[insn->a]); }

  VM_OP(kReturnNull) : { return Value::null(); }

  VM_OP(kThrow) : { throw EvalError(m.names[insn->b]); }

#ifndef PSF_VM_COMPUTED_GOTO
      default:
        throw EvalError("corrupt bytecode in " + m.method_name);
    }
  }
#endif
#undef VM_NEXT
#undef VM_OP
}

}  // namespace psf::minilang
