// MiniLang bytecode compiler (DESIGN.md §4j). Lowers parsed method bodies to
// a compact register bytecode executed by the threaded-dispatch VM in
// vm.{hpp,cpp}. Compilation happens once per (method, class) — at view
// generation time inside VIG, or lazily on first invocation for ordinary
// classes — and resolves everything a name-hash lookup used to pay for on
// every execution:
//
//  - locals and parameters become register slots;
//  - `this` fields become slot indices into the instance's field table
//    (Instance::get_field_slot / set_field_slot), resolved against the
//    class's sorted field layout;
//  - self-calls bind directly to the resolved MethodDef;
//  - builtins bind to their table index;
//  - literal subexpressions are constant-folded into the constant pool;
//  - every member-call site gets its own inline-cache slot.
//
// Compiled code is tied to the exact ClassDef it was compiled against
// (`self_class`). An inherited method invoked through a subclass with a
// different field layout gets its own code, compiled for that subclass. The
// VM is the only production engine; tests/support/minilang_oracle keeps the
// original tree-walking evaluator as the reference it must match
// (tests/bytecode_diff_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "minilang/object.hpp"

namespace psf::minilang {

enum class Op : std::uint8_t {
  kLoadConst,     // r[a] = constants[imm]
  kLoadNull,      // r[a] = null
  kLoadThis,      // r[a] = object(self)
  kMove,          // r[a] = r[b]
  kDeclareLocal,  // mark local slot a defined (value already stored in r[a])
  kLoadChecked,   // r[a] = r[b] if local b defined, else throw undefined var
  kStoreChecked,  // r[a] = r[b] if local a defined, else throw undefined var
  kLoadLocalOrField,   // r[a] = r[b] if local b defined, else self field imm
  kStoreLocalOrField,  // local a = r[b] if defined, else self field imm = r[b]
  kLoadField,     // r[a] = self field slot imm (names[b] for diagnostics)
  kStoreField,    // self field slot imm = r[a]
  kNeg,           // r[a] = -r[b]  (integer)
  kNot,           // r[a] = !truthy(r[b])
  kAdd, kSub, kMul, kDiv, kMod,          // r[a] = r[b] op r[c]
  kEq, kNe, kLt, kLe, kGt, kGe,          // r[a] = bool(r[b] op r[c])
  kBool,          // r[a] = boolean(truthy(r[b]))  (logical-op result)
  kJump,          // ip = imm
  kJumpIfFalse,   // if (!truthy(r[a])) ip = imm
  kJumpIfTrue,    // if (truthy(r[a])) ip = imm
  kCallBuiltin,   // r[a] = builtin b (args r[c] .. r[c+imm-1])
  kCallSelf,      // r[a] = self_methods[b] on self (args r[c] .. r[c+imm-1])
  kCallMember,    // r[a] = (r[c]).names[b](args r[c+1] .. r[c+imm])
  kMemberGet,     // r[a] = (r[c]).names[b]  (map lookup or instance field)
  kMemberSet,     // (r[a]).names[b] = r[c]
  kIndexGet,      // r[a] = r[b][r[c]]
  kIndexSet,      // r[a][r[b]] = r[c]
  kReturn,        // return r[a]
  kReturnNull,    // return null
  kThrow,         // throw EvalError(names[b]) — message formatted at compile
};

/// Number of opcodes; the VM's computed-goto label table is checked against
/// this, so kThrow must stay the last enumerator.
inline constexpr unsigned kNumOps = static_cast<unsigned>(Op::kThrow) + 1;

struct Insn {
  Op op;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;
  std::uint16_t d = 0;     // kCallMember: 1-based inline-cache slot
  std::int32_t imm = 0;
  std::uint32_t line = 0;  // source line, for runtime error messages
};

/// One monomorphic call-site cache for kCallMember dispatch (one per site,
/// allocated by the compiler). Filled on first dispatch with the receiver
/// class and the resolved public method. The VM hits it only when the
/// receiver's ClassDef pointer matches exactly; any other receiver falls
/// back to the named slow path.
/// state: 0 = empty, 1 = being filled, 2 = ready, 3 = uncacheable site.
struct InlineCache {
  std::atomic<int> state{0};
  std::shared_ptr<const ClassDef> cls;  // keeps the guard pointer alive
  const MethodDef* method = nullptr;    // owned by cls, public, non-inherited
};

struct CompiledMethod {
  std::string method_name;
  const ClassDef* self_class = nullptr;  // layout the field slots bind to
  std::uint32_t num_params = 0;
  std::uint32_t num_locals = 0;     // params + var slots (registers 0..n-1)
  std::uint32_t num_registers = 0;  // locals + temporaries
  std::vector<Insn> code;
  std::vector<Value> constants;
  std::vector<std::string> names;   // member/field/method names, error texts
  std::vector<std::string> local_names;          // slot -> name (disassembly)
  std::vector<const MethodDef*> self_methods;    // kCallSelf targets
  // Inline-cache slots, indexed by Insn::d - 1. Mutable runtime state inside
  // an otherwise immutable CompiledMethod: unique_ptr<T[]>::operator[] hands
  // out non-const entries through the const method pointer the VM holds.
  std::unique_ptr<InlineCache[]> caches;
  std::uint32_t num_caches = 0;
};

/// Per-MethodDef compilation cache. Created by ClassRegistry::register_class
/// (and MethodDef::clone) so the slot always exists before a method can be
/// invoked; the lazy compile in the engine then needs no pointer race.
/// `code` holds the code for the first concrete class the method ran on and
/// is read lock-free once `ready` is set; code for any other class (an
/// inherited method called through a subclass) lives in `others`, guarded by
/// `mu`.
struct CompiledSlot {
  std::mutex mu;
  std::atomic<bool> ready{false};
  std::shared_ptr<const CompiledMethod> code;
  std::vector<std::shared_ptr<const CompiledMethod>> others;
};

/// A method body the compiler cannot encode: more than 65535 registers,
/// names, self-call targets or member-call sites (the 16-bit operand
/// ceiling). The message names the method, its class and the reason.
class CompileError : public EvalError {
 public:
  using EvalError::EvalError;
};

/// Compile `method` against `cls`'s field layout (fields are resolved over
/// `registry.all_fields(cls)`) and publish the code into the method's
/// CompiledSlot, or return the code already published for `cls`
/// (thread-safe, at most one compile per (slot, class)). Throws CompileError
/// when the body cannot be lowered, and EvalError for a native method or one
/// whose class was never registered (no slot). Updates
/// psf.minilang.{compile_us,methods_compiled}.
const CompiledMethod& ensure_compiled(const ClassRegistry& registry,
                                      const ClassDef& cls,
                                      const MethodDef& method);

/// Human-readable listing of a compiled method: header, constant pool,
/// register names, and one line per instruction (vig_cli --dump-bytecode).
std::string disassemble(const CompiledMethod& method);

}  // namespace psf::minilang
