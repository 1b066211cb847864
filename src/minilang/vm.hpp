// Threaded-dispatch VM for MiniLang bytecode (DESIGN.md §4j). Executes a
// CompiledMethod produced by compile.{hpp,cpp}; dispatch uses computed goto
// on GCC/Clang and a portable switch loop elsewhere (or when
// PSF_VM_NO_COMPUTED_GOTO is defined at build time).
//
// The VM owns only the register file of one activation. Everything with
// cross-call state stays in the Engine that called it: nested self-calls
// re-enter the engine (depth/step accounting, arity checks and coherence
// brackets all run there), and the step counter is the engine's own, shared
// so a deep call stack hits one common "step limit exceeded" budget.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "minilang/compile.hpp"
#include "minilang/interp.hpp"

namespace psf::minilang {

/// The call driver behind instantiate / invoke_method / Instance::call
/// (interp.cpp). One Engine serves one top-level invocation and every
/// in-language call it makes on the same receiver chain; calls on other
/// objects go through Instance::call and get a fresh Engine.
class Engine {
 public:
  explicit Engine(InterpOptions options) : options_(options) {}

  /// Resolve `method_name` on `self` and run it. `external` enforces public
  /// visibility (an in-language `this.m()` or bare `m()` call is internal).
  Value invoke(const std::shared_ptr<Instance>& self,
               const std::string& method_name, std::vector<Value> args,
               bool external);

  /// Run an already-resolved method: depth limit, arity check, coherence
  /// hooks, then the native function or the method's compiled bytecode.
  Value invoke_resolved(const std::shared_ptr<Instance>& self,
                        const MethodDef& method, std::vector<Value> args);

 private:
  InterpOptions options_;
  std::size_t steps_ = 0;
  std::size_t depth_ = 0;
};

/// Execute `method` on `self` with `args` already arity-checked by the
/// caller. `steps` is the engine's step counter; each dispatched instruction
/// charges one step and the run aborts with "step limit exceeded" past
/// `max_steps`. Nested self-calls re-enter `engine`.
Value vm_execute(const CompiledMethod& method,
                 const std::shared_ptr<Instance>& self,
                 std::vector<Value> args, Engine& engine, std::size_t& steps,
                 std::size_t max_steps);

}  // namespace psf::minilang
