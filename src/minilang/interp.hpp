// MiniLang execution entry points. Every non-native method body runs as
// register bytecode (compile.hpp), compiled on first use — or at view
// generation time by VIG — and executed by the threaded VM (vm.hpp). Step
// and depth limits guard against runaway spliced code: VIG validation
// should catch bad code first, but the engine is the last line of defense.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "minilang/object.hpp"
#include "minilang/value.hpp"

namespace psf::minilang {

struct InterpOptions {
  std::size_t max_steps = 2'000'000;  // one step per bytecode instruction
  std::size_t max_depth = 128;
};

/// Create an instance of `class_name` and run its `constructor` method (if
/// any) with `args`. Throws EvalError for unknown classes.
std::shared_ptr<Instance> instantiate(const ClassRegistry& registry,
                                      const std::string& class_name,
                                      std::vector<Value> args = {},
                                      InterpOptions options = {});

/// Invoke `method` on `self`. `external` enforces public visibility (an
/// in-language `this.m()` or bare `m()` call is internal).
Value invoke_method(const std::shared_ptr<Instance>& self,
                    const std::string& method, std::vector<Value> args,
                    bool external, InterpOptions options = {});

/// Invoke an already-resolved method on `self` in a fresh Engine — exactly
/// what Instance::call does after its name lookup and visibility check. The
/// VM's inline-cache hit path uses this; callers must guarantee `method`
/// is the public method the name lookup would have found (the IC guard does).
Value invoke_method_resolved(const std::shared_ptr<Instance>& self,
                             const MethodDef& method, std::vector<Value> args,
                             InterpOptions options = {});

/// Names of all builtins (VIG treats these as always-defined).
const std::vector<std::string>& builtin_names();

}  // namespace psf::minilang
