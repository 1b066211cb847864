// Tree-walking reference evaluator for MiniLang — the test oracle the
// bytecode VM is checked against (tests/bytecode_diff_test.cpp). It walks
// the parsed AST directly, exactly as the language was first defined, so a
// compiler or VM bug shows up as a transcript mismatch rather than as a
// silently shared wrong answer.
//
// Not part of any production library: only the differential suite, the
// MiniLang unit tests and bench_minilang_exec (as the speedup baseline) link
// it. The call driver mirrors the production one (depth, step, arity,
// native and coherence-hook handling) but charges one step per statement,
// loop iteration and expression node rather than per instruction, so step
// limits fire at different budgets on the two engines. Calls on objects
// other than `this` go through Instance::call and therefore run on the VM,
// as in production.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "minilang/interp.hpp"

namespace psf::minilang::oracle {

/// instantiate() on the tree-walker: the constructor (if any) is walked.
std::shared_ptr<Instance> instantiate(const ClassRegistry& registry,
                                      const std::string& class_name,
                                      std::vector<Value> args = {},
                                      InterpOptions options = {});

/// invoke_method() on the tree-walker.
Value invoke_method(const std::shared_ptr<Instance>& self,
                    const std::string& method, std::vector<Value> args,
                    bool external, InterpOptions options = {});

/// Evaluate a standalone expression with no `this` (literals, operators,
/// builtins).
Value eval_standalone(const std::string& source, InterpOptions options = {});

}  // namespace psf::minilang::oracle
