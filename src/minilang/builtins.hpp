// MiniLang builtin functions, shared by the bytecode VM (vm.cpp) and the
// tree-walking test oracle (tests/support/minilang_oracle.cpp). Both
// dispatch through this one table so they can never disagree about a
// builtin's semantics or error messages — the differential suite
// (tests/bytecode_diff_test.cpp) relies on that.
#pragma once

#include <string>
#include <vector>

#include "minilang/value.hpp"

namespace psf::minilang {

/// Index of `name` in the builtin table, or -1 when `name` is not a
/// builtin. Indices are stable for the lifetime of the process and are what
/// the compiler bakes into kCallBuiltin instructions.
int builtin_index(const std::string& name);

/// Invoke builtin `index` (from builtin_index). Arguments are taken by
/// reference because container builtins (push, put, ...) mutate through the
/// shared pointer inside the Value. Throws EvalError on arity or type
/// mismatch.
Value call_builtin(int index, std::vector<Value>& args);

/// Name of builtin `index` (for diagnostics and disassembly).
const std::string& builtin_name(int index);

/// Number of builtins (valid indices are [0, builtin_count())).
int builtin_count();

}  // namespace psf::minilang
