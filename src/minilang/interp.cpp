#include "minilang/interp.hpp"

#include "minilang/builtins.hpp"
#include "minilang/compile.hpp"
#include "minilang/vm.hpp"

namespace psf::minilang {

Value Engine::invoke(const std::shared_ptr<Instance>& self,
                     const std::string& method_name, std::vector<Value> args,
                     bool external) {
  const ClassRegistry& registry = self->registry();
  const MethodDef* method = registry.resolve_method(self->cls(), method_name);
  if (method == nullptr) {
    throw EvalError("no method '" + method_name + "' on " + self->cls().name);
  }
  if (external && method->visibility == Visibility::kPrivate) {
    throw EvalError("method '" + method_name + "' on " + self->cls().name +
                    " is private");
  }
  return invoke_resolved(self, *method, std::move(args));
}

Value Engine::invoke_resolved(const std::shared_ptr<Instance>& self,
                              const MethodDef& method,
                              std::vector<Value> args) {
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
      const CompiledMethod& code =
          ensure_compiled(self->registry(), self->cls(), method);
      result = vm_execute(code, self, std::move(args), *this, steps_,
                          options_.max_steps);
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

const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    out.reserve(static_cast<std::size_t>(builtin_count()));
    for (int i = 0; i < builtin_count(); ++i) out.push_back(builtin_name(i));
    return out;
  }();
  return names;
}

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

Value invoke_method_resolved(const std::shared_ptr<Instance>& self,
                             const MethodDef& method, std::vector<Value> args,
                             InterpOptions options) {
  Engine engine(options);
  return engine.invoke_resolved(self, method, std::move(args));
}

Value Instance::call(const std::string& method, std::vector<Value> args) {
  return invoke_method(shared_from_this(), method, std::move(args),
                       /*external=*/true);
}

}  // namespace psf::minilang
