// MiniLang class/object model — the stand-in for Java classes in the paper.
// VIG (src/views) consumes and produces ClassDefs: it copies methods along
// inheritance chains, rebinds interface methods to remote stubs, splices
// XML-supplied method bodies, and injects cache-coherence wrappers, exactly
// mirroring the paper's Javassist-based bytecode manipulation.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "minilang/ast.hpp"
#include "minilang/value.hpp"

namespace psf::minilang {

class Instance;
class ClassRegistry;
struct CompiledSlot;  // bytecode compilation cache (compile.hpp)

enum class Visibility { kPublic, kPrivate };

/// How an interface is exposed on a view (paper §4.1: local / rmi / switch).
enum class Binding { kLocal, kRmi, kSwitchboard };

std::string binding_name(Binding b);

struct MethodSig {
  std::string name;
  std::vector<std::string> params;
};

struct InterfaceDef {
  std::string name;
  std::vector<MethodSig> methods;
  // Marker interfaces added by VIG for remote bindings, mirroring the paper's
  // `extends java.rmi.Remote` / `implements Serializable` rewrite.
  std::vector<std::string> extends_markers;

  const MethodSig* find(const std::string& method) const;
};

using NativeFn = std::function<Value(Instance&, std::vector<Value>)>;

struct MethodDef {
  std::string name;
  std::vector<std::string> params;
  Visibility visibility = Visibility::kPublic;
  std::string interface_name;  // declaring interface, "" for free methods

  std::string source;          // original body text (codegen + diagnostics)
  std::vector<StmtPtr> body;   // parsed body (empty for native methods)

  bool is_native = false;
  NativeFn native;

  // Set by VIG: body is bracketed by acquireImage/releaseImage coherence
  // hooks at run time (paper §4.3).
  bool coherence_wrapped = false;

  // Bytecode cache, one per registered method. ClassRegistry::register_class
  // creates it (and clone() makes a fresh one) so it always exists before
  // the method can be invoked; the engine compiles into it lazily, VIG at
  // generation time. Compiled code is keyed to a concrete ClassDef — a
  // plain struct copy shares the slot and gets its own code for its class
  // on first use, so sharing is safe.
  std::shared_ptr<CompiledSlot> compiled;

  MethodDef clone() const;
};

struct FieldDef {
  std::string name;
  std::string type;  // informational (codegen); MiniLang is dynamically typed
  Value initial;     // default null
};

struct ClassDef {
  std::string name;
  std::string super_name;  // "" for roots
  std::vector<std::string> interfaces;
  std::vector<FieldDef> fields;
  std::vector<MethodDef> methods;

  // View metadata (set by VIG; empty for ordinary classes).
  std::string represents;                       // original object's class
  std::map<std::string, Binding> interface_bindings;
  // Dead added members VIG dropped during generation ("method foo" /
  // "field bar"); codegen surfaces them as a comment in the emitted source.
  std::vector<std::string> stripped_members;

  const MethodDef* find_method(const std::string& method) const;
  const FieldDef* find_field(const std::string& field) const;
  bool is_view() const { return !represents.empty(); }
};

/// Shared class/interface namespace for one simulated JVM (one per host in
/// the deployment substrate).
class ClassRegistry {
 public:
  void register_class(std::shared_ptr<ClassDef> cls);
  /// Drop the class registered under `name` (VIG takes back a view it
  /// refused after registering it for compilation).
  void unregister_class(const std::string& name);
  void register_interface(InterfaceDef iface);

  std::shared_ptr<const ClassDef> find_class(const std::string& name) const;
  const InterfaceDef* find_interface(const std::string& name) const;

  /// Method lookup along the inheritance chain, most-derived first.
  const MethodDef* resolve_method(const ClassDef& cls,
                                  const std::string& method) const;

  /// All fields visible on an instance of `cls` (own + inherited).
  std::vector<const FieldDef*> all_fields(const ClassDef& cls) const;

  /// Inheritance chain [cls, super, super-super, ...].
  std::vector<std::shared_ptr<const ClassDef>> chain(const ClassDef& cls) const;

  std::vector<std::string> class_names() const;

 private:
  std::map<std::string, std::shared_ptr<ClassDef>> classes_;
  std::map<std::string, InterfaceDef> interfaces_;
};

/// Per-instance hook points used by the cache coherence machinery.
class MethodHooks {
 public:
  virtual ~MethodHooks() = default;
  virtual void before_method(Instance& self, const MethodDef& method) = 0;
  virtual void after_method(Instance& self, const MethodDef& method) = 0;
};

/// A live object: field storage plus a class pointer. Lives behind
/// shared_ptr and is a CallTarget so Values can hold it.
class Instance : public CallTarget,
                 public std::enable_shared_from_this<Instance> {
 public:
  Instance(std::shared_ptr<const ClassDef> cls, const ClassRegistry* registry);

  /// External invocation (public methods only); defined in interp.cpp.
  Value call(const std::string& method, std::vector<Value> args) override;

  std::string type_name() const override { return cls_->name; }

  const ClassDef& cls() const { return *cls_; }
  const ClassRegistry& registry() const { return *registry_; }

  Value get_field(const std::string& name) const;
  void set_field(const std::string& name, Value value);
  bool has_field(const std::string& name) const;
  const ValueMap& fields() const { return fields_; }

  // Slot-indexed field access for the bytecode VM. Slot order is the sorted
  // field-name order — exactly the iteration order of fields_ — and the
  // compiler derives the same indices from the class's field set, so a slot
  // resolved at compile time stays valid for every instance of that class.
  const Value& get_field_slot(std::size_t slot) const {
    return field_slots_[slot].field->second;
  }
  void set_field_slot(std::size_t slot, Value value);

  // --- field-level dirty tracking (views delta coherence) ---
  //
  // Every write bumps a monotonic per-instance counter and stamps the
  // written slot with it, so a coherence peer that remembers the version it
  // last merged can request exactly the fields dirtied since. Fields holding
  // reference-semantics containers (lists/maps) can mutate *without* a
  // write — `push(notes, x)` goes through the shared pointer — so extractors
  // additionally call note_field_fingerprint with a content fingerprint; a
  // changed fingerprint bumps the slot like a write would. Both stamps live
  // beside the slot's field iterator: one array, sized at construction.

  /// Stable per-process identity; peers use it to detect that "version N"
  /// refers to a different object generation (restart, rewire) and fall
  /// back to a full image.
  std::uint64_t uid() const { return uid_; }

  /// Monotonic mutation counter; 0 = untouched since construction.
  std::uint64_t state_version() const { return version_; }

  /// Version at which field `slot` was last written (0 = initial value only).
  std::uint64_t field_version(std::size_t slot) const {
    return field_slots_[slot].version;
  }

  /// Compare-and-bump for container fields: if `fingerprint` differs from
  /// the one recorded for `slot`, the field is stamped with a fresh version.
  /// Const because it only *discovers* a mutation that already happened
  /// through the shared container — extractors run it on const instances.
  void note_field_fingerprint(std::size_t slot,
                              std::uint64_t fingerprint) const;

  void set_hooks(std::shared_ptr<MethodHooks> hooks) { hooks_ = std::move(hooks); }
  MethodHooks* hooks() const { return hooks_.get(); }

 private:
  struct FieldSlot {
    ValueMap::iterator field;  // std::map iterators: stable
    std::uint64_t version = 0;
    std::uint64_t fingerprint = 0;  // 0 = none recorded since the last write
  };

  std::size_t slot_of(const std::string& name) const;

  std::shared_ptr<const ClassDef> cls_;
  const ClassRegistry* registry_;
  ValueMap fields_;
  mutable std::vector<FieldSlot> field_slots_;
  std::uint64_t uid_;
  mutable std::uint64_t version_ = 0;
  std::shared_ptr<MethodHooks> hooks_;
};

}  // namespace psf::minilang
