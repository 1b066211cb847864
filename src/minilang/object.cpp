#include "minilang/object.hpp"

#include <atomic>

#include "minilang/compile.hpp"

namespace psf::minilang {

std::string binding_name(Binding b) {
  switch (b) {
    case Binding::kLocal: return "local";
    case Binding::kRmi: return "rmi";
    case Binding::kSwitchboard: return "switchboard";
  }
  return "?";
}

const MethodSig* InterfaceDef::find(const std::string& method) const {
  for (const auto& m : methods) {
    if (m.name == method) return &m;
  }
  return nullptr;
}

MethodDef MethodDef::clone() const {
  MethodDef out;
  out.name = name;
  out.params = params;
  out.visibility = visibility;
  out.interface_name = interface_name;
  out.source = source;
  out.body = clone_block(body);
  out.is_native = is_native;
  out.native = native;
  out.coherence_wrapped = coherence_wrapped;
  // A clone is usually about to be spliced into a different class, whose
  // field layout the original's bytecode would not match — start fresh.
  out.compiled = std::make_shared<CompiledSlot>();
  return out;
}

const MethodDef* ClassDef::find_method(const std::string& method) const {
  for (const auto& m : methods) {
    if (m.name == method) return &m;
  }
  return nullptr;
}

const FieldDef* ClassDef::find_field(const std::string& field) const {
  for (const auto& f : fields) {
    if (f.name == field) return &f;
  }
  return nullptr;
}

void ClassRegistry::register_class(std::shared_ptr<ClassDef> cls) {
  // Ensure every method has its bytecode slot before the class becomes
  // reachable: registration is single-threaded setup, so the engine's lazy
  // compile never has to create (and race on) the shared_ptr itself.
  for (auto& m : cls->methods) {
    if (m.compiled == nullptr) m.compiled = std::make_shared<CompiledSlot>();
  }
  classes_[cls->name] = std::move(cls);
}

void ClassRegistry::unregister_class(const std::string& name) {
  classes_.erase(name);
}

void ClassRegistry::register_interface(InterfaceDef iface) {
  interfaces_[iface.name] = std::move(iface);
}

std::shared_ptr<const ClassDef> ClassRegistry::find_class(
    const std::string& name) const {
  auto it = classes_.find(name);
  return it == classes_.end() ? nullptr : it->second;
}

const InterfaceDef* ClassRegistry::find_interface(
    const std::string& name) const {
  auto it = interfaces_.find(name);
  return it == interfaces_.end() ? nullptr : &it->second;
}

const MethodDef* ClassRegistry::resolve_method(const ClassDef& cls,
                                               const std::string& method) const {
  for (const auto& c : chain(cls)) {
    if (const MethodDef* m = c->find_method(method)) return m;
  }
  return nullptr;
}

std::vector<const FieldDef*> ClassRegistry::all_fields(
    const ClassDef& cls) const {
  std::vector<const FieldDef*> out;
  for (const auto& c : chain(cls)) {
    for (const auto& f : c->fields) out.push_back(&f);
  }
  return out;
}

std::vector<std::shared_ptr<const ClassDef>> ClassRegistry::chain(
    const ClassDef& cls) const {
  std::vector<std::shared_ptr<const ClassDef>> out;
  std::shared_ptr<const ClassDef> current = find_class(cls.name);
  while (current) {
    out.push_back(current);
    if (current->super_name.empty()) break;
    current = find_class(current->super_name);
  }
  return out;
}

std::vector<std::string> ClassRegistry::class_names() const {
  std::vector<std::string> out;
  out.reserve(classes_.size());
  for (const auto& [name, cls] : classes_) out.push_back(name);
  return out;
}

namespace {
std::uint64_t next_instance_uid() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}
}  // namespace

Instance::Instance(std::shared_ptr<const ClassDef> cls,
                   const ClassRegistry* registry)
    : cls_(std::move(cls)), registry_(registry), uid_(next_instance_uid()) {
  for (const FieldDef* f : registry_->all_fields(*cls_)) {
    fields_[f->name] = f->initial;
  }
  // Map iterators are stable and the field set is fixed at construction, so
  // slot k aliases the k-th field in sorted-name order for the instance's
  // whole lifetime (the layout the bytecode compiler resolves against).
  field_slots_.reserve(fields_.size());
  for (auto it = fields_.begin(); it != fields_.end(); ++it) {
    field_slots_.push_back(it);
  }
}

Value Instance::get_field(const std::string& name) const {
  auto it = fields_.find(name);
  if (it == fields_.end()) {
    throw EvalError("no field '" + name + "' on " + cls_->name);
  }
  return it->second;
}

void Instance::set_field(const std::string& name, Value value) {
  auto it = fields_.find(name);
  if (it == fields_.end()) {
    throw EvalError("no field '" + name + "' on " + cls_->name);
  }
  it->second = std::move(value);
  field_versions_[name] = ++version_;
  // A direct write invalidates any fingerprint recorded for the old value;
  // drop it so a later in-place mutation of the new container is not masked.
  field_fingerprints_.erase(name);
}

void Instance::set_field_slot(std::size_t slot, Value value) {
  // Must mirror set_field's dirty-tracking side effects exactly: delta
  // coherence reads field_versions_ to decide what to ship.
  auto it = field_slots_[slot];
  it->second = std::move(value);
  field_versions_[it->first] = ++version_;
  field_fingerprints_.erase(it->first);
}

bool Instance::has_field(const std::string& name) const {
  return fields_.count(name) > 0;
}

std::uint64_t Instance::field_version(const std::string& name) const {
  auto it = field_versions_.find(name);
  return it == field_versions_.end() ? 0 : it->second;
}

void Instance::note_field_fingerprint(const std::string& name,
                                      std::uint64_t fingerprint) const {
  auto it = field_fingerprints_.find(name);
  if (it == field_fingerprints_.end()) {
    // First observation: record without bumping — the value is whatever the
    // last set_field (or the initializer) produced, already versioned.
    field_fingerprints_[name] = fingerprint;
    return;
  }
  if (it->second != fingerprint) {
    it->second = fingerprint;
    field_versions_[name] = ++version_;
  }
}

}  // namespace psf::minilang
