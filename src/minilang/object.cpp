#include "minilang/object.hpp"

#include <algorithm>
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

std::ptrdiff_t FieldLayout::slot_of(const std::string& name) const {
  auto it = std::lower_bound(
      fields.begin(), fields.end(), name,
      [](const Field& f, const std::string& n) { return f.name < n; });
  if (it == fields.end() || it->name != name) return -1;
  return it - fields.begin();
}

void ClassRegistry::register_class(std::shared_ptr<ClassDef> cls) {
  // Ensure every method has its bytecode slot before the class becomes
  // reachable: registration is single-threaded setup, so the engine's lazy
  // compile never has to create (and race on) the shared_ptr itself.
  for (auto& m : cls->methods) {
    if (m.compiled == nullptr) m.compiled = std::make_shared<CompiledSlot>();
  }
  classes_[cls->name] = std::move(cls);
  std::lock_guard<std::mutex> lock(layouts_mu_);
  layouts_.clear();
}

void ClassRegistry::unregister_class(const std::string& name) {
  classes_.erase(name);
  std::lock_guard<std::mutex> lock(layouts_mu_);
  layouts_.clear();
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

std::shared_ptr<const FieldLayout> ClassRegistry::layout(
    const ClassDef& cls) const {
  std::lock_guard<std::mutex> lock(layouts_mu_);
  std::shared_ptr<const FieldLayout>& cached = layouts_[cls.name];
  if (cached != nullptr) return cached;
  // Most-derived class first, so a base class's initializer, assigned
  // later, wins for a name declared on both.
  std::map<std::string, Value> initial;
  for (const auto& c : chain(cls)) {
    for (const auto& f : c->fields) initial[f.name] = f.initial;
  }
  auto out = std::make_shared<FieldLayout>();
  out->fields.reserve(initial.size());
  for (auto& [name, value] : initial) {
    out->fields.push_back({name, std::move(value)});
  }
  cached = std::move(out);
  return cached;
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
    : cls_(std::move(cls)),
      registry_(registry),
      layout_(registry_->layout(*cls_)),
      uid_(next_instance_uid()) {
  slots_.reserve(layout_->fields.size());
  for (const FieldLayout::Field& f : layout_->fields) {
    slots_.push_back(Slot{f.initial});
  }
}

std::size_t Instance::slot_of(const std::string& name) const {
  const std::ptrdiff_t slot = layout_->slot_of(name);
  if (slot < 0) throw EvalError("no field '" + name + "' on " + cls_->name);
  return static_cast<std::size_t>(slot);
}

Value Instance::get_field(const std::string& name) const {
  return get_field_slot(slot_of(name));
}

void Instance::set_field(const std::string& name, Value value) {
  set_field_slot(slot_of(name), std::move(value));
}

void Instance::set_field_slot(std::size_t slot, Value value) {
  Slot& s = slots_[slot];
  s.value = std::move(value);
  s.version = ++version_;
  // A direct write invalidates any fingerprint recorded for the old value;
  // drop it so a later in-place mutation of the new container is not masked.
  s.fingerprint = 0;
}

bool Instance::has_field(const std::string& name) const {
  return layout_->slot_of(name) >= 0;
}

void Instance::note_field_fingerprint(std::size_t slot,
                                      std::uint64_t fingerprint) const {
  Slot& s = slots_[slot];
  if (fingerprint == 0) fingerprint = 1;  // 0 is the "none recorded" mark
  if (s.fingerprint == 0) {
    // First observation: record without bumping — the value is whatever the
    // last write (or the initializer) produced, already versioned.
    s.fingerprint = fingerprint;
  } else if (s.fingerprint != fingerprint) {
    s.fingerprint = fingerprint;
    s.version = ++version_;
  }
}

}  // namespace psf::minilang
