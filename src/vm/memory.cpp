#include "vm/memory.hpp"

namespace sde::vm {

void AddressSpace::initGlobals(expr::Context& ctx, std::uint64_t cells) {
  SDE_ASSERT(!objects_.contains(kGlobalsObject), "globals initialised twice");
  objects_.emplace(kGlobalsObject, std::make_shared<Payload>(
                                       Cells(cells, ctx.constant(0, 64))));
}

std::uint64_t AddressSpace::alloc(expr::Context& ctx, std::uint64_t cells) {
  const std::uint64_t id = nextId_++;
  objects_.emplace(
      id, std::make_shared<Payload>(Cells(cells, ctx.constant(0, 64))));
  return id;
}

std::uint64_t AddressSpace::allocFrom(Cells content) {
  const std::uint64_t id = nextId_++;
  objects_.emplace(id, std::make_shared<Payload>(std::move(content)));
  return id;
}

std::uint64_t AddressSpace::objectSize(std::uint64_t id) const {
  const auto it = objects_.find(id);
  SDE_ASSERT(it != objects_.end(), "objectSize of unknown object");
  return it->second->size();
}

expr::Ref AddressSpace::load(std::uint64_t id, std::uint64_t index) const {
  const auto it = objects_.find(id);
  SDE_ASSERT(it != objects_.end(), "load from unknown object");
  SDE_ASSERT(index < it->second->size(), "load out of bounds");
  return (*it->second)[index];
}

std::shared_ptr<AddressSpace::Payload>& AddressSpace::mutableObject(
    std::uint64_t id) {
  const auto it = objects_.find(id);
  SDE_ASSERT(it != objects_.end(), "store to unknown object");
  // Copy-on-write: clone the payload if any other state still shares it.
  if (it->second.use_count() > 1)
    it->second = std::make_shared<Payload>(Cells(*it->second));
  return it->second;
}

void AddressSpace::insertObject(std::uint64_t id, Cells cells) {
  SDE_ASSERT(!objects_.contains(id), "insertObject over existing object");
  objects_.emplace(id, std::make_shared<Payload>(std::move(cells)));
}

void AddressSpace::removeObject(std::uint64_t id) {
  SDE_ASSERT(objects_.contains(id), "removeObject of unknown object");
  SDE_ASSERT(id != kGlobalsObject, "removeObject of the globals segment");
  objects_.erase(id);
}

void AddressSpace::store(std::uint64_t id, std::uint64_t index,
                         expr::Ref value) {
  auto& payload = mutableObject(id);
  SDE_ASSERT(index < payload->size(), "store out of bounds");
  (*payload)[index] = value;
}

AddressSpace::Cells AddressSpace::read(std::uint64_t id,
                                       std::uint64_t count) const {
  const auto it = objects_.find(id);
  SDE_ASSERT(it != objects_.end(), "read from unknown object");
  SDE_ASSERT(count <= it->second->size(), "read beyond object size");
  return Cells(it->second->begin(),
               it->second->begin() + static_cast<std::ptrdiff_t>(count));
}

std::uint64_t AddressSpace::contentHash() const {
  support::Hasher h;
  for (const auto& [id, payload] : objects_) {
    h.u64(id).u64(payload->size());
    for (expr::Ref cell : *payload) h.u64(cell->hash());
  }
  return h.digest();
}

std::uint64_t AddressSpace::accountBytes(support::SeenSet& seen) const {
  std::uint64_t bytes = 0;
  for (const auto& [id, payload] : objects_)
    if (seen.insert(payload.get())) bytes += payload->bytes();
  return bytes;
}

}  // namespace sde::vm
