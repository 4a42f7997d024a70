#include "vm/memory.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace sde::vm {

namespace {

bool idBelow(const AddressSpace::Object& object, std::uint64_t id) {
  return object.first < id;
}

}  // namespace

const AddressSpace::Objects& AddressSpace::emptyTable() {
  static const Objects empty;
  return empty;
}

const AddressSpace::Object* AddressSpace::find(std::uint64_t id) const {
  const Objects& table = objects();
  const auto it = std::lower_bound(table.begin(), table.end(), id, idBelow);
  return it != table.end() && it->first == id ? &*it : nullptr;
}

AddressSpace::Objects& AddressSpace::writableTable() {
  if (table_ == nullptr)
    table_ = std::make_shared<Objects>();
  else if (table_.use_count() > 1)
    table_ = std::make_shared<Objects>(*table_);
  return *table_;
}

void AddressSpace::place(std::uint64_t id, Cells cells) {
  Objects& table = writableTable();
  const auto it = std::lower_bound(table.begin(), table.end(), id, idBelow);
  SDE_ASSERT(it == table.end() || it->first != id,
             "object id already in use");
  table.emplace(it, id, std::make_shared<Payload>(std::move(cells)));
}

void AddressSpace::initGlobals(expr::Context& ctx, std::uint64_t cells) {
  place(kGlobalsObject, Cells(cells, ctx.constant(0, 64)));
}

std::uint64_t AddressSpace::alloc(expr::Context& ctx, std::uint64_t cells) {
  const std::uint64_t id = nextId_++;
  place(id, Cells(cells, ctx.constant(0, 64)));
  return id;
}

std::uint64_t AddressSpace::allocFrom(Cells content) {
  const std::uint64_t id = nextId_++;
  place(id, std::move(content));
  return id;
}

std::uint64_t AddressSpace::objectSize(std::uint64_t id) const {
  const Object* object = find(id);
  SDE_ASSERT(object != nullptr, "objectSize of unknown object");
  return object->second->size();
}

expr::Ref AddressSpace::load(std::uint64_t id, std::uint64_t index) const {
  const Object* object = find(id);
  SDE_ASSERT(object != nullptr, "load from unknown object");
  SDE_ASSERT(index < object->second->size(), "load out of bounds");
  return (*object->second)[index];
}

void AddressSpace::insertObject(std::uint64_t id, Cells cells) {
  place(id, std::move(cells));
}

void AddressSpace::removeObject(std::uint64_t id) {
  SDE_ASSERT(id != kGlobalsObject, "removeObject of the globals segment");
  Objects& table = writableTable();
  const auto it = std::lower_bound(table.begin(), table.end(), id, idBelow);
  SDE_ASSERT(it != table.end() && it->first == id,
             "removeObject of unknown object");
  table.erase(it);
}

void AddressSpace::store(std::uint64_t id, std::uint64_t index,
                         expr::Ref value) {
  // Copy-on-write, table first: once the table is ours, a payload's use
  // count counts the tables holding it, so a shared one is cloned.
  Objects& table = writableTable();
  const auto it = std::lower_bound(table.begin(), table.end(), id, idBelow);
  SDE_ASSERT(it != table.end() && it->first == id, "store to unknown object");
  std::shared_ptr<Payload>& payload = it->second;
  if (payload.use_count() > 1)
    payload = std::make_shared<Payload>(Cells(*payload));
  SDE_ASSERT(index < payload->size(), "store out of bounds");
  (*payload)[index] = value;
}

AddressSpace::Cells AddressSpace::read(std::uint64_t id,
                                       std::uint64_t count) const {
  const Object* object = find(id);
  SDE_ASSERT(object != nullptr, "read from unknown object");
  SDE_ASSERT(count <= object->second->size(), "read beyond object size");
  return Cells(object->second->begin(),
               object->second->begin() + static_cast<std::ptrdiff_t>(count));
}

std::uint64_t AddressSpace::contentHash() const {
  support::Hasher h;
  for (const auto& [id, payload] : objects()) {
    h.u64(id).u64(payload->size());
    for (expr::Ref cell : *payload) h.u64(cell->hash());
  }
  return h.digest();
}

std::uint64_t AddressSpace::accountBytes(support::SeenSet& seen) const {
  std::uint64_t bytes = 0;
  for (const auto& [id, payload] : objects())
    if (seen.insert(payload.get())) bytes += payload->bytes();
  return bytes;
}

void AddressSpace::restoreSnapshot(Objects objects, std::uint64_t nextId) {
  for (std::size_t i = 0; i < objects.size(); ++i) {
    SDE_ASSERT(objects[i].first < nextId, "restored object id not allocated");
    SDE_ASSERT(i == 0 || objects[i - 1].first < objects[i].first,
               "restored object table out of order");
  }
  table_ = objects.empty() ? nullptr
                           : std::make_shared<Objects>(std::move(objects));
  nextId_ = nextId;
}

}  // namespace sde::vm
