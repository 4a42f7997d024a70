// Object-granular copy-on-write memory, with a copy-on-write object
// table on top.
//
// An AddressSpace maps object ids to arrays of 64-bit symbolic cells.
// Copy-on-write works at two levels. The object table (one id-sorted
// flat vector of id/payload pairs) is shared whole between forked
// spaces, so a fork takes one reference; the first change to either
// side's table — alloc, allocFrom, insertObject, removeObject or a store
// — clones the table. A store then copies the touched object only if
// another table still holds its payload (the same COW discipline KLEE
// applies per memory object): a payload's use count counts tables, not
// states, so the rule holds whether or not the tables are shared. Most
// forked states never write memory again and keep their parent's table.
// Object ids are allocated deterministically per state, so identical
// logical executions produce identical address spaces — a property the
// cross-algorithm equivalence checks depend on.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "expr/context.hpp"
#include "support/hash.hpp"
#include "support/memory_ledger.hpp"

namespace sde::vm {

// Object 0 is always the node's globals segment.
inline constexpr std::uint64_t kGlobalsObject = 0;

class AddressSpace {
 public:
  using Cells = std::vector<expr::Ref>;
  // An object's payload: its cells in a billed block, shared between
  // forked spaces until a store copies it.
  using Payload = support::BilledVector<expr::Ref>;
  // One object: its id and its payload.
  using Object = std::pair<std::uint64_t, std::shared_ptr<Payload>>;
  // The object table: every id at most once, in ascending id order, each
  // below nextObjectId().
  using Objects = std::vector<Object>;

  // Creates the globals segment (object 0) zero-filled.
  void initGlobals(expr::Context& ctx, std::uint64_t cells);

  // Allocates a fresh zero-filled object; returns its id.
  std::uint64_t alloc(expr::Context& ctx, std::uint64_t cells);
  // Allocates a fresh object holding `content` (packet materialisation).
  std::uint64_t allocFrom(Cells content);

  [[nodiscard]] bool hasObject(std::uint64_t id) const {
    return find(id) != nullptr;
  }
  [[nodiscard]] std::uint64_t objectSize(std::uint64_t id) const;

  [[nodiscard]] expr::Ref load(std::uint64_t id, std::uint64_t index) const;
  void store(std::uint64_t id, std::uint64_t index, expr::Ref value);

  // --- State-merging support -------------------------------------------------
  // Inserts an object under a caller-chosen id (a phantom object the
  // merge partner allocated on its arm); the id must be free.
  void insertObject(std::uint64_t id, Cells cells);
  // Drops an object (splitting a merged state back onto the arm that
  // never allocated it). The id must exist.
  void removeObject(std::uint64_t id);
  // Merged spaces advance the allocator to the max of both arms so both
  // replay futures allocate non-clashing ids.
  void setNextObjectId(std::uint64_t next) { nextId_ = next; }

  // Reads cells [0, count) of an object (packet payload extraction).
  [[nodiscard]] Cells read(std::uint64_t id, std::uint64_t count) const;

  // Content fingerprint: object ids, sizes and cell structural hashes.
  [[nodiscard]] std::uint64_t contentHash() const;

  // The audit walk: bytes of every payload `seen` meets first (a space
  // bills nothing privately; the memory ledger meters the payloads).
  [[nodiscard]] std::uint64_t accountBytes(support::SeenSet& seen) const;

  [[nodiscard]] std::size_t numObjects() const { return objects().size(); }

  // --- Snapshot support ----------------------------------------------------
  // The raw object table (ordered by id). The snapshot layer serializes
  // payloads through a pointer-identity blob table so that objects
  // shared copy-on-write between forked states stay shared after
  // restore — the meter must bill them once, exactly as in the original
  // run. (The tables themselves are not shared again after a restore.)
  // Spaces that share a table return the same object.
  [[nodiscard]] const Objects& objects() const {
    return table_ == nullptr ? emptyTable() : *table_;
  }
  [[nodiscard]] std::uint64_t nextObjectId() const { return nextId_; }
  // `objects` must keep the table's order and id rules (the checkpoint
  // decoder checks them on untrusted bytes).
  void restoreSnapshot(Objects objects, std::uint64_t nextId);

 private:
  static const Objects& emptyTable();
  // The entry of `id`, or nullptr.
  [[nodiscard]] const Object* find(std::uint64_t id) const;
  // The table, ours alone: cloned first if another space shares it.
  Objects& writableTable();
  // Appends or inserts a fresh object under a free id.
  void place(std::uint64_t id, Cells cells);

  std::shared_ptr<Objects> table_;  // null = no objects
  std::uint64_t nextId_ = 1;
};

}  // namespace sde::vm
