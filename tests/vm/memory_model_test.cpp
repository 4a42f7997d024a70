// Model-based property test of vm::AddressSpace's two levels of
// copy-on-write (vm/memory.hpp): the object table shared between forked
// spaces, and the object payloads shared between tables.
//
// A family of copies of one space runs a random sequence of fork, alloc,
// allocFrom, store, insertObject, removeObject and destroy steps, and
// each copy is paired with a std::map model (id -> cells) that the same
// steps drive. At every step:
//  * every live copy equals its model — ids, sizes, cells, hasObject,
//    objectSize, load — so a copy that sees a sibling's write fails, and
//    its table is in ascending id order with every id below
//    nextObjectId();
//  * right after a fork the copy holds the very table of its source, and
//    so every payload pointer;
//  * a write clones the table exactly when another copy holds it, and a
//    store clones the payload exactly when another copy reaches it,
//    while the siblings keep the old table and payload;
//  * copies with equal models have equal content hashes, and an
//    objects()/restoreSnapshot round trip keeps contents and payloads;
//  * the MemoryLedger active for the run equals the payloads the audit
//    walk meets (accountBytes through one SeenSet).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "vm/memory.hpp"

namespace sde::vm {
namespace {

using Model = std::map<std::uint64_t, AddressSpace::Cells>;

struct ModelSpace {
  Model objects;
  std::uint64_t nextId = 1;
};

constexpr std::size_t kCopies = 6;
constexpr int kSteps = 300;
constexpr std::uint64_t kSeeds = 300;

// How often the operations that matter were reached: a run that never
// shares or never clones proves nothing.
struct Coverage {
  std::uint64_t sharingForks = 0;   // forks (every space has a table)
  std::uint64_t tableClones = 0;    // writes to a shared table
  std::uint64_t payloadClones = 0;  // stores to a shared payload
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
};

class Family {
 public:
  Family(std::uint64_t seed, expr::Context& ctx, Coverage& coverage)
      : rng_(seed), ctx_(ctx), coverage_(coverage) {}

  void step() {
    const std::size_t i = pick(kCopies);
    const std::size_t j = pick(kCopies);
    if (!copies_[i]) {
      copies_[i].emplace();
      copies_[i]->initGlobals(ctx_, 1 + pick(3));
      models_[i] = ModelSpace{};
      models_[i].objects.emplace(
          kGlobalsObject, AddressSpace::Cells(copies_[i]->objectSize(0),
                                              ctx_.constant(0, 64)));
    }
    switch (pick(10)) {
      case 0:
      case 1:
        return fork(i, j);
      case 2:
        return alloc(i);
      case 3:
        return allocFrom(i);
      case 4:
      case 5:
      case 6:
        return store(i);
      case 7:
        return insert(i);
      case 8:
        return remove(i);
      default:
        copies_[i].reset();
        return;
    }
  }

  // Every check that must hold between steps.
  void check(const support::MemoryLedger& ledger) const {
    support::SeenSet seen;
    std::uint64_t walked = 0;
    for (std::size_t i = 0; i < kCopies; ++i) {
      if (!copies_[i]) continue;
      SCOPED_TRACE("copy " + std::to_string(i));
      const AddressSpace& space = *copies_[i];
      const ModelSpace& model = models_[i];
      expectEqualsModel(space, model);
      expectRoundTripKeepsContentsAndPayloads(space);
      for (std::size_t k = 0; k < i; ++k)
        if (copies_[k] && models_[k].objects == model.objects)
          EXPECT_EQ(copies_[k]->contentHash(), space.contentHash());
      walked += space.accountBytes(seen);
    }
    EXPECT_EQ(ledger.bytes(), walked);
  }

 private:
  std::size_t pick(std::size_t n) { return rng_() % n; }

  expr::Ref randomCell() {
    return pick(3) == 0 ? ctx_.variable("v" + std::to_string(pick(4)), 64)
                        : ctx_.constant(pick(5), 64);
  }

  static void expectEqualsModel(const AddressSpace& space,
                                const ModelSpace& model) {
    EXPECT_EQ(space.nextObjectId(), model.nextId);
    ASSERT_EQ(space.numObjects(), model.objects.size());
    auto it = model.objects.begin();
    std::uint64_t previous = 0;
    bool first = true;
    for (const auto& [id, payload] : space.objects()) {
      EXPECT_TRUE(first || id > previous) << "table out of order at " << id;
      EXPECT_LT(id, space.nextObjectId());
      first = false;
      previous = id;
      ASSERT_EQ(id, it->first);
      EXPECT_EQ(AddressSpace::Cells(payload->begin(), payload->end()),
                it->second);
      EXPECT_TRUE(space.hasObject(id));
      ASSERT_EQ(space.objectSize(id), it->second.size());
      for (std::size_t c = 0; c < it->second.size(); ++c)
        EXPECT_EQ(space.load(id, c), it->second[c]);
      ++it;
    }
    EXPECT_FALSE(space.hasObject(model.nextId));
  }

  // Rebuilds `space` the way a checkpoint restore does: the same
  // payloads in a table of its own.
  static void expectRoundTripKeepsContentsAndPayloads(
      const AddressSpace& space) {
    AddressSpace restored;
    restored.restoreSnapshot(space.objects(), space.nextObjectId());
    EXPECT_EQ(restored.contentHash(), space.contentHash());
    EXPECT_EQ(restored.numObjects(), space.numObjects());
    support::SeenSet seen;
    (void)space.accountBytes(seen);
    EXPECT_EQ(restored.accountBytes(seen), 0u)
        << "a restored payload is not the original's";
  }

  // Live copies other than `self` whose table is `table`.
  std::size_t tableSharers(std::size_t self,
                           const AddressSpace::Objects* table) const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < kCopies; ++k)
      if (k != self && copies_[k] && &copies_[k]->objects() == table) ++n;
    return n;
  }

  // Live copies other than `self` that reach `payload`.
  std::size_t payloadHolders(std::size_t self, const void* payload) const {
    std::size_t n = 0;
    for (std::size_t k = 0; k < kCopies; ++k) {
      if (k == self || !copies_[k]) continue;
      for (const auto& [id, held] : copies_[k]->objects())
        if (held.get() == payload) ++n;
    }
    return n;
  }

  // Runs a write on copy i and checks the table discipline: a table
  // another copy holds is cloned (the holders keep it), one held by i
  // alone is written in place.
  template <typename Write>
  void write(std::size_t i, Write writeSpace) {
    const AddressSpace::Objects* before = &copies_[i]->objects();
    const std::size_t sharers = tableSharers(i, before);
    writeSpace(*copies_[i]);
    const AddressSpace::Objects* after = &copies_[i]->objects();
    if (sharers > 0) {
      EXPECT_NE(after, before) << "a shared table was written in place";
      EXPECT_EQ(tableSharers(i, before), sharers)
          << "a sibling lost the table it shared";
      ++coverage_.tableClones;
    } else {
      EXPECT_EQ(after, before) << "an owned table was cloned";
    }
  }

  void fork(std::size_t from, std::size_t to) {
    if (from == to) return;
    copies_[to].emplace(*copies_[from]);
    models_[to] = models_[from];
    const AddressSpace& source = *copies_[from];
    const AddressSpace& copy = *copies_[to];
    EXPECT_EQ(&copy.objects(), &source.objects()) << "a fork copied the table";
    ASSERT_EQ(copy.numObjects(), source.numObjects());
    for (std::size_t k = 0; k < copy.numObjects(); ++k)
      EXPECT_EQ(copy.objects()[k].second, source.objects()[k].second)
          << "a fork copied a payload";
    ++coverage_.sharingForks;
  }

  void alloc(std::size_t i) {
    const std::uint64_t cells = 1 + pick(4);
    write(i, [&](AddressSpace& space) {
      const std::uint64_t id = space.alloc(ctx_, cells);
      EXPECT_EQ(id, models_[i].nextId);
      models_[i].objects.emplace(
          id, AddressSpace::Cells(cells, ctx_.constant(0, 64)));
      ++models_[i].nextId;
    });
  }

  void allocFrom(std::size_t i) {
    AddressSpace::Cells content(1 + pick(4));
    for (expr::Ref& cell : content) cell = randomCell();
    write(i, [&](AddressSpace& space) {
      const std::uint64_t id = space.allocFrom(content);
      EXPECT_EQ(id, models_[i].nextId);
      models_[i].objects.emplace(id, content);
      ++models_[i].nextId;
    });
  }

  // A store clones the touched payload exactly when another copy
  // reaches it.
  void store(std::size_t i) {
    Model& model = models_[i].objects;
    auto it = model.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(model.size())));
    const std::uint64_t id = it->first;
    const std::size_t index = pick(it->second.size());
    const expr::Ref value = randomCell();
    const auto payloadOf = [&]() -> const void* {
      for (const auto& [held, payload] : copies_[i]->objects())
        if (held == id) return payload.get();
      return nullptr;
    };
    const void* before = payloadOf();
    const std::size_t holders = payloadHolders(i, before);
    write(i, [&](AddressSpace& space) {
      space.store(id, index, value);
      it->second[index] = value;
    });
    if (holders > 0) {
      EXPECT_NE(payloadOf(), before) << "a shared payload was stored in "
                                        "place";
      EXPECT_EQ(payloadHolders(i, before), holders)
          << "a sibling lost the payload it shared";
      ++coverage_.payloadClones;
    } else {
      EXPECT_EQ(payloadOf(), before) << "an owned payload was cloned";
    }
  }

  // insertObject under a free id, as a merge does with the other arm's
  // phantom object, then the allocator moves past it.
  void insert(std::size_t i) {
    ModelSpace& model = models_[i];
    const std::uint64_t id = 1 + pick(model.nextId + 2);
    if (model.objects.contains(id)) return;
    AddressSpace::Cells cells(1 + pick(3));
    for (expr::Ref& cell : cells) cell = randomCell();
    write(i, [&](AddressSpace& space) {
      space.insertObject(id, cells);
      model.objects.emplace(id, cells);
    });
    model.nextId = std::max(model.nextId, id + 1);
    copies_[i]->setNextObjectId(model.nextId);
    ++coverage_.inserts;
  }

  void remove(std::size_t i) {
    Model& model = models_[i].objects;
    if (model.size() < 2) return;  // never the globals segment
    auto it = model.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(1 + pick(model.size() - 1)));
    const std::uint64_t id = it->first;
    write(i, [&](AddressSpace& space) {
      space.removeObject(id);
      model.erase(it);
    });
    ++coverage_.removes;
  }

  std::mt19937_64 rng_;
  expr::Context& ctx_;
  Coverage& coverage_;
  std::array<std::optional<AddressSpace>, kCopies> copies_;
  std::array<ModelSpace, kCopies> models_;
};

TEST(AddressSpaceModelTest, RandomOperationsMatchAStdMapModel) {
  expr::Context ctx;
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    support::MemoryLedger* ledger = support::MemoryLedger::create();
    {
      const support::MemoryLedger::Scope scope(ledger);
      Family family(seed, ctx, coverage);
      for (int step = 0; step < kSteps; ++step) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                     std::to_string(step));
        family.step();
        family.check(*ledger);
        if (::testing::Test::HasFailure()) break;
      }
    }
    EXPECT_EQ(ledger->bytes(), 0u) << "seed " << seed << " leaked a payload";
    ledger->release();
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(coverage.sharingForks, 0u);
  EXPECT_GT(coverage.tableClones, 0u);
  EXPECT_GT(coverage.payloadClones, 0u);
  EXPECT_GT(coverage.inserts, 0u);
  EXPECT_GT(coverage.removes, 0u);
}

}  // namespace
}  // namespace sde::vm
