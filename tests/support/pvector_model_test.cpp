// Model-based property test of the persistent containers behind
// ExecutionState::fork (support/pvector.hpp), with std::vector as the
// reference.
//
// A family of copies of one PVector or CowVec runs a random sequence of
// push, pop, erase, eraseIf, clear, copy, assign, move and destroy, and
// each copy is paired with a std::vector model that the same operations
// drive. After every step:
//  * every live copy equals its model, so a copy that observes a
//    sibling's mutation (aliasing) fails;
//  * the fork-cost reports match the structure: copyCostElements() is
//    the tail, sharedChunksOnCopy() the chunk count (PVector) or the
//    payload (CowVec); a copy holds the same spine and tail, or payload,
//    pointer; a CowVec mutation clones a shared payload and only that;
//    a PVector push clones a shared tail, once and at the tail's size,
//    while the siblings keep sharing the old one;
//  * a spine()/tail() (raw()) and restoreSnapshot round trip keeps the
//    contents and the sharing;
//  * the MemoryLedger active for the run equals the blocks the audit walk
//    meets: accountBytes through one SeenSet, minus each copy's private
//    bytes.
// Sharing must be invisible in the contents, which the model checks, and
// visible in the structure, which pointer identity checks.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "support/pvector.hpp"

namespace sde::support {
namespace {

// Prices an element by value, so that an erase re-billing the wrong
// element shows up in the ledger.
struct ValueBytes {
  static std::uint64_t of(std::uint64_t value) { return 8 + value % 5; }
};

using Seq = PVector<std::uint64_t>;
using Cow = CowVec<std::uint64_t, ValueBytes>;
using Model = std::vector<std::uint64_t>;
constexpr std::size_t kChunk = Seq::chunkCapacity();

constexpr std::size_t kCopies = 6;
constexpr int kSteps = 400;
constexpr std::uint64_t kSeeds = 400;

// --- Per-container structure ------------------------------------------------------

// The block a copy shares with its source: the spine, or the payload.
const void* sharedRoot(const Seq& seq) { return seq.spine(); }
const void* sharedRoot(const Cow& cow) { return cow.raw().get(); }

// The unsealed tail a PVector copy shares with its source (null when
// empty); a CowVec has none.
const void* sharedTail(const Seq& seq) { return seq.tail().data(); }
const void* sharedTail(const Cow&) { return nullptr; }

// Bytes billed to the container alone; a CowVec's payload is all it has.
std::uint64_t privateBytesOf(const Seq& seq) { return seq.privateBytes(); }
std::uint64_t privateBytesOf(const Cow&) { return 0; }

void expectReportsMatchStructure(const Seq& seq, const Model& model) {
  EXPECT_EQ(seq.tailSize(), model.size() % kChunk);
  EXPECT_EQ(seq.numChunks(), model.size() / kChunk);
  EXPECT_EQ(seq.copyCostElements(), seq.tailSize());
  EXPECT_EQ(seq.sharedChunksOnCopy(), seq.numChunks());
  EXPECT_EQ(seq.spine() == nullptr, seq.numChunks() == 0);
}
void expectReportsMatchStructure(const Cow& cow, const Model&) {
  EXPECT_EQ(cow.sharedChunksOnCopy(), cow.raw() != nullptr ? 1u : 0u);
}

// Rebuilds `seq` the way a checkpoint restore does: a fresh spine over
// the same chunks, and a copy of the tail.
void expectRoundTripKeepsContentsAndSharing(const Seq& seq) {
  std::shared_ptr<const Seq::Spine> spine;
  if (seq.spine() != nullptr)
    spine = std::make_shared<const Seq::Spine>(*seq.spine());
  Seq restored;
  restored.restoreSnapshot(std::move(spine), seq.tail());
  EXPECT_EQ(Model(restored.begin(), restored.end()),
            Model(seq.begin(), seq.end()));
  SeenSet seen;
  (void)seq.accountBytes(seen);
  EXPECT_EQ(restored.accountBytes(seen), restored.privateBytes())
      << "a restored chunk is not the original's";
}
void expectRoundTripKeepsContentsAndSharing(const Cow& cow) {
  Cow restored;
  restored.restoreSnapshot(cow.raw());
  EXPECT_EQ(restored.view(), cow.view());
  SeenSet seen;
  (void)cow.accountBytes(seen);
  EXPECT_EQ(restored.accountBytes(seen), 0u)
      << "the restored payload is not the original's";
}

// --- The family of copies ---------------------------------------------------------

// How often the operations that matter were reached: a run that never
// shares or never clones proves nothing.
struct Coverage {
  std::uint64_t sharingCopies = 0;  // copies of a container with a root
  std::uint64_t seals = 0;          // PVector pushes that sealed a chunk
  std::uint64_t clones = 0;         // CowVec mutations of a shared payload
  std::uint64_t tailClones = 0;     // PVector pushes on a shared tail
};

template <typename Container>
class Family {
 public:
  Family(std::uint64_t seed, Coverage& coverage)
      : rng_(seed), coverage_(coverage) {}

  void step() {
    const std::size_t i = pick(kCopies);
    const std::size_t j = pick(kCopies);
    if (!copies_[i]) {
      copies_[i].emplace();
      models_[i].clear();
    }
    switch (pick(kEditing ? 10 : 6)) {
      case 0:
      case 1:
      case 2:
        return push(i);
      case 3:
        return copy(i, j);
      case 4:
        return pick(2) == 0 ? assign(i, j) : move(i, j);
      case 5:
        copies_[i].reset();
        models_[i].clear();
        return;
      default:
        if constexpr (kEditing) edit(i);
        return;
    }
  }

  // Every check that must hold between steps.
  void check(const MemoryLedger& ledger) const {
    SeenSet seen;
    std::uint64_t blocks = 0;
    for (std::size_t i = 0; i < kCopies; ++i) {
      if (!copies_[i]) continue;
      const Container& c = *copies_[i];
      const Model& model = models_[i];
      SCOPED_TRACE("copy " + std::to_string(i));
      EXPECT_EQ(Model(c.begin(), c.end()), model);
      ASSERT_EQ(c.size(), model.size());
      EXPECT_EQ(c.empty(), model.empty());
      if (!model.empty()) {
        EXPECT_EQ(c.back(), model.back());
        const std::size_t k = model.size() / 2;
        EXPECT_EQ(c[k], model[k]);
      }
      expectReportsMatchStructure(c, model);
      expectRoundTripKeepsContentsAndSharing(c);
      blocks += c.accountBytes(seen) - privateBytesOf(c);
    }
    EXPECT_EQ(ledger.bytes(), blocks);
  }

 private:
  static constexpr bool kEditing = std::is_same_v<Container, Cow>;

  std::size_t pick(std::size_t n) { return rng_() % n; }

  // Runs `mutation` on copy i and checks pay-on-write: a CowVec clones a
  // payload it shares and edits one it owns in place; a PVector swaps in
  // a new spine exactly when a push seals a chunk, and clones a tail it
  // shares — one clone, at the tail's size — leaving the siblings on
  // the old one.
  template <typename Mutation>
  void mutate(std::size_t i, Mutation mutation) {
    Container& c = *copies_[i];
    const void* before = sharedRoot(c);
    const bool shared = before != nullptr && sharers(before) > 1;
    const void* tailBefore = sharedTail(c);
    const std::size_t tailSharers =
        tailBefore == nullptr ? 0 : tailHolders(tailBefore);
    const Model old = models_[i];
    mutation(c, models_[i]);
    const void* after = sharedRoot(c);
    if (models_[i] == old) {
      EXPECT_EQ(after, before) << "a no-op mutation changed the storage";
    } else if constexpr (kEditing) {
      if (shared) {
        EXPECT_NE(after, before) << "a shared payload was edited in place";
        ++coverage_.clones;
      } else if (before != nullptr) {
        EXPECT_EQ(after, before) << "an owned payload was cloned";
      }
    } else {
      const bool sealed = models_[i].size() % kChunk == 0;
      EXPECT_EQ(after != before, sealed);
      coverage_.seals += sealed ? 1 : 0;
      if (tailSharers > 1) {
        EXPECT_NE(sharedTail(c), tailBefore) << "a shared tail was pushed "
                                                "in place";
        EXPECT_EQ(tailHolders(tailBefore), tailSharers - 1)
            << "a sibling lost the tail it shared";
        if (!sealed) {
          EXPECT_EQ(c.tail().capacity(), c.tailSize())
              << "the tail clone is not at the tail's size";
        }
        ++coverage_.tailClones;
      }
    }
  }

  std::size_t sharers(const void* root) const {
    std::size_t n = 0;
    for (const std::optional<Container>& c : copies_)
      if (c && sharedRoot(*c) == root) ++n;
    return n;
  }

  std::size_t tailHolders(const void* tail) const {
    std::size_t n = 0;
    for (const std::optional<Container>& c : copies_)
      if (c && sharedTail(*c) == tail) ++n;
    return n;
  }

  void push(std::size_t i) {
    const std::uint64_t value = rng_() % 1000;
    mutate(i, [value](Container& c, Model& model) {
      c.push_back(value);
      model.push_back(value);
    });
  }

  // A copy or assignment holds the source's spine or payload, and tail.
  void expectSharesWith(std::size_t to, std::size_t from) {
    const void* root = sharedRoot(*copies_[from]);
    EXPECT_EQ(sharedRoot(*copies_[to]), root);
    EXPECT_EQ(sharedTail(*copies_[to]), sharedTail(*copies_[from]));
    if (root != nullptr || sharedTail(*copies_[from]) != nullptr)
      ++coverage_.sharingCopies;
  }

  void copy(std::size_t from, std::size_t to) {
    if (from == to) return;
    copies_[to].emplace(*copies_[from]);
    models_[to] = models_[from];
    expectSharesWith(to, from);
  }

  void assign(std::size_t from, std::size_t to) {  // to == from: self-assign
    if (!copies_[to]) copies_[to].emplace();
    *copies_[to] = *copies_[from];
    models_[to] = models_[from];
    expectSharesWith(to, from);
  }

  void move(std::size_t from, std::size_t to) {
    if (from == to) return;
    const void* root = sharedRoot(*copies_[from]);
    const void* tail = sharedTail(*copies_[from]);
    copies_[to] = std::move(copies_[from]);
    copies_[from].reset();
    models_[to] = std::move(models_[from]);
    models_[from].clear();
    EXPECT_EQ(sharedRoot(*copies_[to]), root) << "a move copied the storage";
    EXPECT_EQ(sharedTail(*copies_[to]), tail) << "a move copied the tail";
  }

  // The CowVec-only edits (the event queue's pop, erase, eraseIf, clear).
  void edit(std::size_t i) {
    const Model& model = models_[i];
    switch (pick(4)) {
      case 0:
        if (model.empty()) return;
        return mutate(i, [](Container& c, Model& m) {
          c.pop_back();
          m.pop_back();
        });
      case 1: {
        if (model.empty()) return;
        const std::size_t at = pick(model.size());
        return mutate(i, [at](Container& c, Model& m) {
          c.erase(c.begin() + static_cast<std::ptrdiff_t>(at));
          m.erase(m.begin() + static_cast<std::ptrdiff_t>(at));
        });
      }
      case 2: {
        const std::uint64_t mod = 2 + pick(6);
        const std::uint64_t rest = pick(mod);
        const auto pred = [mod, rest](std::uint64_t v) {
          return v % mod == rest;
        };
        return mutate(i, [pred](Container& c, Model& m) {
          EXPECT_EQ(c.eraseIf(pred), std::erase_if(m, pred));
        });
      }
      default:
        copies_[i]->clear();
        models_[i].clear();
        EXPECT_EQ(copies_[i]->raw(), nullptr);
        return;
    }
  }

  std::mt19937_64 rng_;
  Coverage& coverage_;
  std::array<std::optional<Container>, kCopies> copies_;
  std::array<Model, kCopies> models_;
};

template <typename Container>
Coverage runSeeds() {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    MemoryLedger* ledger = MemoryLedger::create();
    {
      const MemoryLedger::Scope scope(ledger);
      Family<Container> family(seed, coverage);
      for (int step = 0; step < kSteps; ++step) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                     std::to_string(step));
        family.step();
        family.check(*ledger);
        if (::testing::Test::HasFailure()) break;
      }
    }
    EXPECT_EQ(ledger->bytes(), 0u) << "seed " << seed << " leaked a block";
    ledger->release();
    if (::testing::Test::HasFailure()) break;
  }
  return coverage;
}

TEST(PVectorModelTest, RandomOperationsMatchAStdVectorModel) {
  const Coverage coverage = runSeeds<Seq>();
  EXPECT_GT(coverage.sharingCopies, 0u);
  EXPECT_GT(coverage.seals, 0u);
  EXPECT_GT(coverage.tailClones, 0u);
}

TEST(CowVecModelTest, RandomOperationsMatchAStdVectorModel) {
  const Coverage coverage = runSeeds<Cow>();
  EXPECT_GT(coverage.sharingCopies, 0u);
  EXPECT_GT(coverage.clones, 0u);
}

}  // namespace
}  // namespace sde::support
