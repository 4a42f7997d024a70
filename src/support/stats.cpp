#include "support/stats.hpp"

#include <mutex>
#include <sstream>

namespace sde::support {

namespace {

// The process-wide name table. Entries are append-only; every read and
// write holds the mutex (renderings take it once per call).
struct NameTable {
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
  };

  std::mutex mutex;
  std::map<std::string, StatsRegistry::Id, std::less<>> ids;
  std::vector<Entry> entries;
};

NameTable& nameTable() {
  // Leaked: registries in static storage may render after exit begins.
  static NameTable* table = new NameTable();
  return *table;
}

}  // namespace

StatsRegistry::Id StatsRegistry::id(std::string_view name, MetricKind kind) {
  NameTable& table = nameTable();
  const std::lock_guard<std::mutex> lock(table.mutex);
  const auto it = table.ids.find(name);
  if (it != table.ids.end()) return it->second;
  const auto id = static_cast<Id>(table.entries.size());
  table.entries.push_back({std::string(name), kind});
  table.ids.emplace(std::string(name), id);
  return id;
}

void StatsRegistry::grow(Id id) { cells_.resize(std::size_t{id} + 1); }

Histogram& StatsRegistry::histogramOf(Cell& c) {
  if (c.histogram == 0) {
    histograms_.emplace_back();
    c.histogram = static_cast<std::uint32_t>(histograms_.size());
  }
  return histograms_[c.histogram - 1];
}

void StatsRegistry::observe(Id id, std::uint64_t value) {
  histogramOf(counted(id)).observe(value);
}

std::uint64_t StatsRegistry::get(std::string_view name) const {
  NameTable& table = nameTable();
  const std::lock_guard<std::mutex> lock(table.mutex);
  const auto it = table.ids.find(name);
  return it == table.ids.end() ? 0 : get(it->second);
}

std::map<std::string, std::uint64_t> StatsRegistry::all() const {
  std::map<std::string, std::uint64_t> out;
  for (Series& s : series())
    if (s.histogram == nullptr) out.emplace(std::move(s.name), s.value);
  return out;
}

std::string StatsRegistry::report() const {
  std::ostringstream os;
  for (const auto& [name, value] : all()) os << name << " = " << value << '\n';
  return os.str();
}

void StatsRegistry::mergeFrom(const StatsRegistry& other) {
  NameTable& table = nameTable();
  const std::lock_guard<std::mutex> lock(table.mutex);
  for (Id id = 0; id < other.cells_.size(); ++id) {
    const Cell& theirs = other.cells_[id];
    if (!theirs.counted) continue;
    Cell& mine = counted(id);
    if (theirs.histogram != 0)
      histogramOf(mine).merge(other.histograms_[theirs.histogram - 1]);
    else
      foldCounter(table.entries[id].name, mine.value, theirs.value);
  }
}

std::vector<StatsRegistry::Series> StatsRegistry::series() const {
  std::vector<Series> out;
  {
    NameTable& table = nameTable();
    const std::lock_guard<std::mutex> lock(table.mutex);
    for (Id id = 0; id < cells_.size(); ++id) {
      const Cell& c = cells_[id];
      if (!c.counted) continue;
      const NameTable::Entry& entry = table.entries[id];
      if (c.histogram != 0)
        out.push_back({entry.name, MetricKind::kHistogram, 0,
                       &histograms_[c.histogram - 1]});
      else
        out.push_back({entry.name, entry.kind, c.value, nullptr});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Series& a, const Series& b) { return a.name < b.name; });
  return out;
}

}  // namespace sde::support
