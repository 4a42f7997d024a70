#include "solver/shared_cache.hpp"

#include <algorithm>

namespace sde::solver {

SharedQueryKey makeSharedQueryKey(const QueryKey& key) {
  SharedQueryKey hashes;
  hashes.reserve(key.size());
  for (expr::Ref c : key) hashes.push_back(c->hash());
  return hashes;
}

SharedQueryResult toSharedResult(const EnumResult& result) {
  SharedQueryResult shared;
  shared.status = result.status;
  if (result.status == EnumStatus::kSat) {
    shared.model.reserve(result.model.size());
    for (const auto& [var, value] : result.model.entries())
      shared.model.push_back(
          SharedBinding{std::string(var->name()), var->width(), value});
    // The Assignment map is unordered; name order makes the shared
    // rendering canonical (names are unique within a run).
    std::sort(shared.model.begin(), shared.model.end(),
              [](const SharedBinding& a, const SharedBinding& b) {
                return a.name < b.name;
              });
  }
  return shared;
}

EnumResult fromSharedResult(expr::Context& ctx,
                            const SharedQueryResult& result) {
  EnumResult local;
  local.status = result.status;
  for (const SharedBinding& binding : result.model)
    local.model.set(ctx.variable(binding.name, binding.width), binding.value);
  return local;
}

}  // namespace sde::solver
