// One anonymous shared mapping: zero-filled memory that the process
// which makes it and every process it forks afterwards see as the same
// bytes. The shared query store (solver/shm_cache.hpp) and the live
// metrics plane (obs/metrics_shm.hpp) each hold one, made by the
// process that reads it before it forks the processes that write it.
//
// A mapping has no name, so nothing outside that process tree can open
// it and nothing has to validate it: its geometry lives in the C++
// object that holds it, which fork copies along with the mapping. It is
// gone once the last process that maps it unmaps it or exits, however
// that process ends — nothing is ever left in /dev/shm.
#pragma once

#include <cstddef>
#include <stdexcept>

namespace sde::support {

// The kernel refused the mapping (address space or memory limits).
class SharedMappingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class SharedMapping {
 public:
  // Maps `bytes` (> 0) of zero-filled memory, MAP_SHARED. Throws
  // SharedMappingError when the mapping cannot be made.
  explicit SharedMapping(std::size_t bytes);
  ~SharedMapping();
  SharedMapping(const SharedMapping&) = delete;
  SharedMapping& operator=(const SharedMapping&) = delete;

  [[nodiscard]] void* data() const { return base_; }
  [[nodiscard]] std::size_t size() const { return bytes_; }

 private:
  void* base_;
  std::size_t bytes_;
};

}  // namespace sde::support
