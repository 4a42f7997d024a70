#include "support/shared_mapping.hpp"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace sde::support {

SharedMapping::SharedMapping(std::size_t bytes)
    : base_(::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0)),
      bytes_(bytes) {
  if (base_ == MAP_FAILED)
    throw SharedMappingError("cannot map " + std::to_string(bytes) +
                             " bytes of shared memory: " +
                             std::strerror(errno));
}

SharedMapping::~SharedMapping() { ::munmap(base_, bytes_); }

}  // namespace sde::support
