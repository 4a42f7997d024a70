// Mutation battery for byte decoders: every truncation and every
// single-bit flip of a real encoding must decode or be rejected with the
// decoder's typed error — never with another exception (a
// std::length_error or std::bad_alloc from trusting a corrupt count,
// say), a crash or a hang. Shared by the durable-file, trace, metrics
// and serve-frame batteries.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

namespace sde::test {

// True when `decode` returns or throws Error; false for any other
// exception.
template <typename Error>
bool decodesOrRejects(const std::function<void()>& decode) {
  try {
    decode();
  } catch (const Error&) {
  } catch (...) {
    return false;
  }
  return true;
}

// Every truncation and every single-bit flip of `bytes` decodes or is
// rejected by `decode` with Error. `flips` masks the bits flipped in each
// byte.
template <typename Error>
void expectEveryMutantDecodesOrIsRejected(
    const std::string& bytes,
    const std::function<void(const std::string&)>& decode,
    std::uint8_t flips = 0xff) {
  for (std::size_t length = 0; length < bytes.size(); ++length)
    EXPECT_TRUE(
        decodesOrRejects<Error>([&] { decode(bytes.substr(0, length)); }))
        << "truncated to " << length << " bytes";
  std::string flipped = bytes;
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    if ((flips >> (bit % 8) & 1) == 0) continue;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_TRUE(decodesOrRejects<Error>([&] { decode(flipped); }))
        << "bit " << bit << " flipped";
    flipped[bit / 8] = bytes[bit / 8];
  }
}

}  // namespace sde::test
