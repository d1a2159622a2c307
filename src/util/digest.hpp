/**
 * @file
 * FNV-1a 64-bit hashing, the digest used throughout the tool to key
 * content-addressed state: the golden-trace regression table and the
 * service layer's idempotent default job ids hash with the same
 * function.
 */
#ifndef RTLREPAIR_UTIL_DIGEST_HPP
#define RTLREPAIR_UTIL_DIGEST_HPP

#include <cstdint>
#include <string_view>

namespace rtlrepair {

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold @p text into a running FNV-1a 64 hash @p h. */
constexpr uint64_t
fnv1a64(std::string_view text, uint64_t h = kFnvOffsetBasis)
{
    for (char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= kFnvPrime;
    }
    return h;
}

} // namespace rtlrepair

#endif // RTLREPAIR_UTIL_DIGEST_HPP
