/**
 * @file
 * Stable fingerprints for memoization keys.
 *
 * A Fingerprint accumulates tagged fields into a canonical key string
 * (human-readable, order-sensitive) and hashes it with 64-bit FNV-1a.
 * The run cache stores both: the digest names the entry, the key string
 * guards against (astronomically unlikely) digest collisions and makes
 * cache files debuggable by eye.
 *
 * Doubles are rendered with %.17g so the key is exact for any IEEE-754
 * value: two configs differing in the 17th significant digit fingerprint
 * differently.
 *
 * Every persistent key (run cache, .dtc streams) leads with
 * modelDigest(), so a result is a function of its inputs and of the
 * model source code: any source edit retires every cached result.
 */

#ifndef NURAPID_COMMON_FINGERPRINT_HH
#define NURAPID_COMMON_FINGERPRINT_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace nurapid {

/** The first 16 hex digits of a SHA-256 over every .cc/.hh under src/
 *  (path and contents), generated at build time by
 *  cmake/model_digest.cmake. */
const char *modelDigest();

class Fingerprint
{
  public:
    /** Appends one "name=value;" field to the key. */
    Fingerprint &
    field(const char *name, const std::string &value)
    {
        key_ += name;
        key_ += '=';
        key_ += value;
        key_ += ';';
        return *this;
    }

    Fingerprint &
    field(const char *name, const char *value)
    {
        return field(name, std::string(value));
    }

    Fingerprint &
    field(const char *name, std::uint64_t value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(value));
        return field(name, std::string(buf));
    }

    Fingerprint &
    field(const char *name, std::uint32_t value)
    {
        return field(name, static_cast<std::uint64_t>(value));
    }

    Fingerprint &
    field(const char *name, bool value)
    {
        return field(name, std::string(value ? "1" : "0"));
    }

    Fingerprint &
    field(const char *name, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return field(name, std::string(buf));
    }

    /** The full canonical key accumulated so far. */
    const std::string &key() const { return key_; }

    /** 64-bit FNV-1a of the key, as a 16-digit hex string. */
    std::string digest() const { return hash(key_); }

    /** 64-bit FNV-1a of @p text, as a 16-digit hex string. */
    static std::string
    hash(std::string_view text)
    {
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (unsigned char c : text) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::string key_;
};

} // namespace nurapid

#endif // NURAPID_COMMON_FINGERPRINT_HH
