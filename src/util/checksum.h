// CRC-32 checksums (the IEEE 802.3 polynomial, as used by zip/png).
//
// The sweep result journal (exec::ResultJournal) stamps every record with
// a checksum so a crash mid-append — a torn final line — is detected on
// the next read instead of being parsed as garbage. CRC-32 is not
// cryptographic; it detects corruption, not tampering, which is exactly
// the contract a local crash-safe journal needs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace grophecy::util {

/// CRC-32 of `data` (IEEE polynomial, reflected, init/final 0xFFFFFFFF).
/// crc32("123456789") == 0xCBF43926, the standard check value.
std::uint32_t crc32(std::string_view data);

/// The checksum as fixed-width lowercase hex ("cbf43926").
std::string crc32_hex(std::string_view data);

/// The low 4 x `digits` bits of `value` as `digits` lowercase hex digits,
/// zero padded: strfmt("%08x") for digits = 8, without printf. Used for
/// journal checksums and job fingerprints.
std::string hex_digits(std::uint64_t value, std::size_t digits);

/// FNV-1a 64-bit hash of `data`. Deterministic across platforms and
/// processes; used for sweep job fingerprints and per-job RNG stream
/// derivation (cache keys fold fields with util::KeyBuilder instead).
/// Not cryptographic.
std::uint64_t fnv1a64(std::string_view data);

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixer. Seeding a
/// stochastic stream with splitmix64(base ^ fnv1a64(key)) gives every key
/// a decorrelated stream that is a pure function of (base, key).
std::uint64_t splitmix64(std::uint64_t value);

}  // namespace grophecy::util
