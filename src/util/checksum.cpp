#include "util/checksum.h"

#include <array>

namespace grophecy::util {

namespace {

std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data)
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string crc32_hex(std::string_view data) {
  return hex_digits(crc32(data), 8);
}

std::string hex_digits(std::uint64_t value, std::size_t digits) {
  std::string hex(digits, '0');
  for (auto digit = hex.rbegin(); digit != hex.rend(); ++digit, value >>= 4)
    *digit = "0123456789abcdef"[value & 0xf];
  return hex;
}

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char byte : data) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t splitmix64(std::uint64_t value) {
  value += 0x9e3779b97f4a7c15ULL;
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ULL;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebULL;
  return value ^ (value >> 31);
}

}  // namespace grophecy::util
