#include "crypto/mac.h"

#include <stdexcept>

#include "crypto/hmac.h"

namespace dap::crypto {

namespace {

common::InlineBytes<32> truncate(const Digest& full, std::size_t size) {
  return common::InlineBytes<32>(common::ByteView(full).first(size));
}

void check_size(std::size_t size) {
  if (size == 0 || size > kSha256DigestSize) {
    throw std::invalid_argument("compute_mac: size must be in [1, 32]");
  }
}

}  // namespace

common::InlineBytes<32> compute_mac(common::ByteView key,
                                    common::ByteView message,
                                    std::size_t size) {
  check_size(size);
  return truncate(hmac_sha256(key, message), size);
}

common::InlineBytes<32> micro_mac(common::ByteView recv_key,
                                  common::ByteView mac, std::size_t size) {
  return compute_mac(recv_key, mac, size);
}

bool verify_mac(common::ByteView key, common::ByteView message,
                common::ByteView tag) {
  if (tag.empty() || tag.size() > kSha256DigestSize) return false;
  return common::constant_time_equal(compute_mac(key, message, tag.size()),
                                     tag);
}

common::InlineBytes<32> compute_mac(const HmacKey& key,
                                    common::ByteView message,
                                    std::size_t size) {
  check_size(size);
  return truncate(key.mac(message), size);
}

std::uint32_t micro_mac_word(const HmacKey& recv_key, common::ByteView mac,
                             std::size_t size) {
  if (size == 0 || size > sizeof(std::uint32_t)) {
    throw std::invalid_argument("micro_mac_word: size must be in [1, 4]");
  }
  const Digest full = recv_key.mac(mac);
  std::uint32_t word = 0;
  for (std::size_t b = 0; b < size; ++b) word = (word << 8) | full[b];
  return word;
}

}  // namespace dap::crypto
