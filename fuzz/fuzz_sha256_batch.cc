// Fuzz harness for the batched multi-lane SHA-256 backend — the one
// component where a silent wrong answer would be worse than a crash.
//
// The input is interpreted as a batch description (message count, per
// message length and bytes, an HMAC key, chain-walk parameters). For
// every backend in supported_sha256_backends() the harness checks, bit
// for bit, against oracles computed with the backend forced to scalar:
//   1. sha256_many() and the streaming Sha256 equal the oracle digest.
//   2. hmac_many() equals the one-shot hmac_sha256() on every message.
//   3. prf_walk_many() trajectories equal sequential prf_bytes() walks.
// Any mismatch aborts, so libFuzzer (or the ctest corpus replay) treats
// it as a finding.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "crypto/sha256_batch.h"
#include "fuzz_util.h"

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_sha256_batch: %s\n", what);
  std::abort();
}

bool digest_equal(const dap::crypto::Digest& a,
                  const dap::crypto::Digest& b) noexcept {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace crypto = dap::crypto;
  dap::fuzz::ByteStream stream(data, size);

  // Batch shape: 0..16 messages of 0..255 bytes. Lengths hold even when
  // the input is exhausted (ByteStream returns short reads; pad).
  const std::size_t count = stream.u8() % 17;
  std::vector<dap::common::Bytes> messages(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = stream.u8();
    messages[i] = stream.bytes(len);
    messages[i].resize(len, 0xA5);
  }
  const std::size_t key_len = stream.u8() % 97;  // crosses the 64B pad edge
  dap::common::Bytes key = stream.bytes(key_len);
  key.resize(key_len, 0x3C);

  std::vector<dap::common::ByteView> views(messages.begin(), messages.end());

  // Chain-walk shape: bounded step counts keep the harness fast.
  const std::size_t key_size =
      messages.empty() ? 1 : 1 + stream.u8() % crypto::kSha256DigestSize;
  std::vector<dap::common::Bytes> starts(messages.size());
  std::vector<std::uint32_t> steps(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    starts[i] = messages[i];
    starts[i].resize(key_size, 0x5A);
    steps[i] = stream.u8() % 9;
  }

  // Oracle digests, MACs and walks, computed once on the portable C
  // kernel (forcing scalar keeps the streaming path off SHA-NI).
  crypto::force_sha256_backend(crypto::Sha256Backend::kScalar);
  std::vector<crypto::Digest> expected(count);
  for (std::size_t i = 0; i < count; ++i) {
    crypto::Sha256 h;
    h.update(views[i]);
    expected[i] = h.finalize();
  }
  const crypto::HmacKey hmac_key{dap::common::ByteView(key)};
  std::vector<crypto::Digest> expected_macs(count);
  for (std::size_t i = 0; i < count; ++i) {
    expected_macs[i] = crypto::hmac_sha256(key, views[i]);
  }
  // Packed like prf_walk_many's output: each step's key back to back.
  std::vector<dap::common::Bytes> expected_walks(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    dap::common::Bytes current = starts[i];
    for (std::uint32_t s = 0; s < steps[i]; ++s) {
      current = crypto::prf_bytes(crypto::PrfDomain::kChainStep, current,
                                  key_size);
      expected_walks[i].insert(expected_walks[i].end(), current.begin(),
                               current.end());
    }
  }

  for (const crypto::Sha256Backend backend :
       crypto::supported_sha256_backends()) {
    crypto::force_sha256_backend(backend);
    std::vector<crypto::Digest> out(count);
    crypto::sha256_many(views, out);
    for (std::size_t i = 0; i < count; ++i) {
      crypto::Sha256 h;
      h.update(views[i]);
      if (!digest_equal(out[i], expected[i]) ||
          !digest_equal(h.finalize(), expected[i])) {
        fail("sha256_many or Sha256 diverged from the scalar oracle");
      }
    }
    std::vector<crypto::Digest> macs(count);
    crypto::hmac_many(hmac_key, views, macs);
    for (std::size_t i = 0; i < count; ++i) {
      if (!digest_equal(macs[i], expected_macs[i])) {
        fail("hmac_many diverged from hmac_sha256");
      }
    }
    std::vector<dap::common::Bytes> traj;
    crypto::prf_walk_many(crypto::PrfDomain::kChainStep, starts, steps,
                          key_size, traj);
    if (traj.size() != starts.size()) {
      fail("prf_walk_many returned the wrong trajectory count");
    }
    for (std::size_t i = 0; i < starts.size(); ++i) {
      if (traj[i].size() != expected_walks[i].size()) {
        fail("prf_walk_many trajectory has the wrong length");
      }
      if (!dap::common::equal(traj[i], expected_walks[i])) {
        fail("prf_walk_many diverged from sequential prf_bytes");
      }
    }
  }

  crypto::clear_sha256_backend_override();
  return 0;
}
