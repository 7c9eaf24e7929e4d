// Fuzz harness for the TESLA++ receiver — same adversarial-interleaving
// scheme as fuzz_dap_receiver, for the protocol DAP is compared against.
//
// The byte stream interleaves authentic announces/reveals with forged
// MACs, forged keys, bit-flipped replays, signed-anchor verification on
// attacker-mutated anchors, and time skips, then checks the receiver's
// accounting invariants.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "fuzz_util.h"
#include "sim/time.h"
#include "tesla/teslapp.h"
#include "wire/packet.h"

namespace {

using dap::fuzz::ByteStream;

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_teslapp_receiver: %s\n", what);
  std::abort();
}

constexpr std::uint32_t kChainLength = 16;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ByteStream stream(data, size);

  dap::tesla::TeslaPpConfig config;
  config.chain_length = kChainLength;
  config.max_records_per_interval = stream.u8() % 4;  // 0 = unlimited
  // Half the corpus runs with a tight pool cap so saturation shedding
  // (graceful degradation) is exercised under fuzz too.
  config.record_pool_limit = stream.u8() % 2 ? 8 : 0;

  const dap::common::Bytes seed = dap::common::bytes_of("fuzz-tpp-seed");
  const dap::common::Bytes secret = dap::common::bytes_of("fuzz-tpp-secret");
  dap::tesla::TeslaPpSender sender(config, seed);
  dap::tesla::TeslaPpReceiver receiver(
      config, sender.chain().commitment(), secret,
      dap::sim::LooseClock(0, 10 * dap::sim::kMillisecond));

  dap::sim::SimTime now = config.schedule.interval_start(1);
  std::vector<dap::wire::MacAnnounce> deferred;

  while (!stream.empty()) {
    const std::uint8_t op = stream.u8();
    const std::uint32_t interval = 1 + stream.u8() % kChainLength;
    switch (op % 8) {
      case 0: {  // authentic announce (overwrites the interval's message)
        const auto message = stream.bytes(stream.u8() % 16);
        receiver.receive(sender.announce(interval, message), now);
        break;
      }
      case 1: {  // forged announce
        dap::wire::MacAnnounce forged;
        forged.sender = config.sender_id;
        forged.interval = interval;
        forged.mac =
            dap::common::InlineBytes<32>(stream.bytes(config.mac_size));
        receiver.receive(forged, now);
        break;
      }
      case 2: {  // authentic reveal (requires a prior announce)
        bool announced = false;
        try {
          auto reveal = sender.reveal(interval);
          announced = true;
          receiver.receive(reveal, now);
        } catch (const std::logic_error&) {
          if (announced) throw;  // reveal itself must not fail post-announce
        }
        break;
      }
      case 3: {  // forged reveal
        dap::wire::MessageReveal forged;
        forged.sender = config.sender_id;
        forged.interval = interval;
        forged.message = stream.bytes(stream.u8() % 16);
        forged.key =
            dap::common::InlineBytes<32>(stream.bytes(config.key_size));
        receiver.receive(forged, now);
        break;
      }
      case 4: {  // verify an attacker-mutated signed anchor
        if (sender.anchors_remaining() > 0) {
          auto anchor = sender.make_anchor(interval);
          if (stream.u8() % 2 == 0 && !anchor.key.empty()) {
            anchor.key[stream.u8() % anchor.key.size()] ^=
                static_cast<std::uint8_t>(1u << (stream.u8() % 8));
            if (dap::tesla::verify_anchor(anchor, sender.signature_root())) {
              fail("mutated anchor passed signature verification");
            }
          } else if (!dap::tesla::verify_anchor(anchor,
                                                sender.signature_root())) {
            fail("authentic anchor failed signature verification");
          }
        }
        break;
      }
      case 5: {  // advance local time
        now += (static_cast<dap::sim::SimTime>(stream.u8()) *
                config.schedule.duration()) /
               128;
        break;
      }
      case 6: {  // defer an authentic announce (reordering fault)
        const auto message = stream.bytes(stream.u8() % 16);
        deferred.push_back(sender.announce(interval, message));
        break;
      }
      case 7: {  // deliver the newest deferred announce late AND twice
        if (!deferred.empty()) {
          const auto announce = deferred.back();
          deferred.pop_back();
          receiver.receive(announce, now);
          receiver.receive(announce, now);  // duplication fault
        }
        break;
      }
    }
  }

  const dap::tesla::TeslaPpStats& stats = receiver.stats();
  if (stats.records_stored + stats.records_dropped + stats.admissions_shed >
      stats.announces_received) {
    fail("stored + dropped + shed records exceed announces received");
  }
  if (stats.authenticated + stats.unmatched + stats.keys_rejected !=
      stats.reveals_received) {
    fail("reveal accounting leak: outcomes != reveals received");
  }
  const std::size_t record_bits = config.self_mac_size * 8 + 32;
  if (receiver.stored_record_bits() % record_bits != 0) {
    fail("stored_record_bits is not a whole number of records");
  }
  return 0;
}
