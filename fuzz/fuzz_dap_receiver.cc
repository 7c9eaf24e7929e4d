// Fuzz harness for the DAP receiver state machine (Algorithm 2).
//
// The input byte stream drives an adversarial interleaving of
// announce/reveal traffic against one DapReceiver: authentic packets from
// a real DapSender, bit-flipped MACs, forged keys, replayed reveals,
// wrong-interval claims, and time skips — the traffic mix a flooding
// attacker controls. An authentic announce leaves the sender during its
// own interval, so the harness clock moves forward to that interval when
// one is sent; forged announces claim any interval at any time. After
// every op the harness checks the record bound, (d + 1)·m records
// whatever interval was claimed, and after every input the receiver's
// accounting invariants; contract checks (DAP_CONTRACTS) and sanitizers
// do the rest.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "dap/dap.h"
#include "fuzz_util.h"
#include "sim/time.h"
#include "wire/packet.h"

namespace {

using dap::fuzz::ByteStream;

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_dap_receiver: %s\n", what);
  std::abort();
}

constexpr std::uint32_t kChainLength = 16;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ByteStream stream(data, size);

  dap::protocol::DapConfig config;
  config.chain_length = kChainLength;
  config.disclosure_delay = 1 + stream.u8() % 2;  // d in {1, 2}
  config.buffers = 1 + stream.u8() % 4;           // m in {1..4}
  config.policy = static_cast<dap::protocol::BufferPolicy>(stream.u8() % 3);
  // Half the corpus runs with a tight record-pool cap so the graceful
  // degradation path (shed + shrink) is exercised under fuzz too.
  config.record_pool_limit = stream.u8() % 2 ? 6 : 0;

  const dap::common::Bytes seed = dap::common::bytes_of("fuzz-dap-seed");
  const dap::common::Bytes secret = dap::common::bytes_of("fuzz-recv-secret");
  dap::protocol::DapSender sender(config, seed);
  dap::protocol::DapReceiver receiver(
      config, sender.chain().commitment(), secret,
      dap::sim::LooseClock(0, 10 * dap::sim::kMillisecond),
      dap::common::Rng(stream.u32()));

  dap::sim::SimTime now = config.schedule.interval_start(1);
  std::vector<dap::wire::MacAnnounce> deferred;
  const auto sent_in = [&](std::uint32_t interval) {
    now = std::max(now, config.schedule.interval_start(interval));
  };
  const std::size_t record_bound =
      (std::size_t{config.disclosure_delay} + 1) * config.buffers;

  while (!stream.empty()) {
    const std::uint8_t op = stream.u8();
    const std::uint32_t interval = 1 + stream.u8() % kChainLength;
    switch (op % 8) {
      case 0: {  // authentic announce
        const auto message = stream.bytes(stream.u8() % 16);
        sent_in(interval);
        receiver.receive(sender.announce(interval, message), now);
        break;
      }
      case 1: {  // forged announce: attacker-chosen MAC bytes
        dap::wire::MacAnnounce forged;
        forged.sender = config.sender_id;
        forged.interval = interval;
        forged.mac =
            dap::common::InlineBytes<32>(stream.bytes(config.mac_size));
        receiver.receive(forged, now);
        break;
      }
      case 2: {  // authentic reveal for a previously announced message
        const std::size_t count = sender.announced_count(interval);
        if (count > 0) {
          receiver.receive(sender.reveal(interval, stream.u8() % count), now);
        }
        break;
      }
      case 3: {  // forged reveal: wrong key and/or mutated message
        dap::wire::MessageReveal forged;
        forged.sender = config.sender_id;
        forged.interval = interval;
        forged.message = stream.bytes(stream.u8() % 16);
        forged.key =
            dap::common::InlineBytes<32>(stream.bytes(config.key_size));
        receiver.receive(forged, now);
        break;
      }
      case 4: {  // replay an authentic reveal with a bit-flipped message
        if (sender.announced_count(interval) > 0) {
          auto reveal = sender.reveal(interval, 0);
          if (!reveal.message.empty()) {
            const std::size_t pos = stream.u8() % reveal.message.size();
            reveal.message[pos] ^= static_cast<std::uint8_t>(
                1u << (stream.u8() % 8));
          }
          receiver.receive(reveal, now);
        }
        break;
      }
      case 5: {  // advance local time by up to ~2 intervals
        now += (static_cast<dap::sim::SimTime>(stream.u8()) *
                config.schedule.duration()) /
               128;
        break;
      }
      case 6: {  // defer an authentic announce (reordering fault)
        const auto message = stream.bytes(stream.u8() % 16);
        sent_in(interval);
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
    if (receiver.stored_records() > record_bound) {
      fail("stored records exceed (d + 1) rounds of m");
    }
  }

  // Accounting invariants of Algorithm 2 that no interleaving may break.
  const dap::protocol::DapStats& stats = receiver.stats();
  if (stats.records_stored > stats.records_offered) {
    fail("stored more records than were offered");
  }
  if (stats.records_offered + stats.announces_unsafe +
          stats.admissions_shed !=
      stats.announces_received) {
    fail("announce accounting leak: offered + unsafe + shed != received");
  }
  if (stats.strong_auth_success + stats.strong_auth_failures +
          stats.weak_auth_failures !=
      stats.reveals_received) {
    fail("reveal accounting leak: outcomes != reveals received");
  }
  const std::size_t record_bits = config.micro_mac_size * 8 + 32;
  if (receiver.stored_record_bits() % record_bits != 0) {
    fail("stored_record_bits is not a whole number of records");
  }
  if (receiver.stored_record_bits() / record_bits !=
      receiver.stored_records()) {
    fail("stored_record_bits disagrees with stored_records");
  }
  return 0;
}
