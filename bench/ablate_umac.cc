// E8 — ablation of the μMAC truncation length: memory per record vs the
// chance a flooding attacker gets a forged record accepted by collision.
// The paper fixes 24 bits; this sweep shows where that sits.

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "crypto/mac.h"

int main(int argc, char** argv) {
  using namespace dap;
  bench::configure_threads(argc, argv);
  bench::banner(
      "E8 — ablation: uMAC truncation length",
      "design choice of Sec. IV-B (24-bit uMAC, 56-bit records)",
      "collision probability halves per bit; record size grows linearly; "
      "24 bits keeps collisions ~1e-7 per forged record");

  common::TextTable table({"uMAC bits", "record bits", "buffers@1024",
                           "P(collision)/record", "expected collisions in "
                           "10^6 forged records"});
  common::CsvWriter csv(bench::csv_path("ablate_umac"),
                        {"umac_bits", "record_bits", "buffers_1024",
                         "collision_prob"});
  for (std::size_t bits : {8u, 16u, 24u, 32u, 48u, 64u}) {
    const std::size_t record = bits + crypto::kIndexBits;
    const double collision = std::pow(2.0, -static_cast<double>(bits));
    table.add_row({std::to_string(bits), std::to_string(record),
                   std::to_string(1024 / record),
                   common::format_number(collision),
                   common::format_number(collision * 1e6)});
    csv.row({static_cast<double>(bits), static_cast<double>(record),
             static_cast<double>(1024 / record), collision});
  }
  std::cout << table.render() << '\n';

  // Empirical collision check at 8 bits (small enough to observe):
  // count how often a random "forged" MAC re-MACs to the same truncated
  // tag as the authentic MAC.
  common::Rng rng(7);
  const common::Bytes recv_key = rng.bytes(16);
  const common::Bytes authentic_mac = rng.bytes(10);
  const auto expected = crypto::micro_mac(recv_key, authentic_mac, 1);
  int collisions = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) {
    if (common::equal(crypto::micro_mac(recv_key, rng.bytes(10), 1),
                      expected)) {
      ++collisions;
    }
  }
  std::cout << "empirical 8-bit collision rate: "
            << common::format_number(static_cast<double>(collisions) / trials)
            << " (theory 1/256 = " << common::format_number(1.0 / 256)
            << ")\n";
  bench::footer("ablate_umac");
  return 0;
}
