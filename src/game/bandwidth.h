#pragma once
// Bandwidth/memory models behind the §VI-A evaluation (Fig. 5).
//
// Record sizes (paper, Fig. 4): a TESLA++-style record buffers message +
// MAC = 280 bits; a DAP record buffers μMAC + index = 56 bits. For a
// fixed memory budget `mem` (in the same unit as the record size) the
// node affords m = mem / record buffers.
//
// Fig. 5 model (see DESIGN.md for the interpretation note): with data
// traffic using fraction x_d of the channel, an attacker who wants its
// flood to succeed with probability P against m buffers needs forged
// fraction p = P^(1/m) of the MAC channel, i.e. total bandwidth fraction
//   x_m = P^(1/m) · (1 - x_d).
// The complementary sender-side view (ablation E11): against a flooder
// occupying fraction x_a, to keep defence success >= P_def the sender
// must re-broadcast authentic MAC copies at rate
//   x_m >= x_a · (1 - p*) / p*   with p* = (1 - P_def)^(1/m).

#include <cstddef>

namespace dap::game {

/// Buffers affordable from a memory budget; throws if record_bits == 0.
std::size_t buffers_for_memory(std::size_t mem_bits, std::size_t record_bits);

/// Attacker bandwidth fraction required to reach attack success
/// probability `P` against `m` buffers with data share `xd`.
/// Throws std::invalid_argument unless P in (0,1), m >= 1, xd in [0,1).
double attacker_bandwidth_required(double P, std::size_t m, double xd);

/// Sender MAC-rebroadcast bandwidth needed to hold defence success
/// >= `P_def` against a flooder occupying fraction `xa` of the channel.
/// Returns +inf when the target is unreachable (P_def == 1).
double sender_mac_bandwidth_required(double P_def, std::size_t m, double xa);

}  // namespace dap::game
