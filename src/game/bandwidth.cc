#include "game/bandwidth.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace dap::game {

std::size_t buffers_for_memory(std::size_t mem_bits,
                               std::size_t record_bits) {
  if (record_bits == 0) {
    throw std::invalid_argument("buffers_for_memory: record_bits == 0");
  }
  return mem_bits / record_bits;
}

double attacker_bandwidth_required(double P, std::size_t m, double xd) {
  if (P <= 0.0 || P >= 1.0) {
    throw std::invalid_argument("attacker_bandwidth_required: P in (0,1)");
  }
  if (m == 0) {
    throw std::invalid_argument("attacker_bandwidth_required: m >= 1");
  }
  if (xd < 0.0 || xd >= 1.0) {
    throw std::invalid_argument("attacker_bandwidth_required: xd in [0,1)");
  }
  const double p = std::pow(P, 1.0 / static_cast<double>(m));
  return p * (1.0 - xd);
}

double sender_mac_bandwidth_required(double P_def, std::size_t m, double xa) {
  if (P_def < 0.0 || P_def > 1.0) {
    throw std::invalid_argument("sender_mac_bandwidth_required: P_def");
  }
  if (m == 0) {
    throw std::invalid_argument("sender_mac_bandwidth_required: m >= 1");
  }
  if (xa < 0.0 || xa > 1.0) {
    throw std::invalid_argument("sender_mac_bandwidth_required: xa");
  }
  if (P_def == 0.0) return 0.0;
  if (P_def >= 1.0) return std::numeric_limits<double>::infinity();
  // Largest tolerable forged fraction for the target.
  const double p_star = std::pow(1.0 - P_def, 1.0 / static_cast<double>(m));
  if (p_star <= 0.0) return std::numeric_limits<double>::infinity();
  return xa * (1.0 - p_star) / p_star;
}

}  // namespace dap::game
