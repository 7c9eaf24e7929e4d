#include "sim/adversary.h"

#include <cmath>
#include <stdexcept>

namespace dap::sim {

FloodingForger::FloodingForger(wire::NodeId victim_sender,
                               std::size_t mac_size, common::Rng rng)
    : victim_(victim_sender), mac_size_(mac_size), rng_(rng) {
  if (mac_size_ == 0 || mac_size_ > common::InlineBytes<32>::capacity()) {
    throw std::invalid_argument("FloodingForger: mac_size must be in [1, 32]");
  }
}

wire::MacAnnounce FloodingForger::forge(wire::IntervalIndex interval) {
  wire::MacAnnounce p;
  p.sender = victim_;
  p.interval = interval;
  p.mac = common::InlineBytes<32>(rng_.bytes(mac_size_));
  ++forged_;
  return p;
}

void FloodingForger::flood(Medium& medium, wire::IntervalIndex interval,
                           std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    medium.broadcast(wire::Packet{forge(interval)});
  }
}

std::size_t FloodingForger::copies_for_fraction(std::size_t legit_copies,
                                                double p) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument(
        "copies_for_fraction: p must be in [0,1) (p==1 needs infinite load)");
  }
  if (p == 0.0) return 0;
  const double forged =
      static_cast<double>(legit_copies) * p / (1.0 - p);
  return static_cast<std::size_t>(std::llround(forged));
}

KeyGuessForger::KeyGuessForger(wire::NodeId victim_sender,
                               std::size_t key_size, common::Rng rng)
    : victim_(victim_sender), key_size_(key_size), rng_(rng) {
  if (key_size_ == 0 || key_size_ > common::InlineBytes<32>::capacity()) {
    throw std::invalid_argument("KeyGuessForger: key_size must be in [1, 32]");
  }
}

wire::MessageReveal KeyGuessForger::forge_reveal(wire::IntervalIndex interval,
                                                 common::ByteView message) {
  wire::MessageReveal p;
  p.sender = victim_;
  p.interval = interval;
  p.message = common::Bytes(message.begin(), message.end());
  p.key = common::InlineBytes<32>(rng_.bytes(key_size_));
  return p;
}

}  // namespace dap::sim
