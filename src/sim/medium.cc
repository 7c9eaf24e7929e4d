#include "sim/medium.h"

#include <stdexcept>

namespace dap::sim {

Medium::Medium(EventQueue& queue, common::Rng& rng)
    : queue_(queue), rng_(rng.fork(0x6d656469756dULL /* "medium" */)) {
  // Handles resolved once here; broadcast() then updates without any
  // name lookup.
  ctr_rate_limited_ = registry_.counter("medium.rate_limited");
  ctr_broadcasts_ = registry_.counter("medium.broadcasts");
  ctr_frames_lost_ = registry_.counter("medium.frames_lost");
  ctr_frames_duplicated_ = registry_.counter("medium.frames_duplicated");
}

std::size_t Medium::attach(ReceiveFn receive, std::unique_ptr<Channel> channel,
                           SimTime latency) {
  return attach(std::move(receive), std::move(channel),
                std::make_unique<FixedLatency>(latency));
}

std::size_t Medium::attach(ReceiveFn receive, std::unique_ptr<Channel> channel,
                           std::unique_ptr<LatencyModel> latency) {
  if (!receive) throw std::invalid_argument("Medium::attach: null receiver");
  if (!channel) throw std::invalid_argument("Medium::attach: null channel");
  if (!latency) throw std::invalid_argument("Medium::attach: null latency");
  Link link{std::move(receive), std::move(channel), std::move(latency),
            rng_.fork(links_.size() + 1)};
  links_.push_back(std::move(link));
  return links_.size() - 1;
}

void Medium::set_rate_limit(wire::NodeId sender, double bits_per_second,
                            double burst_bits) {
  rate_limits_.insert_or_assign(sender,
                                TokenBucket(bits_per_second, burst_bits));
}

std::uint64_t Medium::rate_limited_drops(wire::NodeId sender) const noexcept {
  const auto it = rate_limited_.find(sender);
  return it == rate_limited_.end() ? 0 : it->second;
}

bool Medium::broadcast(const wire::Packet& packet) {
  const wire::NodeId sender = wire::sender_of(packet);
  const std::size_t bits = wire::wire_bits(packet);
  const auto bucket = rate_limits_.find(sender);
  if (bucket != rate_limits_.end() &&
      !bucket->second.try_consume(bits, queue_.now())) {
    ++rate_limited_[sender];
    registry_.add(ctr_rate_limited_);
    return false;
  }
  total_bits_ += bits;
  registry_.add(ctr_broadcasts_);

  // One immutable copy serves every link and every duplicate; it is made
  // on the first delivery, so a broadcast every link loses copies nothing.
  std::shared_ptr<const wire::Packet> shared;

  for (std::size_t li = 0; li < links_.size(); ++li) {
    auto& link = links_[li];
    const std::size_t copies = link.channel->deliveries(link.rng);
    if (copies == 0) {
      registry_.add(ctr_frames_lost_);
      continue;
    }
    for (std::size_t c = 0; c < copies; ++c) {
      if (c > 0) {
        // A duplicate is one more transmission on the medium: count its
        // airtime so bandwidth-fraction experiments see the true load.
        total_bits_ += bits;
        registry_.add(ctr_frames_duplicated_);
      }
      if (!shared) shared = std::make_shared<const wire::Packet>(packet);
      // The link is addressed by index: links_ may grow (never shrink)
      // while events are pending.
      queue_.schedule_in(link.latency->sample(link.rng), [this, li, shared]() {
        links_[li].receive(*shared, queue_.now());
      });
    }
  }
  return true;
}

}  // namespace dap::sim
