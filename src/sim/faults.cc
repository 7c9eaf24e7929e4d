#include "sim/faults.h"

#include <cmath>
#include <stdexcept>

namespace dap::sim {

void FaultSchedule::add_window(SimTime start, SimTime end) {
  if (end <= start) {
    throw std::invalid_argument("FaultSchedule: window end must follow start");
  }
  windows_.push_back(Window{start, end});
}

bool FaultSchedule::active(SimTime now) const noexcept {
  for (const Window& w : windows_) {
    if (now >= w.start && now < w.end) return true;
  }
  return false;
}

JitterLink::JitterLink(SimTime base, SimTime max_extra,
                       std::shared_ptr<const FaultSchedule> schedule,
                       const EventQueue* clock)
    : base_(base),
      max_extra_(max_extra),
      schedule_(std::move(schedule)),
      clock_(clock) {
  if (schedule_ && clock_ == nullptr) {
    throw std::invalid_argument("JitterLink: schedule gating needs a clock");
  }
}

SimTime JitterLink::sample(common::Rng& rng) {
  if (schedule_ && !schedule_->active(clock_->now())) return base_;
  if (max_extra_ == 0) return base_;
  return base_ + rng.uniform(0, max_extra_);
}

std::unique_ptr<LatencyModel> JitterLink::clone() const {
  return std::make_unique<JitterLink>(base_, max_extra_, schedule_, clock_);
}

DuplicateChannel::DuplicateChannel(std::unique_ptr<Channel> inner,
                                   double dup_probability,
                                   std::shared_ptr<const FaultSchedule> schedule,
                                   const EventQueue* clock)
    : inner_(std::move(inner)),
      dup_probability_(dup_probability),
      schedule_(std::move(schedule)),
      clock_(clock) {
  if (!inner_) throw std::invalid_argument("DuplicateChannel: null inner");
  if (dup_probability_ < 0.0 || dup_probability_ > 1.0) {
    throw std::invalid_argument(
        "DuplicateChannel: probability must be in [0,1]");
  }
  if (schedule_ && clock_ == nullptr) {
    throw std::invalid_argument(
        "DuplicateChannel: schedule gating needs a clock");
  }
}

bool DuplicateChannel::engaged() const noexcept {
  return !schedule_ || schedule_->active(clock_->now());
}

bool DuplicateChannel::deliver(common::Rng& rng) {
  return inner_->deliver(rng);
}

std::size_t DuplicateChannel::deliveries(common::Rng& rng) {
  const std::size_t inner = inner_->deliveries(rng);
  if (inner == 0 || !engaged()) return inner;
  std::size_t extra = 0;
  for (std::size_t i = 0; i < inner; ++i) {
    if (rng.bernoulli(dup_probability_)) ++extra;
  }
  return inner + extra;
}

std::unique_ptr<Channel> DuplicateChannel::clone() const {
  return std::make_unique<DuplicateChannel>(inner_->clone(), dup_probability_,
                                            schedule_, clock_);
}

BlackoutChannel::BlackoutChannel(std::unique_ptr<Channel> inner,
                                 std::shared_ptr<const FaultSchedule> schedule,
                                 const EventQueue& clock)
    : inner_(std::move(inner)), schedule_(std::move(schedule)),
      clock_(&clock) {
  if (!inner_) throw std::invalid_argument("BlackoutChannel: null inner");
  if (!schedule_) {
    throw std::invalid_argument("BlackoutChannel: null schedule");
  }
}

bool BlackoutChannel::deliver(common::Rng& rng) {
  if (schedule_->active(clock_->now())) return false;
  return inner_->deliver(rng);
}

std::size_t BlackoutChannel::deliveries(common::Rng& rng) {
  if (schedule_->active(clock_->now())) return 0;
  return inner_->deliveries(rng);
}

std::unique_ptr<Channel> BlackoutChannel::clone() const {
  return std::make_unique<BlackoutChannel>(inner_->clone(), schedule_,
                                           *clock_);
}

void FaultyClock::add(const ClockDriftFault& fault) {
  if (fault.end <= fault.start) {
    throw std::invalid_argument("FaultyClock: drift window end before start");
  }
  drifts_.push_back(fault);
}

void FaultyClock::add(const ClockStepFault& fault) { steps_.push_back(fault); }

std::int64_t FaultyClock::offset_at(SimTime true_time) const noexcept {
  double offset = static_cast<double>(base_.offset());
  for (const ClockDriftFault& d : drifts_) {
    if (true_time <= d.start) continue;
    const SimTime until = true_time < d.end ? true_time : d.end;
    const double elapsed_us = static_cast<double>(until - d.start);
    offset += d.ppm * elapsed_us / 1e6;
  }
  for (const ClockStepFault& s : steps_) {
    if (true_time >= s.at) offset += static_cast<double>(s.delta);
  }
  return static_cast<std::int64_t>(std::llround(offset));
}

SimTime FaultyClock::local_time(SimTime true_time) const noexcept {
  const std::int64_t shifted =
      static_cast<std::int64_t>(true_time) + offset_at(true_time);
  return shifted < 0 ? 0 : static_cast<SimTime>(shifted);
}

}  // namespace dap::sim
