#include "sim/channel.h"

#include <stdexcept>

namespace dap::sim {

std::size_t Channel::deliveries(common::Rng& rng) {
  return deliver(rng) ? 1 : 0;
}

bool PerfectChannel::deliver(common::Rng&) { return true; }

std::unique_ptr<Channel> PerfectChannel::clone() const {
  return std::make_unique<PerfectChannel>();
}

BernoulliChannel::BernoulliChannel(double loss) : loss_(loss) {
  if (loss < 0.0 || loss > 1.0) {
    throw std::invalid_argument("BernoulliChannel: loss must be in [0,1]");
  }
}

bool BernoulliChannel::deliver(common::Rng& rng) {
  return !rng.bernoulli(loss_);
}

std::unique_ptr<Channel> BernoulliChannel::clone() const {
  return std::make_unique<BernoulliChannel>(loss_);
}

GilbertElliottChannel::GilbertElliottChannel(double p_gb, double p_bg,
                                             double loss_good,
                                             double loss_bad)
    : p_gb_(p_gb), p_bg_(p_bg), loss_good_(loss_good), loss_bad_(loss_bad) {
  for (double v : {p_gb, p_bg, loss_good, loss_bad}) {
    if (v < 0.0 || v > 1.0) {
      throw std::invalid_argument(
          "GilbertElliottChannel: probabilities must be in [0,1]");
    }
  }
  if (p_gb + p_bg == 0.0) {
    throw std::invalid_argument(
        "GilbertElliottChannel: chain must be able to move");
  }
}

bool GilbertElliottChannel::deliver(common::Rng& rng) {
  // Transition first, then sample loss in the (new) state.
  if (bad_) {
    if (rng.bernoulli(p_bg_)) bad_ = false;
  } else {
    if (rng.bernoulli(p_gb_)) bad_ = true;
  }
  return !rng.bernoulli(bad_ ? loss_bad_ : loss_good_);
}

std::unique_ptr<Channel> GilbertElliottChannel::clone() const {
  return std::make_unique<GilbertElliottChannel>(p_gb_, p_bg_, loss_good_,
                                                 loss_bad_);
}

double GilbertElliottChannel::stationary_loss() const noexcept {
  const double pi_bad = p_gb_ / (p_gb_ + p_bg_);
  return pi_bad * loss_bad_ + (1.0 - pi_bad) * loss_good_;
}

}  // namespace dap::sim
