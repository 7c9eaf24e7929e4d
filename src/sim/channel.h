#pragma once
// Channel quality models.
//
// The paper evaluates "low QoS channels": independent (Bernoulli) loss
// and bursty loss. Bursty loss is modelled with the standard
// Gilbert–Elliott two-state Markov chain, which is what makes the EFTP /
// EDRP recovery experiments meaningful (consecutive CDM losses happen).
// A channel decides, per frame and per receiver, whether the frame
// arrives, and how many copies of it.

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/rng.h"

namespace dap::sim {

/// Per-receiver channel state; stateful models (Gilbert–Elliott) keep
/// their Markov state inside the object, so use one instance per link.
class Channel {
 public:
  virtual ~Channel() = default;

  /// True if a frame survives the channel.
  virtual bool deliver(common::Rng& rng) = 0;

  /// Number of copies the receiver edge sees for one transmitted frame.
  /// Default folds through deliver(): 1 if it survives, 0 otherwise.
  /// Duplicating decorators (sim/faults.h) override this to return > 1;
  /// the medium delivers each copy independently.
  virtual std::size_t deliveries(common::Rng& rng);

  /// A fresh instance with the same parameters but reset state.
  [[nodiscard]] virtual std::unique_ptr<Channel> clone() const = 0;
};

/// Lossless channel.
class PerfectChannel final : public Channel {
 public:
  bool deliver(common::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<Channel> clone() const override;
};

/// Independent loss with probability `loss`.
class BernoulliChannel final : public Channel {
 public:
  explicit BernoulliChannel(double loss);
  bool deliver(common::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<Channel> clone() const override;
  [[nodiscard]] double loss() const noexcept { return loss_; }

 private:
  double loss_;
};

/// Gilbert–Elliott bursty loss: a GOOD/BAD Markov chain with per-state
/// loss rates. `p_gb` = P(good->bad) per frame, `p_bg` = P(bad->good).
class GilbertElliottChannel final : public Channel {
 public:
  GilbertElliottChannel(double p_gb, double p_bg, double loss_good,
                        double loss_bad);
  bool deliver(common::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<Channel> clone() const override;

  [[nodiscard]] bool in_bad_state() const noexcept { return bad_; }
  /// Stationary loss probability of the chain (for tests).
  [[nodiscard]] double stationary_loss() const noexcept;

 private:
  double p_gb_;
  double p_bg_;
  double loss_good_;
  double loss_bad_;
  bool bad_ = false;
};

}  // namespace dap::sim
