#include "tesla/timesync.h"

#include <stdexcept>

#include "common/codec.h"
#include "common/rng.h"
#include "crypto/mac.h"

namespace dap::tesla {

namespace {

common::Bytes response_payload(std::uint64_t nonce,
                               sim::SimTime sender_time) {
  common::Writer w;
  w.u64(nonce);
  w.u64(sender_time);
  return std::move(w).take();
}

}  // namespace

SyncCalibration::SyncCalibration(sim::SimTime request_local,
                                 sim::SimTime response_local,
                                 sim::SimTime sender_time)
    : request_local_(request_local),
      response_local_(response_local),
      sender_time_(sender_time) {
  if (response_local < request_local) {
    throw std::invalid_argument("SyncCalibration: response before request");
  }
}

sim::SimTime SyncCalibration::upper_bound_sender_time(
    sim::SimTime local_now) const noexcept {
  const sim::SimTime reference =
      local_now < response_local_ ? response_local_ : local_now;
  // The response was created no earlier than the request departed, so
  // at most (reference - request_local) sender-side time has elapsed.
  return sender_time_ + (reference - request_local_);
}

TimeSyncClient::TimeSyncClient(common::Bytes pairwise_key,
                               std::uint64_t rng_seed)
    : key_(std::move(pairwise_key)), rng_state_(rng_seed) {
  if (key_.empty()) {
    throw std::invalid_argument("TimeSyncClient: empty pairwise key");
  }
}

SyncRequest TimeSyncClient::begin(sim::SimTime local_now) {
  nonce_ = common::splitmix64(rng_state_);
  request_local_ = local_now;
  pending_ = true;
  return SyncRequest{nonce_};
}

std::optional<SyncCalibration> TimeSyncClient::complete(
    const SyncResponse& response, sim::SimTime local_now) {
  if (!pending_) return std::nullopt;
  if (response.nonce != nonce_) return std::nullopt;
  if (local_now < request_local_) return std::nullopt;
  if (!crypto::verify_mac(
          key_, response_payload(response.nonce, response.sender_time),
          response.mac)) {
    return std::nullopt;
  }
  pending_ = false;
  return SyncCalibration(request_local_, local_now, response.sender_time);
}

TimeSyncResponder::TimeSyncResponder(common::Bytes pairwise_key)
    : key_(std::move(pairwise_key)) {
  if (key_.empty()) {
    throw std::invalid_argument("TimeSyncResponder: empty pairwise key");
  }
}

SyncResponse TimeSyncResponder::respond(const SyncRequest& request,
                                        sim::SimTime sender_now) const {
  SyncResponse response;
  response.nonce = request.nonce;
  response.sender_time = sender_now;
  response.mac = crypto::compute_mac(
      key_, response_payload(request.nonce, sender_now));
  return response;
}

}  // namespace dap::tesla
