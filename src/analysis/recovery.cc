#include "analysis/recovery.h"

#include <map>
#include <set>

#include "common/rng.h"
#include "tesla/multilevel.h"

namespace dap::analysis {

RecoveryReport run_recovery_experiment(const RecoverySetup& setup) {
  tesla::MultiLevelConfig config;
  config.high_length = setup.high_length;
  config.low_length = setup.low_length;
  config.low_disclosure_delay = setup.low_disclosure_delay;
  config.cdm_buffers = setup.cdm_buffers;
  config.link = setup.link;
  config.edrp = setup.edrp;
  config.high_schedule = sim::IntervalSchedule(
      0, static_cast<sim::SimTime>(setup.low_length) * sim::kSecond);

  common::Rng rng(setup.seed);
  tesla::MultiLevelSender sender(config, rng.bytes(16));
  tesla::MultiLevelReceiver receiver(config, sender.bootstrap(),
                                     sim::LooseClock(0, 0), rng.fork(1));

  RecoveryReport report;

  // Tail data of the measured interval whose within-chain disclosures
  // never arrive; they must recover through the high-level key link.
  std::set<std::uint32_t> awaiting_tail;

  std::map<std::uint32_t, std::uint32_t> cdm_arrival_interval;
  double latency_sum = 0.0;

  const auto note_events =
      [&](const tesla::MultiLevelEvents& events, std::uint32_t now_interval) {
        for (const auto& cdm : events.cdms) {
          ++report.cdms_authenticated;
          if (cdm.path == tesla::CdmAuthPath::kHashChain) {
            ++report.cdm_hash_path;
          }
          const auto it = cdm_arrival_interval.find(cdm.high_interval);
          if (it != cdm_arrival_interval.end()) {
            latency_sum += static_cast<double>(now_interval - it->second);
          }
        }
        for (const auto& recovery : events.recoveries) {
          if (recovery.high_interval == setup.measured_interval) {
            report.recovered_via_high_key = true;
          }
        }
        for (const auto& message : events.messages) {
          ++report.data_authenticated;
          if (awaiting_tail.erase(message.interval) > 0 &&
              awaiting_tail.empty()) {
            report.data_recovered_at_interval = now_interval;
          }
        }
      };

  const sim::SimTime low_duration = config.low_schedule().duration();

  for (std::uint32_t i = 1; i <= setup.high_length; ++i) {
    const sim::SimTime interval_start = config.high_schedule.interval_start(i);

    // --- CDM phase: authentic copies interleaved with forged floods.
    const wire::CdmPacket& authentic = sender.cdm(i);
    cdm_arrival_interval.emplace(i, i);
    std::vector<wire::CdmPacket> cdm_flood;
    for (std::size_t c = 0; c < setup.cdm_copies; ++c) {
      cdm_flood.push_back(authentic);
    }
    for (std::size_t f = 0; f < setup.forged_cdms_per_interval; ++f) {
      wire::CdmPacket forged = authentic;  // replay the disclosed key
      forged.low_commitment = rng.bytes(config.key_size);
      forged.mac = common::InlineBytes<32>(rng.bytes(config.mac_size));
      if (config.edrp) forged.next_cdm_image = rng.bytes(32);
      cdm_flood.push_back(forged);
    }
    for (std::size_t k = cdm_flood.size(); k > 1; --k) {
      const auto j = static_cast<std::size_t>(rng.uniform(0, k - 1));
      std::swap(cdm_flood[k - 1], cdm_flood[j]);
    }
    const sim::SimTime cdm_time = interval_start + low_duration / 2;
    for (const auto& packet : cdm_flood) {
      note_events(receiver.receive(packet, cdm_time), i);
    }

    // --- Data phase.
    for (std::uint32_t j = 1; j <= setup.low_length; ++j) {
      wire::TeslaPacket data =
          sender.make_data_packet(i, j, common::bytes_of("reading"));
      ++report.data_sent;
      if (i == setup.measured_interval && j >= setup.disclosure_loss_from) {
        data.disclosed_interval = 0;
        data.disclosed_key = {};
      }
      if (i == setup.measured_interval &&
          j + config.low_disclosure_delay >= setup.disclosure_loss_from) {
        // This packet's key would only have been disclosed by a packet at
        // or beyond the loss point: it will need the high-key path.
        awaiting_tail.insert(data.interval);
      }
      const sim::SimTime data_time =
          interval_start + (j - 1) * low_duration + low_duration / 2;
      note_events(receiver.receive(data, data_time), i);
    }
  }

  const auto& stats = receiver.stats();
  report.forged_cdms_dropped = stats.cdm_forged_dropped;
  if (report.cdms_authenticated > 0) {
    report.mean_cdm_auth_latency =
        latency_sum / static_cast<double>(report.cdms_authenticated);
  }
  return report;
}

}  // namespace dap::analysis
