// Crypto hot-path throughput: the batched SHA-256 backends (multi-lane
// SSE2/AVX2, 1-lane SHA-NI) vs the portable C oracle, HMAC midstate
// caching vs per-call pad recomputation, and the batched TESLA chain walk
// vs the sequential one.
//
// Three tables, one per operation, each row a backend with hashes/sec
// and its speedup over the scalar reference measured in-process. The CSV
// intentionally carries NO timing data — only message/step counts and a
// digest checksum per (op, backend) row, which must be identical across
// backends, lane counts, and thread counts (the determinism contract
// bench_baseline.py diffs). Rates and speedups go to the metrics footer
// as gauges (bench.crypto.*_per_sec / *_speedup), which is what
// bench_trend.py gates.
//
// Exits non-zero if any batched digest diverges from the scalar oracle,
// so the --smoke run doubles as the ctest `crypto_throughput_smoke`.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bytes.h"
#include "common/csv.h"
#include "common/table.h"
#include "crypto/hmac.h"
#include "crypto/keychain.h"
#include "crypto/prf.h"
#include "crypto/sha256.h"
#include "crypto/sha256_batch.h"

namespace {

using dap::common::Bytes;
using dap::common::ByteView;
namespace crypto = dap::crypto;

template <typename Fn>
double wall_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Interleaved {
  double base_per_sec = 0;
  std::vector<double> cand_per_sec;
  std::vector<double> cand_speedup;
};

/// Times the baseline and every candidate adjacently within each round,
/// then reports each candidate's speedup as the MEDIAN of the per-round
/// baseline/candidate wall ratios. A CPU-steal or frequency event that
/// lands on one round slows both sides of that round's ratios and is
/// voted out by the other rounds — separate best-of windows have no such
/// protection, and the speedup gauges are regression-gated by
/// bench_trend.py, so they must hold steady on busy shared cores.
/// Rates (ungated, reporting only) come from the best window per side.
Interleaved measure_interleaved(const std::function<void()>& base,
                                const std::vector<std::function<void()>>& cands,
                                int rounds, double work) {
  std::vector<double> base_walls;
  std::vector<std::vector<double>> cand_walls(cands.size());
  for (int r = 0; r < rounds; ++r) {
    base_walls.push_back(wall_seconds(base));
    for (std::size_t c = 0; c < cands.size(); ++c) {
      cand_walls[c].push_back(wall_seconds(cands[c]));
    }
  }
  Interleaved out;
  out.base_per_sec =
      work / *std::min_element(base_walls.begin(), base_walls.end());
  for (std::size_t c = 0; c < cands.size(); ++c) {
    out.cand_per_sec.push_back(
        work /
        *std::min_element(cand_walls[c].begin(), cand_walls[c].end()));
    std::vector<double> ratios;
    for (int r = 0; r < rounds; ++r) {
      ratios.push_back(base_walls[static_cast<std::size_t>(r)] /
                       cand_walls[c][static_cast<std::size_t>(r)]);
    }
    out.cand_speedup.push_back(median_of(std::move(ratios)));
  }
  return out;
}

/// FNV-style fold of a digest list into a 64-bit hex checksum: the fold
/// order is the (fixed) message order, so the value is identical across
/// backends, lane counts, and thread counts — the CSV's determinism
/// witness.
std::string digest_checksum(const std::vector<crypto::Digest>& digests) {
  std::uint64_t acc = 1469598103934665603ULL;
  for (const crypto::Digest& d : digests) {
    for (const std::uint8_t b : d) {
      acc = (acc ^ b) * 1099511628211ULL;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(acc));
  return buf;
}

std::string checksum_of_keys(const std::vector<Bytes>& keys) {
  std::uint64_t acc = 1469598103934665603ULL;
  for (const Bytes& k : keys) {
    for (const std::uint8_t b : k) {
      acc = (acc ^ b) * 1099511628211ULL;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(acc));
  return buf;
}

/// Pins the portable C kernel. Every baseline (and every oracle) runs
/// under it, so each *_speedup gauge means "vs portable C" whichever
/// candidate backend ran last — the streaming Sha256 under the baselines
/// otherwise follows the forced backend onto SHA-NI.
void force_portable_c() {
  crypto::force_sha256_backend(crypto::Sha256Backend::kScalar);
}

struct Row {
  std::string op;
  std::string backend;
  std::size_t messages = 0;
  double per_sec = 0;
  double speedup = 1.0;
  std::string checksum;
};

void set_gauges(const Row& row) {
  auto& reg = dap::obs::Registry::global();
  const std::string base = "bench.crypto." + row.op + "_" + row.backend;
  reg.set(reg.gauge(base + "_per_sec"), row.per_sec);
  reg.set(reg.gauge(base + "_speedup"), row.speedup);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const std::size_t threads = dap::bench::configure_threads(argc, argv);
  dap::bench::banner(
      std::string("crypto throughput — multi-lane SHA-256 + HMAC midstates") +
          (smoke ? " (smoke)" : ""),
      "the SHA-256/HMAC/chain-walk substrate under every DAP cost model "
      "(Section IV's verification arms race)",
      ">= 2.5x batched-vs-scalar hashing on AVX2 hosts, >= 1.3x from "
      "HMAC midstate caching alone; identical digests everywhere");
  std::cout << "[parallel engine: " << threads << " thread(s)]\n";
  // Distinct scenario ids per mode: the smoke and full workloads have
  // structurally different speedup trajectories, and bench_trend.py
  // matches baseline entries by scenario id.
  dap::bench::set_run_scenario(smoke ? "crypto-throughput:smoke"
                                     : "crypto-throughput:full");

  const std::size_t n_msgs = smoke ? 2048 : 16384;
  const std::size_t msg_len = 48;  // single-block messages (DAP announce size)
  // Smoke still needs enough work per timed window (reps) and enough
  // interleaved rounds (the median-of-ratios filter in
  // measure_interleaved) that the speedup gauges hold steady within
  // bench_trend.py's band on a busy shared core; the digests, not the
  // clocks, are the pass/fail signal.
  const int reps = smoke ? 16 : 8;
  const int rounds = smoke ? 7 : 5;

  std::vector<Bytes> messages(n_msgs);
  for (std::size_t i = 0; i < n_msgs; ++i) {
    messages[i].resize(msg_len);
    for (std::size_t b = 0; b < msg_len; ++b) {
      messages[i][b] = static_cast<std::uint8_t>((i * 131 + b * 7) & 0xFF);
    }
  }
  std::vector<ByteView> views(messages.begin(), messages.end());

  std::vector<Row> rows;
  bool digests_ok = true;
  const std::vector<crypto::Sha256Backend> backends =
      crypto::supported_sha256_backends();

  // ---------------------------------------------------------- sha256_many
  std::vector<crypto::Digest> oracle(n_msgs);
  {
    const dap::bench::PhaseTimer phase("sha256");
    force_portable_c();
    for (std::size_t i = 0; i < n_msgs; ++i) {
      crypto::Sha256 h;
      h.update(views[i]);
      oracle[i] = h.finalize();
    }
    // Untimed correctness pass per backend (also warms caches), then the
    // interleaved timing rounds over the same buffers.
    std::vector<crypto::Digest> out(n_msgs);
    std::vector<std::string> checksums;
    std::vector<std::function<void()>> cands;
    for (const crypto::Sha256Backend b : backends) {
      crypto::force_sha256_backend(b);
      crypto::sha256_many(views, out);
      for (std::size_t i = 0; i < n_msgs; ++i) {
        digests_ok = digests_ok && std::equal(out[i].begin(), out[i].end(),
                                              oracle[i].begin());
      }
      checksums.push_back(digest_checksum(out));
      cands.push_back([&views, &out, b, reps] {
        crypto::force_sha256_backend(b);
        for (int r = 0; r < reps; ++r) crypto::sha256_many(views, out);
      });
    }
    const Interleaved m = measure_interleaved(
        [&] {
          force_portable_c();
          for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < n_msgs; ++i) {
              crypto::Sha256 h;
              h.update(views[i]);
              oracle[i] = h.finalize();
            }
          }
        },
        cands, rounds, static_cast<double>(n_msgs) * reps);
    crypto::clear_sha256_backend_override();
    rows.push_back({"sha256", "scalar_oneshot", n_msgs, m.base_per_sec, 1.0,
                    digest_checksum(oracle)});
    for (std::size_t c = 0; c < backends.size(); ++c) {
      rows.push_back({"sha256", std::string(crypto::backend_name(backends[c])),
                      n_msgs, m.cand_per_sec[c], m.cand_speedup[c],
                      checksums[c]});
    }
  }

  // ----------------------------------------------- hmac: midstate caching
  {
    const dap::bench::PhaseTimer phase("hmac");
    const Bytes key(32, 0x42);
    force_portable_c();
    std::vector<crypto::Digest> macs(n_msgs);
    for (std::size_t i = 0; i < n_msgs; ++i) {
      macs[i] = crypto::hmac_sha256(key, views[i]);
    }
    const std::vector<crypto::Digest> mac_oracle = macs;
    const crypto::HmacKey hkey{ByteView(key)};

    std::vector<std::string> names;
    std::vector<std::string> checksums;
    std::vector<std::function<void()>> cands;
    const auto add_candidate = [&](const std::string& name,
                                   std::function<void()> once,
                                   std::function<void()> timed) {
      once();
      for (std::size_t i = 0; i < n_msgs; ++i) {
        digests_ok = digests_ok && std::equal(macs[i].begin(), macs[i].end(),
                                              mac_oracle[i].begin());
      }
      names.push_back(name);
      checksums.push_back(digest_checksum(macs));
      cands.push_back(std::move(timed));
    };
    // Midstate caching alone, on the portable C kernel like its baseline.
    add_candidate(
        "midstate",
        [&] {
          force_portable_c();
          for (std::size_t i = 0; i < n_msgs; ++i) macs[i] = hkey.mac(views[i]);
        },
        [&hkey, &views, &macs, n_msgs, reps] {
          force_portable_c();
          for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < n_msgs; ++i) {
              macs[i] = hkey.mac(views[i]);
            }
          }
        });
    for (const crypto::Sha256Backend b : backends) {
      add_candidate(
          std::string("many_") + std::string(crypto::backend_name(b)),
          [&, b] {
            crypto::force_sha256_backend(b);
            crypto::hmac_many(hkey, views, macs);
          },
          [&hkey, &views, &macs, b, reps] {
            crypto::force_sha256_backend(b);
            for (int r = 0; r < reps; ++r) crypto::hmac_many(hkey, views, macs);
          });
    }
    const Interleaved m = measure_interleaved(
        [&] {
          force_portable_c();
          for (int r = 0; r < reps; ++r) {
            for (std::size_t i = 0; i < n_msgs; ++i) {
              macs[i] = crypto::hmac_sha256(key, views[i]);
            }
          }
        },
        cands, rounds, static_cast<double>(n_msgs) * reps);
    crypto::clear_sha256_backend_override();
    rows.push_back({"hmac", "oneshot_pads", n_msgs, m.base_per_sec, 1.0,
                    digest_checksum(mac_oracle)});
    for (std::size_t c = 0; c < names.size(); ++c) {
      rows.push_back({"hmac", names[c], n_msgs, m.cand_per_sec[c],
                      m.cand_speedup[c], checksums[c]});
    }
  }

  // -------------------------------------------------- TESLA chain walking
  {
    const dap::bench::PhaseTimer phase("chain_walk");
    const std::size_t n_chains = smoke ? 128 : 256;
    const std::uint32_t walk_steps = smoke ? 96 : 128;
    // The batched walk finishes a smoke pass in ~2 ms; repeat it so each
    // timed window is long enough for the per-round ratios to be stable.
    const int walk_reps = smoke ? 4 : 2;
    const std::size_t key_size = 16;
    std::vector<Bytes> starts(n_chains);
    for (std::size_t c = 0; c < n_chains; ++c) {
      starts[c].resize(key_size);
      for (std::size_t b = 0; b < key_size; ++b) {
        starts[c][b] = static_cast<std::uint8_t>((c * 31 + b) & 0xFF);
      }
    }
    std::vector<Bytes> walked(n_chains);
    force_portable_c();
    for (std::size_t c = 0; c < n_chains; ++c) {
      walked[c] = crypto::chain_walk(crypto::PrfDomain::kChainStep, starts[c],
                                     walk_steps, key_size);
    }

    const std::vector<std::uint32_t> steps(n_chains, walk_steps);
    std::vector<std::string> checksums;
    std::vector<std::function<void()>> cands;
    std::vector<Bytes> traj;
    for (const crypto::Sha256Backend b : backends) {
      crypto::force_sha256_backend(b);
      traj.clear();
      crypto::prf_walk_many(crypto::PrfDomain::kChainStep, starts, steps,
                            key_size, traj);
      std::vector<Bytes> ends(n_chains);
      for (std::size_t c = 0; c < n_chains; ++c) {
        ends[c].assign(traj[c].end() - static_cast<std::ptrdiff_t>(key_size),
                       traj[c].end());
        digests_ok = digests_ok && dap::common::equal(ends[c], walked[c]);
      }
      checksums.push_back(checksum_of_keys(ends));
      cands.push_back([&starts, &steps, &traj, b, walk_reps, key_size] {
        crypto::force_sha256_backend(b);
        for (int r = 0; r < walk_reps; ++r) {
          traj.clear();
          crypto::prf_walk_many(crypto::PrfDomain::kChainStep, starts, steps,
                                key_size, traj);
        }
      });
    }
    const Interleaved m = measure_interleaved(
        [&] {
          force_portable_c();
          for (int r = 0; r < walk_reps; ++r) {
            for (std::size_t c = 0; c < n_chains; ++c) {
              walked[c] = crypto::chain_walk(crypto::PrfDomain::kChainStep,
                                             starts[c], walk_steps, key_size);
            }
          }
        },
        cands, rounds,
        static_cast<double>(n_chains) * walk_steps * walk_reps);
    crypto::clear_sha256_backend_override();
    rows.push_back({"chain_walk", "sequential", n_chains * walk_steps,
                    m.base_per_sec, 1.0, checksum_of_keys(walked)});
    for (std::size_t c = 0; c < backends.size(); ++c) {
      rows.push_back({"chain_walk",
                      std::string(crypto::backend_name(backends[c])),
                      n_chains * walk_steps, m.cand_per_sec[c],
                      m.cand_speedup[c], checksums[c]});
    }
  }

  // --------------------------------------------------------------- output
  dap::common::TextTable table(
      {"op", "backend", "messages", "hashes/sec", "speedup", "checksum"});
  dap::common::CsvWriter csv(
      dap::bench::csv_path("crypto_throughput"),
      {"op", "backend", "messages", "checksum"});
  for (const Row& row : rows) {
    char rate_buf[32], speed_buf[32];
    std::snprintf(rate_buf, sizeof rate_buf, "%.3e", row.per_sec);
    std::snprintf(speed_buf, sizeof speed_buf, "%.2fx", row.speedup);
    table.add_row({row.op, row.backend, std::to_string(row.messages),
                   rate_buf, speed_buf, row.checksum});
    // Deterministic CSV: no rates, no wall times — the checksum column is
    // the cross-backend/thread-count identity contract.
    csv.row_text(
        {row.op, row.backend, std::to_string(row.messages), row.checksum});
    set_gauges(row);
  }
  csv.flush();
  std::cout << table.render();

  crypto::publish_lane_occupancy();
  auto& reg = dap::obs::Registry::global();
  std::cout << "[active backend: "
            << crypto::backend_name(crypto::active_sha256_backend())
            << ", lane occupancy: "
            << reg.value(reg.gauge("crypto.batch.lane_occupancy_pct"))
            << "%]\n";
  if (!digests_ok) {
    std::cerr << "FAIL: a batched digest diverged from the scalar oracle\n";
  }
  dap::bench::footer("crypto_throughput");
  return digests_ok ? 0 : 1;
}
