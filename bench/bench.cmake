# Experiment binaries: one per reproduced table/figure plus ablations.
# Defined from the top level (not add_subdirectory) so the build-tree
# bench/ directory contains ONLY the executables and
# `for b in build/bench/*; do $b; done` runs them all cleanly.

set(DAP_BENCH_PLAIN
  fig5_bandwidth
  fig6_evolution
  fig7_optimal_m
  fig8_defense_cost
  fig8_empirical
  table2_payoff
  memory_cost
  montecarlo_dap
  family_compare
  extreme_conditions
  recovery_compare
  ablate_umac
  ablate_buffer_policy
  ablate_integrator
  ablate_constants
  ablate_fig5_sender
  population_dynamics
  chaos_soak
  fleet_scale
  crypto_throughput
  game_loop
)

foreach(name ${DAP_BENCH_PLAIN})
  add_executable(bench_${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(bench_${name}
    PRIVATE dap_common dap_obs dap_crypto dap_wire dap_sim dap_tesla dap_dap
            dap_game dap_analysis dap_fleet dap_warnings)
  set_target_properties(bench_${name} PROPERTIES
    OUTPUT_NAME ${name}
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

# micro_crypto supplies its own main: google-benchmark runner plus the
# obs-registry run summary export.
add_executable(bench_micro_crypto ${CMAKE_SOURCE_DIR}/bench/micro_crypto.cc)
target_link_libraries(bench_micro_crypto
  PRIVATE dap_common dap_obs dap_crypto dap_wire dap_sim dap_tesla dap_dap
          benchmark::benchmark dap_warnings)
set_target_properties(bench_micro_crypto PROPERTIES
  OUTPUT_NAME micro_crypto
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)

# Short fixed-seed chaos soak in the default ctest suite (the bench exits
# non-zero on an invariant violation). The full seeded soak runs in
# tests/test_chaos_soak.cc under DAP_CHAOS_SOAK_ITERS.
add_test(NAME chaos_soak_smoke COMMAND bench_chaos_soak --smoke)

# Short fleet sweep with the same contract: exits non-zero when a forged
# message authenticates or the flagship fleets fall below scale.
add_test(NAME fleet_scale_smoke COMMAND bench_fleet_scale --smoke)

# Batched-crypto equivalence smoke: exits non-zero when any multi-lane
# digest diverges from the scalar oracle.
add_test(NAME crypto_throughput_smoke COMMAND bench_crypto_throughput --smoke)

# Relay-hardening soak: the standard fleet chaos cases (crash/restart,
# healing partitions, degraded budgets, guard saturation) exit non-zero
# on a forged auth, unbounded relay memory, or a missed reconvergence
# bound.
add_test(NAME fleet_chaos_smoke COMMAND bench_fleet_scale --chaos --smoke)

# Game-loop smoke: the adaptive adversary must converge to the offline
# ESS within tolerance with zero forged auths, and the DAP / TESLA++ /
# MABS memory-vs-bandwidth separation must hold.
add_test(NAME game_loop_smoke COMMAND bench_game_loop --smoke)
