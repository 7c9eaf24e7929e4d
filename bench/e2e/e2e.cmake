# Build hook for the end-to-end benchmark driver.
#
# Injected into the repository's own configure step,
#
#   cmake -S . -B build-e2e -DCMAKE_PROJECT_INCLUDE=$PWD/bench/e2e/e2e.cmake
#
# so dap_e2e compiles with exactly the flags, options and libraries the
# top-level CMakeLists.txt sets up, without editing any repository build
# file. The executable is added by a deferred call, which runs after the
# top-level file has defined every dap_* target.

include_guard(GLOBAL)

if(CMAKE_VERSION VERSION_LESS 3.19)
  message(FATAL_ERROR "bench/e2e needs cmake >= 3.19 (cmake_language DEFER)")
endif()

set(DAP_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(dap_e2e_add_driver)
  add_executable(dap_e2e "${DAP_E2E_DIR}/dap_e2e.cc")
  target_link_libraries(dap_e2e
    PRIVATE dap_common dap_obs dap_wire dap_sim dap_dap dap_fleet
            dap_analysis dap_warnings)
endfunction()

cmake_language(DEFER CALL dap_e2e_add_driver)
