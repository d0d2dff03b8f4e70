# rumr_bench: the repository benchmark's targets.
#
# Included into the repository's own top-level build (see inject.cmake), so
# the library it measures gets exactly the flags and compile definitions the
# main build gives it:
#
#   cmake -S . -B .bench_build/rumr_bench -DCMAKE_BUILD_TYPE=Release \
#         -DRUMR_BUILD_TESTS=OFF -DRUMR_BUILD_BENCH=OFF -DRUMR_BUILD_EXAMPLES=OFF \
#         -DRUMR_BUILD_TOOLS=OFF -DCMAKE_PROJECT_INCLUDE=$PWD/bench/perf/inject.cmake
#   cmake --build .bench_build/rumr_bench --target rumr_bench
#
# run.py does both steps before every run.
add_executable(rumr_bench
  ${CMAKE_CURRENT_LIST_DIR}/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/inputs.cpp
  ${CMAKE_CURRENT_LIST_DIR}/report.cpp
  ${CMAKE_CURRENT_LIST_DIR}/workloads.cpp
  ${CMAKE_CURRENT_LIST_DIR}/traced.cpp)
target_link_libraries(rumr_bench PRIVATE rumr::rumr rumr_warnings)

# Tiny sizes, one round, every workload untraced and traced: checks that
# every metric in BENCHMARK.json is reported and that every layer table adds
# up. Run with: ctest --test-dir .bench_build/rumr_bench -L bench
enable_testing()
add_test(NAME bench_smoke
         COMMAND rumr_bench --all --smoke --seed 1
                 --out ${CMAKE_BINARY_DIR}/bench_smoke
                 --manifest ${CMAKE_CURRENT_LIST_DIR}/../../BENCHMARK.json)
set_tests_properties(bench_smoke PROPERTIES LABELS "bench")
