# Runs bench_experiments with a command line it must refuse, by ctest:
# passes only if the driver exits 2 and prints its usage line.
# Usage: cmake -DDRIVER=<bench_experiments> "-DARGS=<arguments>" -P expect_usage.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${DRIVER}" ${args}
                RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "2" OR NOT err MATCHES "usage: bench_experiments")
  message(FATAL_ERROR "bench_experiments ${ARGS}: expected the usage exit 2, got ${status}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
