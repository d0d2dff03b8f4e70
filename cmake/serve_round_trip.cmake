# Framed session round trip through rumr_serve, run by ctest:
#   --emit-demo-requests -> --stdio (responses on stdout, the drained session
#   ledger on stderr) -> --verify-demo-responses.
# Usage: cmake -DSERVE=<rumr_serve> -DDIR=<output dir> -P serve_round_trip.cmake

file(MAKE_DIRECTORY "${DIR}")
execute_process(COMMAND "${SERVE}" --emit-demo-requests "${DIR}/requests.bin"
                COMMAND_ERROR_IS_FATAL ANY)
execute_process(COMMAND "${SERVE}" --stdio
                INPUT_FILE "${DIR}/requests.bin"
                OUTPUT_FILE "${DIR}/responses.bin"
                ERROR_FILE "${DIR}/session.log"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  file(READ "${DIR}/session.log" log)
  message(FATAL_ERROR "rumr_serve --stdio exited with ${status}:\n${log}")
endif()
execute_process(COMMAND "${SERVE}" --verify-demo-responses "${DIR}/responses.bin"
                        "${DIR}/session.log"
                COMMAND_ERROR_IS_FATAL ANY)
