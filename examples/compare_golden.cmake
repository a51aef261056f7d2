# Runs an example and fails unless its standard output equals a golden
# file byte for byte.
#
#   cmake -DEXE=path/to/example -DGOLDEN=file.golden -P compare_golden.cmake
#
# To re-record after an intentional change, run the example and redirect
# its output into the golden file.
execute_process(COMMAND "${EXE}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited ${rc}:\n${actual}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "output diverged from ${GOLDEN}:\n${actual}")
endif()
