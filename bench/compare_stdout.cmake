# Run BIN with no arguments, write its stdout to OUT, and fail unless OUT
# equals GOLDEN byte for byte. Driven by the bench.golden.* tests in
# bench/CMakeLists.txt:
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DOUT=<file> -P compare_stdout.cmake
# With -DREGEN=ON it copies OUT over GOLDEN instead (only when they
# differ), which is what the bench_golden_regen target does.
execute_process(COMMAND "${BIN}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
if(REGEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E copy_if_different "${OUT}"
                          "${GOLDEN}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "could not copy ${OUT} to ${GOLDEN}")
  endif()
  return()
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN} (see ${OUT})")
endif()
