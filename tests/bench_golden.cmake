# Pinned figure outputs: runs each named bench on its smoke grid and compares
# stdout with tests/golden/<bench>.smoke.golden byte for byte. Registered as
# the bench_golden_test ctest (tests/CMakeLists.txt):
#
#   cmake -DBENCH_DIR=<dir with the bench binaries> -DGOLDEN_DIR=<dir>
#         -DBENCHES=<name,name,...> -P bench_golden.cmake
#
# Regenerating after an intentional output change:
#
#   SAGE_REGEN_GOLDEN=1 ctest --test-dir build -R bench_golden_test
#
# then review the diff of tests/golden/*.smoke.golden like any other change.
string(REPLACE "," ";" benches "${BENCHES}")
set(regen FALSE)
if(DEFINED ENV{SAGE_REGEN_GOLDEN} AND NOT "$ENV{SAGE_REGEN_GOLDEN}" STREQUAL ""
   AND NOT "$ENV{SAGE_REGEN_GOLDEN}" STREQUAL "0")
  set(regen TRUE)
endif()

set(failed "")
foreach(bench IN LISTS benches)
  set(golden "${GOLDEN_DIR}/${bench}.smoke.golden")
  execute_process(COMMAND "${BENCH_DIR}/${bench}" --smoke
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${bench} --smoke exited with ${rc}")
    list(APPEND failed ${bench})
    continue()
  endif()
  if(regen)
    file(WRITE "${golden}" "${out}")
    message(STATUS "${bench}: golden regenerated at ${golden}; review the diff")
    continue()
  endif()
  if(NOT EXISTS "${golden}")
    message(SEND_ERROR "missing golden ${golden}; run with SAGE_REGEN_GOLDEN=1 to create it")
    list(APPEND failed ${bench})
    continue()
  endif()
  file(READ "${golden}" expected)
  if(NOT out STREQUAL expected)
    set(actual "${CMAKE_CURRENT_BINARY_DIR}/${bench}.smoke.actual")
    file(WRITE "${actual}" "${out}")
    message(SEND_ERROR "${bench} --smoke output diverged from ${golden}; "
                       "see: diff -u ${golden} ${actual}")
    list(APPEND failed ${bench})
  else()
    message(STATUS "${bench}: matches its golden")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "golden mismatch: ${failed}")
endif()
