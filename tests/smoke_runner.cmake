# ctest -P helper: run SMOKE_BINARY [SMOKE_ARGS], fail on nonzero exit,
# and when SMOKE_EXPECT is set require it as a substring of the output.
# SMOKE_EXPECT_FAIL=1 inverts the exit-code check (the binary must fail)
# — used by the negative-path smokes, e.g. an unknown generated-scenario
# reference. GOLDEN_MD5 + GOLDEN_FILE pin the bytes of one output file
# (path relative to the working directory).
if(NOT DEFINED SMOKE_BINARY)
  message(FATAL_ERROR "smoke_runner.cmake: SMOKE_BINARY not set")
endif()

set(args)
if(DEFINED SMOKE_ARGS)
  separate_arguments(args NATIVE_COMMAND "${SMOKE_ARGS}")
endif()

execute_process(
  COMMAND "${SMOKE_BINARY}" ${args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
)

if(SMOKE_EXPECT_FAIL)
  if(rc EQUAL 0)
    message(FATAL_ERROR
      "smoke: ${SMOKE_BINARY} ${SMOKE_ARGS} was expected to fail but exited 0\nstdout:\n${out}\nstderr:\n${err}")
  endif()
elseif(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "smoke: ${SMOKE_BINARY} ${SMOKE_ARGS} exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

if(DEFINED SMOKE_EXPECT)
  string(FIND "${out}${err}" "${SMOKE_EXPECT}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR
      "smoke: output of ${SMOKE_BINARY} does not contain \"${SMOKE_EXPECT}\"\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endif()

if(DEFINED GOLDEN_MD5)
  file(MD5 "${GOLDEN_FILE}" got_md5)
  if(NOT got_md5 STREQUAL GOLDEN_MD5)
    message(FATAL_ERROR
      "smoke: ${GOLDEN_FILE} digest drifted: got ${got_md5}, golden ${GOLDEN_MD5}")
  endif()
endif()

message(STATUS "smoke: ${SMOKE_BINARY} ${SMOKE_ARGS} OK")
