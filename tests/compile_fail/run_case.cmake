# Compile-fail test driver.  Invoked per case by ctest as
#   cmake -DCASE_FILE=<case.cc> -DCXX_COMPILER=<c++> -DINCLUDE_DIR=<src>
#         -P run_case.cmake
#
# Negative cases must fail to compile AND emit a diagnostic matching every
# `// expect-error-regex:` line in the case file.  A case marked
# `// expect-compile: ok` is a positive control and must compile.  A
# `// compile-flags: <flags>` line adds compiler flags for that case.
foreach(required_var CASE_FILE CXX_COMPILER INCLUDE_DIR)
  if(NOT DEFINED ${required_var})
    message(FATAL_ERROR "missing -D${required_var}=...")
  endif()
endforeach()

file(READ "${CASE_FILE}" case_contents)
string(FIND "${case_contents}" "// expect-compile: ok" ok_marker)
set(extra_flags "")
if(case_contents MATCHES "// compile-flags: ([^\n]*)")
  separate_arguments(extra_flags UNIX_COMMAND "${CMAKE_MATCH_1}")
endif()

execute_process(
  COMMAND "${CXX_COMPILER}" -std=c++20 -fsyntax-only ${extra_flags}
          "-I${INCLUDE_DIR}" "${CASE_FILE}"
  RESULT_VARIABLE compile_rc
  OUTPUT_VARIABLE compile_out
  ERROR_VARIABLE compile_err)

if(NOT ok_marker EQUAL -1)
  # Positive control: the harness itself is broken if this stops compiling.
  if(NOT compile_rc EQUAL 0)
    message(FATAL_ERROR
        "positive control ${CASE_FILE} failed to compile — the harness "
        "(include path / compiler flags) is broken, so every negative case "
        "would fail vacuously:\n${compile_err}")
  endif()
  return()
endif()

if(compile_rc EQUAL 0)
  message(FATAL_ERROR
      "${CASE_FILE} COMPILED, but it exercises code the compiler must "
      "reject.  A type boundary was weakened (friend list widened, deleted "
      "operator removed, or constructor made public) or a thread-safety "
      "annotation stopped being checked.")
endif()

string(REGEX MATCHALL "// expect-error-regex: [^\n]*" expect_lines
       "${case_contents}")
if(NOT expect_lines)
  message(FATAL_ERROR
      "${CASE_FILE} has no // expect-error-regex: line — a negative case "
      "must document the diagnostic it expects.")
endif()

foreach(line IN LISTS expect_lines)
  string(REGEX REPLACE "^// expect-error-regex: " "" pattern "${line}")
  if(NOT compile_err MATCHES "${pattern}")
    message(FATAL_ERROR
        "${CASE_FILE} failed to compile (good), but for the WRONG reason.\n"
        "expected diagnostic matching: ${pattern}\n"
        "actual compiler output:\n${compile_err}")
  endif()
endforeach()
