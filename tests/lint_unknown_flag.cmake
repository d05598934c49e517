# Runs `hpcgpt_lint --bogus <file>` (HPCGPT_LINT is the binary's path,
# SAMPLE a racy source file) and fails unless it exits 2 naming the
# unknown flag. Linting the racy sample would exit 1, and a parser that
# took the file name as the flag's value would print usage without
# naming the flag.
execute_process(
  COMMAND "${HPCGPT_LINT}" --bogus "${SAMPLE}"
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "unknown flag --bogus")
  message(FATAL_ERROR "expected exit 2 naming --bogus, got exit "
                      "${code}; stderr: ${err}")
endif()
