# Runs `hpcgpt serve --model <absent file> --speculate` (HPCGPT is the
# binary's path) and fails unless it exits 2 naming the unknown flag. The
# model file does not exist, so a CLI that loaded the model before
# checking its flags would exit 1 with "cannot open" instead.
execute_process(
  COMMAND "${HPCGPT}" serve --model no-such-model.bin --speculate
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL 2 OR NOT err MATCHES "unknown flag --speculate")
  message(FATAL_ERROR "expected exit 2 naming --speculate, got exit "
                      "${code}; stderr: ${err}")
endif()
