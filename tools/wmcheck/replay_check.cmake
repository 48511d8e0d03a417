# Runs `wmcheck --variant VARIANT --replay LIST` and fails unless it exits
# with EXPECT and its output matches MATCH.
#   cmake -DWMCHECK=... -DVARIANT=... -DLIST=... -DEXPECT=... -DMATCH=...
#         -P replay_check.cmake
execute_process(COMMAND ${WMCHECK} --variant ${VARIANT} --replay ${LIST}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR "wmcheck exited ${rc}, expected ${EXPECT}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "wmcheck output does not match '${MATCH}'\n${out}${err}")
endif()
