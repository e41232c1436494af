# No dynvote library calls libgcc's popcount, run by ctest as
# popcount_inline: SiteSet::Size() is std::popcount, which x86-64 GCC
# compiles to a call into __popcountdi2 unless the POPCNT instruction is
# enabled (src/CMakeLists.txt passes -mpopcnt). Losing the flag changes
# no output, only the speed of every quorum and component query, so this
# test is what notices. Skipped where `nm` is not available.
#
#   cmake -DNM=path/to/nm -DLIBS="lib1.a|lib2.a|..." -P popcount_inline.cmake

if(NOT LIBS)
  message(FATAL_ERROR "pass -DLIBS=<lib.a>|<lib.a>... [-DNM=<nm>]")
endif()
if(NM AND EXISTS "${NM}")
  set(nm_tool "${NM}")
else()
  find_program(nm_tool nm)
endif()
if(NOT nm_tool)
  message("SKIPPED: nm not found")
  return()
endif()

string(REPLACE "|" ";" libs "${LIBS}")
set(offenders "")
foreach(lib IN LISTS libs)
  execute_process(COMMAND "${nm_tool}" --undefined-only "${lib}"
                  OUTPUT_VARIABLE symbols ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nm ${lib} failed (${rc}):\n${err}")
  endif()
  if(symbols MATCHES "__popcount[a-z]*2")
    list(APPEND offenders "${lib}")
  endif()
endforeach()
list(LENGTH libs checked)
if(offenders)
  string(REPLACE ";" "\n  " shown "${offenders}")
  message(FATAL_ERROR
    "libraries calling libgcc's popcount (is -mpopcnt missing?):\n  ${shown}")
endif()
message("popcount_inline: ${checked} libraries, none calls __popcountdi2")
