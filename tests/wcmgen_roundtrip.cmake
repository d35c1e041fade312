# Generate/inspect round trip: `wcmgen generate` prints the inversion
# fraction the generator counted while building the keys, `wcmgen inspect`
# the one count_inversions() finds in the file it wrote.  Both lines must
# agree, digit for digit.
#
# Run as:  cmake -DWCMGEN=<binary> -DWORKDIR=<dir> -P wcmgen_roundtrip.cmake

if(NOT DEFINED WCMGEN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DWCMGEN=<binary> -DWORKDIR=<dir>")
endif()

function(run_wcmgen out_var)
  execute_process(COMMAND ${WCMGEN} ${ARGN}
                  RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "exit ${rv} for: ${ARGN}\nstdout: ${out}\n"
                        "stderr: ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(fraction_line out_var text)
  string(REGEX MATCH "inversion fraction: [^\n]*" line "${text}")
  if(line STREQUAL "")
    message(FATAL_ERROR "no 'inversion fraction:' line in:\n${text}")
  endif()
  set(${out_var} "${line}" PARENT_SCOPE)
endfunction()

set(file ${WORKDIR}/roundtrip.wcmi)
foreach(flags "--k;6" "--E;5;--b;64;--k;6;--seed;0"
        "--E;17;--b;256;--k;3;--seed;9;--intra")
  run_wcmgen(generated generate ${flags} --out ${file})
  run_wcmgen(inspected inspect --in ${file})
  fraction_line(built "${generated}")
  fraction_line(counted "${inspected}")
  if(NOT built STREQUAL counted)
    message(FATAL_ERROR "${flags}: generate printed '${built}', "
                        "inspect printed '${counted}'")
  endif()
endforeach()
file(REMOVE ${file})
