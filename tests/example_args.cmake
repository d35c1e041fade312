# Numeric arguments of the kept examples are parsed strictly: a negative,
# non-numeric or out-of-range value exits 2 instead of wrapping around
# (quickstart 5 64 -1 would otherwise shift a tile by 2^32 - 1).
#
# Run as:  cmake -DQUICKSTART=<bin> -DADVERSARIAL_BANK=<bin> -DTUNER=<bin>
#                -DCAMPAIGN=<bin> -DWORKDIR=<dir> -P example_args.cmake

foreach(var QUICKSTART ADVERSARIAL_BANK TUNER CAMPAIGN WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()

function(expect_exit code)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rv EQUAL ${code})
    message(FATAL_ERROR
      "expected exit ${code}, got '${rv}' for: ${ARGN}\n"
      "stdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

expect_exit(2 ${QUICKSTART} 5 64 -1)
expect_exit(2 ${QUICKSTART} 5x 64 1)
expect_exit(2 ${QUICKSTART} 5 64 41)
expect_exit(2 ${ADVERSARIAL_BANK} ${WORKDIR}/bank_bad_args -1)
expect_exit(2 ${ADVERSARIAL_BANK} ${WORKDIR}/bank_bad_args abc)
expect_exit(2 ${TUNER} m4000 -1)
expect_exit(2 ${TUNER} quadro9000 1)
expect_exit(2 ${CAMPAIGN} --threads abc)
expect_exit(2 ${CAMPAIGN} --threads -1)
file(REMOVE_RECURSE ${WORKDIR}/bank_bad_args)
