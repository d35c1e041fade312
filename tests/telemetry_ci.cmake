# Telemetry gate (ISSUE acceptance): `wcmgen profile` must produce a
# strict-JSON Chrome trace and metrics snapshot for both adversarial
# regimes, the cache hit/miss counters must mirror the campaign gate's
# cold/warm invariants, and an injected trace-export failure must degrade
# to a warning without changing the exit code.  Runs under TSan in CI
# (WCM_THREADS=4 campaign cells with telemetry on).
#
# Run as:  cmake -DWCMGEN=<bin> -DWORKDIR=<dir> -P telemetry_ci.cmake

if(NOT DEFINED WCMGEN OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DWCMGEN=<bin> -DWORKDIR=<dir>")
endif()

file(MAKE_DIRECTORY ${WORKDIR})

function(run_profile out_var err_var)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rv
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "expected exit 0, got '${rv}' for: ${ARGN}\n"
                        "stdout: ${out}\nstderr: ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

# Strict-JSON validation via CMake's parser: a trace must be an object
# whose traceEvents array is non-empty and whose first event is a complete
# duration ("ph": "X") record.
function(check_trace path)
  file(READ ${path} trace)
  string(JSON n_events LENGTH "${trace}" traceEvents)
  if(n_events LESS 1)
    message(FATAL_ERROR "trace ${path} has no events")
  endif()
  string(JSON ph GET "${trace}" traceEvents 0 ph)
  string(JSON name GET "${trace}" traceEvents 0 name)
  string(JSON ts GET "${trace}" traceEvents 0 ts)
  string(JSON dur GET "${trace}" traceEvents 0 dur)
  if(NOT ph STREQUAL "X")
    message(FATAL_ERROR "trace ${path}: first event ph='${ph}', want 'X'")
  endif()
  if(name STREQUAL "")
    message(FATAL_ERROR "trace ${path}: first event has no name")
  endif()
endfunction()

# The metrics JSON must parse, contain at least `min` rows, and include
# the named metric.
function(check_metrics path min metric)
  file(READ ${path} metrics)
  string(JSON n_rows LENGTH "${metrics}" metrics)
  if(n_rows LESS ${min})
    message(FATAL_ERROR
      "metrics ${path}: ${n_rows} rows, want >= ${min}")
  endif()
  if(NOT metrics MATCHES "\"name\":\"${metric}\"")
    message(FATAL_ERROR "metrics ${path}: missing metric '${metric}'")
  endif()
endfunction()

# 1. Canned profiles: both adversarial regimes run end-to-end with tracing
#    and metrics on, exit 0, and emit valid artifacts plus the on-stdout
#    metrics table.
foreach(regime small-E large-E)
  set(trace ${WORKDIR}/profile_${regime}.trace.json)
  set(metrics ${WORKDIR}/profile_${regime}.metrics.json)
  run_profile(out err ${WCMGEN} profile --engine pairwise
              --adversarial ${regime} --k 2
              --telemetry ${trace} --metrics ${metrics})
  check_trace(${trace})
  check_metrics(${metrics} 10 sim.round.replays)
  if(NOT out MATCHES "--- telemetry metrics ---")
    message(FATAL_ERROR "profile ${regime}: metrics table missing\n${out}")
  endif()
  if(NOT out MATCHES "sim\\.rounds{engine=pairwise} [1-9]")
    message(FATAL_ERROR "profile ${regime}: no sim.rounds row\n${out}")
  endif()
endforeach()

# 2. Wrapped mode + cache counters: a cold profiled campaign must report
#    all misses, a warm rerun all hits (the campaign gate's invariants,
#    observed through the metrics registry this time).
set(spec ${WORKDIR}/telemetry_ci.json)
file(WRITE ${spec} [[{
  "name": "telemetry-ci",
  "device": "m4000",
  "seed": 17,
  "grid": [
    {"engine": "pairwise", "E": 5, "b": 64,
     "input": ["random", "worst-case"], "k": [1, 2]},
    {"engine": "multiway", "E": 3, "b": 64, "input": "worst-case",
     "k": [1], "ways": 2}
  ]
}]])
set(cache ${WORKDIR}/telemetry_ci.wcmc)
file(REMOVE ${cache})

run_profile(cold_out cold_err ${WCMGEN} profile campaign ${spec}
            --threads 4 --cache ${cache} --quiet
            --out ${WORKDIR}/cold.json
            --metrics ${WORKDIR}/cold.metrics.json)
if(NOT cold_out MATCHES "runtime\\.cache\\.miss{} 5")
  message(FATAL_ERROR "cold campaign: want 5 cache misses\n${cold_out}")
endif()
if(NOT cold_out MATCHES "runtime\\.cache\\.hit{} 0")
  message(FATAL_ERROR "cold campaign: want 0 cache hits\n${cold_out}")
endif()
if(NOT cold_out MATCHES "runtime\\.scheduler\\.jobs\\.completed{} 5")
  message(FATAL_ERROR "cold campaign: want 5 completed jobs\n${cold_out}")
endif()
check_metrics(${WORKDIR}/cold.metrics.json 5 runtime.cache.miss)

run_profile(warm_out warm_err ${WCMGEN} profile campaign ${spec}
            --threads 4 --cache ${cache} --quiet
            --out ${WORKDIR}/warm.json
            --metrics ${WORKDIR}/warm.metrics.json)
if(NOT warm_out MATCHES "runtime\\.cache\\.hit{} 5")
  message(FATAL_ERROR "warm campaign: want 5 cache hits\n${warm_out}")
endif()
if(NOT warm_out MATCHES "runtime\\.cache\\.miss{} 0")
  message(FATAL_ERROR "warm campaign: want 0 cache misses\n${warm_out}")
endif()

# The profiled runs must still produce byte-identical campaign output.
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/cold.json ${WORKDIR}/warm.json
                RESULT_VARIABLE cmp)
if(NOT cmp EQUAL 0)
  message(FATAL_ERROR "profiled cold/warm campaign outputs differ")
endif()

# 3. Degrade gracefully: an injected trace-export failure warns on stderr
#    but leaves the profiled run's exit code at 0.
set(doomed ${WORKDIR}/doomed.trace.json)
file(REMOVE ${doomed})
run_profile(fp_out fp_err ${CMAKE_COMMAND} -E env
            WCM_FAILPOINTS=telemetry.export.write
            ${WCMGEN} profile --engine pairwise --adversarial small-E
            --k 1 --telemetry ${doomed})
if(NOT fp_err MATCHES "trace export failed")
  message(FATAL_ERROR
    "injected export failure did not warn\nstderr: ${fp_err}")
endif()
if(NOT fp_err MATCHES "run continues")
  message(FATAL_ERROR "export-failure warning lost its contract\n${fp_err}")
endif()

# 4. WCM_TRACE_OUT drives any subcommand without the profile wrapper.
set(env_trace ${WORKDIR}/env.trace.json)
file(REMOVE ${env_trace})
run_profile(env_out env_err ${CMAKE_COMMAND} -E env
            WCM_TRACE_OUT=${env_trace}
            ${WCMGEN} sort --E 5 --b 64 --k 2 --input worst-case)
check_trace(${env_trace})

# 5. Wrapping runs the bare subcommand's code path: `profile analyze`
#    prints exactly the bare `analyze` report, then the metrics table.
set(lint_trace ${WORKDIR}/profiled.wcmt)
run_profile(rec_out rec_err ${WCMGEN} sort --E 5 --b 64 --k 1
            --input random --trace-out ${lint_trace})
run_profile(bare_out bare_err ${WCMGEN} analyze ${lint_trace})
run_profile(wrapped_out wrapped_err ${WCMGEN} profile analyze ${lint_trace})
string(FIND "${wrapped_out}" "${bare_out}--- telemetry metrics ---" at)
if(NOT at EQUAL 0)
  message(FATAL_ERROR "profile analyze diverges from bare analyze
"
                      "bare:
${bare_out}
wrapped:
${wrapped_out}")
endif()

file(REMOVE_RECURSE ${WORKDIR})
