# Replays a chaos run from the plan it prints.  Runs stagger_sim with a
# chaos seed and saves the plan it prints on stderr, then runs it again
# with --fault-plan on that file; fails unless both runs print the same
# report, byte for byte.
#
#   cmake -DSIM=path/to/stagger_sim -DWORK=dir -P replay_fault_plan.cmake
set(args --parity --spares=2 --scrub --stations=8 --subobjects=200
    --warmup-hours=0.2 --measure-hours=0.5)
set(plan "${WORK}/replayed_fault_plan.txt")
execute_process(
  COMMAND "${SIM}" ${args} --chaos-seed=3 --chaos-mtbf-hours=2
  OUTPUT_VARIABLE generated ERROR_FILE "${plan}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos run failed (${rc}):\n${generated}")
endif()
if(NOT generated MATCHES "degraded reads +[1-9]")
  message(FATAL_ERROR "the chaos plan reached no degraded read:\n${generated}")
endif()
execute_process(
  COMMAND "${SIM}" ${args} "--fault-plan=${plan}"
  OUTPUT_VARIABLE replayed ERROR_VARIABLE errors RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay failed (${rc}):\n${errors}")
endif()
if(NOT replayed STREQUAL generated)
  message(FATAL_ERROR
    "the replayed run differs:\n${generated}\n--- replayed:\n${replayed}")
endif()
