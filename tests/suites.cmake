wormsim_test(sim_tests
  sim/simulator_test.cpp
  sim/arbitration_test.cpp
  sim/deadlock_detect_test.cpp
  sim/state_key_test.cpp
  sim/workloads_test.cpp
  sim/fuzz_test.cpp
  sim/event_core_test.cpp)
# The event-core parity suite replays a pinned campaign scenario sample.
target_link_libraries(sim_tests PRIVATE wormsim_campaign)

wormsim_test(analysis_tests
  analysis/configuration_test.cpp
  analysis/deadlock_search_test.cpp
  analysis/forced_move_test.cpp
  analysis/message_flow_test.cpp
  analysis/parallel_search_test.cpp
  analysis/reduction_test.cpp
  analysis/search_profile_test.cpp
  analysis/search_status_test.cpp
  analysis/state_table_test.cpp
  analysis/waitfor_test.cpp
  analysis/work_stealing_test.cpp)

wormsim_test(obs_tests
  obs/metrics_test.cpp
  obs/status_test.cpp
  obs/trace_test.cpp
  obs/run_report_test.cpp)

wormsim_test(core_tests
  core/cyclic_family_test.cpp
  core/fig1_test.cpp
  core/fig2_test.cpp
  core/fig3_test.cpp
  core/theorems_test.cpp
  core/corollaries_test.cpp
  core/generalization_test.cpp
  core/theorem5_sweep_test.cpp
  core/theorem5_conditions_test.cpp
  core/duato_test.cpp
  core/analyzer_test.cpp)

wormsim_test(campaign_tests
  campaign/scenario_test.cpp
  campaign/classifier_test.cpp
  campaign/shrink_test.cpp
  campaign/runner_test.cpp
  campaign/truth_store_test.cpp
  campaign/jsonl_schema_test.cpp
  campaign/memo_campaign_test.cpp
  campaign/status_schema_test.cpp
  campaign/fixture_test.cpp
  campaign/reduction_campaign_test.cpp
  campaign/synth_campaign_test.cpp)
target_link_libraries(campaign_tests PRIVATE wormsim_campaign)
target_compile_definitions(campaign_tests PRIVATE
  WORMSIM_TEST_DATA_DIR="${CMAKE_CURRENT_SOURCE_DIR}"
  WORMSIM_REPO_ROOT="${CMAKE_SOURCE_DIR}")

wormsim_test(synth_tests
  synth/existence_test.cpp
  synth/synthesize_test.cpp
  synth/certificate_test.cpp)
target_link_libraries(synth_tests PRIVATE wormsim_synth)

# The shared flag parser (tools/cli.hpp) plus every tool's flag table as its
# --help prints it: checked against the manuals' flag tables and fed hostile
# values, so the suite runs the tool binaries and builds after them.
wormsim_test(cli_tests cli/cli_test.cpp)
target_link_libraries(cli_tests PRIVATE wormsim_cli)
add_dependencies(cli_tests wormsim_campaign_tool wormsim_saturation_tool
  wormsim_synth_tool wormsim_status_tool)
target_compile_definitions(cli_tests PRIVATE
  WORMSIM_REPO_ROOT="${CMAKE_SOURCE_DIR}"
  WORMSIM_CAMPAIGN_TOOL="$<TARGET_FILE:wormsim_campaign_tool>"
  WORMSIM_SATURATION_TOOL="$<TARGET_FILE:wormsim_saturation_tool>"
  WORMSIM_SYNTH_TOOL="$<TARGET_FILE:wormsim_synth_tool>"
  WORMSIM_STATUS_TOOL="$<TARGET_FILE:wormsim_status_tool>")
