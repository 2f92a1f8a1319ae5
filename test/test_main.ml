(* Aggregates every test suite in the repository.  SIGPIPE is ignored
   for the whole run, as [Server.run] ignores it: a session that writes
   to a client the test already closed gets EPIPE, instead of ending
   the run with no report. *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "polytm"
    [
      Test_util.suite;
      Test_sim.suite;
      Test_explore.suite;
      Test_history.suite;
      Test_linearizability.suite;
      Test_stm.suite;
      Test_stm_domains.suite;
      Test_structs.suite;
      Test_baselines.suite;
      Test_boosted.suite;
      Test_composition.suite;
      Test_bench_kit.suite;
      Test_telemetry.suite;
      Test_stacks.suite;
      Test_stm_map.suite;
      Test_expressiveness.suite;
      Test_failure_injection.suite;
      Test_irrevocable.suite;
      Test_norec.suite;
      Test_retry.suite;
      Test_flat_structs.suite;
      Test_sharded.suite;
      Test_wire.suite;
      Test_server.suite;
      Test_persist.suite;
      Test_goldens.suite;
    ]
