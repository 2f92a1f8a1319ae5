(* tmcheck — correctness-checking playground.

   Exposes the history checkers and the bounded model checker on the
   command line:

     tmcheck fig4                 enumerate the Figure 4 schedules
     tmcheck paper-history        analyse the Section 4.2 history H
     tmcheck enumerate ...        enumerate custom 3-transaction programs
     tmcheck explore SCENARIO     exhaustively model-check a scenario
     tmcheck record               run a random STM workload and verify
                                  its recorded history against opacity
     tmcheck stats                run a seeded workload with telemetry
                                  and print the per-site abort table
     tmcheck liveness             hammer a hot workload under the adaptive
                                  contention manager and verify the
                                  livelock-freedom guarantee *)

open Cmdliner
module Hist = Polytm_history.History
module Program = Polytm_history.Program
module T = Polytm_telemetry

(* ---- fig4 -------------------------------------------------------------- *)

let fig4_cmd =
  let run () =
    let a = Program.count_accepted Program.fig4_programs in
    Format.printf "programs: Pt = tx{r(x) r(y) r(z)}, P1 = tx{w(x)}, P2 = tx{w(z)}@.";
    Format.printf "interleavings:          %d@." a.Program.total;
    Format.printf "serializable:           %d@." a.Program.serializable;
    Format.printf "opaque:                 %d@." a.Program.opaque;
    Format.printf "elastic-opaque:         %d  (no elastic transaction declared;@.                            with Pt elastic all 20 are accepted — try:@.                            tmcheck enumerate e:rx,ry,rz wx wz)@." a.Program.elastic_opaque;
    Format.printf "@.precluded by opacity:@.";
    List.iter
      (fun h ->
        if not (Polytm_history.Opacity.accepts h) then
          Format.printf "  %a@." Hist.pp h)
      (Program.interleavings Program.fig4_programs)
  in
  Cmd.v (Cmd.info "fig4" ~doc:"Enumerate the Figure 4 schedules.")
    Term.(const run $ const ())

(* ---- the paper's Section 4.2 history ----------------------------------- *)

let paper_history_cmd =
  let run () =
    let r = Hist.read and w = Hist.write in
    let h = Hist.make [ r 1 0; r 1 1; r 2 0; r 2 1; w 2 0; r 1 2; w 1 1 ] in
    Format.printf "H = %a@." Hist.pp h;
    Format.printf "   (x = head, y = n, z = t; i = 1, j = 2)@.@.";
    Format.printf "serializable:        %b@." (Polytm_history.Serializability.accepts h);
    Format.printf "opaque:              %b@." (Polytm_history.Opacity.accepts h);
    Format.printf "elastic (1 elastic): %b@."
      (Polytm_history.Elastic.accepts ~elastic:[ 1 ] h);
    Format.printf "@.consistent cuts of transaction 1:@.";
    List.iter
      (fun cuts ->
        Format.printf "  positions [%s]@."
          (String.concat "; " (List.map string_of_int cuts)))
      (Polytm_history.Elastic.consistent_cuts h 1)
  in
  Cmd.v
    (Cmd.info "paper-history"
       ~doc:"Analyse the paper's Section 4.2 history H.")
    Term.(const run $ const ())

(* ---- custom enumeration ------------------------------------------------ *)

let parse_accesses s =
  (* "rx,ry,wz" -> [Read 0; Read 1; Write 2] *)
  let loc_of_char c =
    match c with
    | 'x' -> 0
    | 'y' -> 1
    | 'z' -> 2
    | 'w' -> 3
    | c -> Char.code c - Char.code 'a' + 4
  in
  List.map
    (fun tok ->
      if String.length tok <> 2 then failwith "access must be like rx or wz";
      let loc = loc_of_char tok.[1] in
      match tok.[0] with
      | 'r' -> Hist.Read loc
      | 'w' -> Hist.Write loc
      | _ -> failwith "access must start with r or w")
    (String.split_on_char ',' s)

let program_t idx name =
  Arg.(
    value
    & pos idx (some string) None
    & info [] ~docv:name
        ~doc:
          (Printf.sprintf
             "Accesses of transaction %s: comma-separated rl/wl tokens with \
              l in x,y,z,w (e.g. rx,ry,wz).  Prefix with e: for elastic."
             name))

let enumerate_cmd =
  let run p0 p1 p2 =
    let parse id = function
      | None -> None
      | Some s ->
          let elastic = String.length s > 2 && String.sub s 0 2 = "e:" in
          let body = if elastic then String.sub s 2 (String.length s - 2) else s in
          let accesses = parse_accesses body in
          Some
            (if elastic then Program.elastic id accesses
             else Program.classic id accesses)
    in
    let programs = List.filter_map Fun.id [ parse 0 p0; parse 1 p1; parse 2 p2 ] in
    if programs = [] then Format.printf "no programs given@."
    else begin
      let a = Program.count_accepted programs in
      Format.printf "interleavings:  %d@." a.Program.total;
      Format.printf "serializable:   %d@." a.Program.serializable;
      Format.printf "opaque:         %d@." a.Program.opaque;
      Format.printf "elastic-opaque: %d@." a.Program.elastic_opaque
    end
  in
  Cmd.v
    (Cmd.info "enumerate"
       ~doc:"Enumerate all schedules of up to three transactions and count \
             acceptance under each criterion.")
    Term.(const run $ program_t 0 "T0" $ program_t 1 "T1" $ program_t 2 "T2")

(* ---- model checking ----------------------------------------------------- *)

module Sim = Polytm_runtime.Sim
module Explore = Polytm_runtime.Explore
module R = Polytm_runtime.Sim_runtime
module AM = Polytm_structs.Adapters.Make (Polytm_runtime.Sim_runtime)

(* The scenarios and their expected verdicts: one table, which the
   tier-1 suite runs too. *)
module MC = Polytm_bench_kit.Model_checks

let names scs =
  String.concat ", " (List.map (fun (sc : MC.scenario) -> sc.name) scs)

let scenario_t =
  let parse s =
    match MC.find s with
    | Some sc -> Ok sc
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %S; available: %s" s
                (names MC.scenarios)))
  in
  let print ppf (sc : MC.scenario) = Format.pp_print_string ppf sc.name in
  Arg.(
    value
    & pos 0 (some (conv (parse, print))) None
    & info [] ~docv:"SCENARIO"
        ~doc:"Scenario name (see command doc); every scenario if omitted.")

let explore_cmd =
  (* Whether the scenario's verdict is the one it expects. *)
  let check max_executions (sc : MC.scenario) =
    Format.printf "scenario %s: %s@." sc.name sc.doc;
    let result = MC.run ~max_executions sc in
    (match result with
    | MC.Explored outcome ->
        Format.printf "explored %d schedules%s — no violation@."
          outcome.Explore.executions
          (if outcome.Explore.truncated then " (bounded)" else " (complete)")
    | MC.Violation (schedule, exn) ->
        Format.printf "VIOLATION (%s) under schedule [%s]@."
          (Printexc.to_string exn)
          (String.concat "; " (List.map string_of_int (Array.to_list schedule))));
    match (sc.expect, result) with
    | Holds, Explored _ -> true
    | Violated, Violation _ ->
        Format.printf
          "violation observed, as expected: the checker has teeth@.";
        true
    | Violated, Explored _ ->
        Format.printf "ERROR: %s: expected a violation but none was found@."
          sc.name;
        false
    | Holds, Violation _ ->
        Format.printf "ERROR: %s: a schedule violates it@." sc.name;
        false
  in
  let run scenario max_executions =
    let chosen = match scenario with Some sc -> [ sc ] | None -> MC.scenarios in
    match List.filter (fun sc -> not (check max_executions sc)) chosen with
    | [] ->
        Format.printf "explore: %d scenario(s), every verdict as expected@."
          (List.length chosen)
    | failed ->
        Format.printf "explore: unexpected verdict in %s@." (names failed);
        exit 1
  in
  let max_t =
    Arg.(value & opt int 100_000 & info [ "max-executions" ] ~docv:"N")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         (Printf.sprintf
            "Exhaustively model-check a scenario, or every scenario, and \
             fail on any verdict other than the scenario's expected one \
             (a scenario named *-broken is a self-test that must be \
             caught).  Scenarios: %s."
            (names MC.scenarios)))
    Term.(const run $ scenario_t $ max_t)

(* ---- record & verify ---------------------------------------------------- *)

let record_cmd =
  let run seed threads txs =
    let stm = AM.S.create () in
    let vars = Array.init 4 (fun _ -> AM.S.tvar stm 0) in
    AM.S.record stm true;
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init threads (fun t () ->
                 let rng = Polytm_util.Rng.create (seed + t) in
                 for _ = 1 to txs do
                   AM.S.atomically stm (fun tx ->
                       let a = vars.(Polytm_util.Rng.int rng 4) in
                       let v = AM.S.read tx a in
                       if Polytm_util.Rng.bool rng then
                         AM.S.write tx
                           vars.(Polytm_util.Rng.int rng 4)
                           (v + 1))
                 done)))
    in
    AM.S.record stm false;
    let events = AM.S.recorded_events stm in
    let aborted = AM.S.recorded_aborted stm in
    let h =
      Hist.make ~aborted
        (List.map
           (fun e ->
             {
               Hist.tx = e.AM.S.rec_tx;
               action =
                 (if e.AM.S.rec_write then Hist.Write e.AM.S.rec_loc
                  else Hist.Read e.AM.S.rec_loc);
             })
           events)
    in
    Format.printf "recorded %d events, %d transactions (%d aborted)@."
      (List.length events)
      (List.length (Hist.txs h))
      (List.length aborted);
    Format.printf "history: %a@." Hist.pp h;
    Format.printf "opacity checker accepts: %b@." (Polytm_history.Opacity.accepts h)
  in
  let seed_t = Arg.(value & opt int 7 & info [ "seed" ]) in
  let threads_t = Arg.(value & opt int 3 & info [ "threads" ]) in
  let txs_t = Arg.(value & opt int 3 & info [ "txs" ]) in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run a random STM workload under the simulator, record its \
             history, and verify it against the opacity checker.")
    Term.(const run $ seed_t $ threads_t $ txs_t)

(* ---- telemetry statistics ----------------------------------------------- *)

let stats_cmd =
  let run seed threads ops json trace =
    let stm = AM.S.create () in
    let agg = T.Agg.create () in
    let recorder = T.Recorder.create () in
    AM.S.set_sink stm
      (Some (T.fan_out [ T.Agg.sink agg; T.Recorder.sink recorder ]));
    let set =
      AM.List_set.create ~parse_sem:Polytm.Semantics.Elastic
        ~size_sem:Polytm.Semantics.Snapshot stm
    in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init threads (fun t () ->
                 let rng = Polytm_util.Rng.create (seed + t) in
                 for _ = 1 to ops do
                   let key () = Polytm_util.Rng.int rng 32 in
                   match Polytm_util.Rng.int rng 10 with
                   | 0 | 1 -> ignore (AM.List_set.add set (key ()))
                   | 2 | 3 -> ignore (AM.List_set.remove set (key ()))
                   | 4 -> ignore (AM.List_set.size set)
                   | _ -> ignore (AM.List_set.contains set (key ()))
                 done)))
    in
    let snap = T.Agg.snapshot agg in
    Format.printf "%a" T.Export.pp_table snap;
    let write file doc =
      let oc = open_out file in
      output_string oc (T.Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Format.printf "written %s@." file
    in
    Option.iter (fun f -> write f (T.Export.snapshot_json snap)) json;
    Option.iter
      (fun f ->
        write f
          (T.Export.chrome_trace ~process_name:"tmcheck stats"
             (T.Recorder.events recorder)))
      trace
  in
  let seed_t = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED") in
  let threads_t = Arg.(value & opt int 8 & info [ "threads" ] ~docv:"T") in
  let ops_t =
    Arg.(value & opt int 200
         & info [ "ops" ] ~docv:"N" ~doc:"Operations per virtual thread.")
  in
  let json_t =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write the aggregation snapshot as JSON.")
  in
  let trace_t =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Also write the full event trace as Chrome trace-event \
                   JSON (load in Perfetto or chrome://tracing).")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a seeded random list-set workload (elastic parses, \
             snapshot sizes) under the simulator with a telemetry sink \
             installed and print the per-call-site statistics: attempts, \
             commits, aborts by cause, retries, read-set sizes, lock-hold \
             ticks.  Deterministic per seed.")
    Term.(const run $ seed_t $ threads_t $ ops_t $ json_t $ trace_t)

(* ---- structure-level conformance ---------------------------------------- *)

module Conf = Polytm_bench_kit.Conformance

let conformance_cmd =
  let run runtime seed iters impls threads ops cm algo expect_fail =
    let impls = match impls with [] -> Conf.default_impls | l -> l in
    (match List.filter (fun i -> not (List.mem i Conf.all_impls)) impls with
    | [] -> ()
    | unknown ->
        Format.eprintf "tmcheck: unknown implementation%s %s; known: %s@."
          (if List.length unknown > 1 then "s" else "")
          (String.concat ", " unknown)
          (String.concat ", " Conf.all_impls);
        exit 2);
    let runtime_name = match runtime with `Sim -> "sim" | `Domains -> "domains" in
    let algos =
      match algo with
      | `Tl2 -> [ `Tl2 ]
      | `Norec -> [ `Norec ]
      | `Both -> [ `Tl2; `Norec ]
    in
    let results =
      List.concat_map
        (fun algo ->
          List.map
            (fun name ->
              let outcome =
                match runtime with
                | `Sim ->
                    Conf.run_sim ~threads ~ops ?cm ~algo ~name ~seed ~iters ()
                | `Domains ->
                    Conf.run_domains ~threads ~ops ?cm ~algo ~name ~seed
                      ~iters ()
              in
              (name, algo, outcome))
            impls)
        algos
    in
    let failed = ref false in
    List.iter
      (fun (name, algo, outcome) ->
        match outcome with
        | Conf.Pass n ->
            Format.printf "%-22s %-6s PASS  (%d rounds, runtime %s, seed %d)@."
              name (Conf.algo_name algo) n runtime_name seed
        | Conf.Fail msg ->
            failed := true;
            Format.printf "%-22s %-6s FAIL@.%s@." name (Conf.algo_name algo)
              msg)
      results;
    if expect_fail then
      if !failed then begin
        Format.printf
          "@.rejection observed, as expected: the checker has teeth@.";
        exit 0
      end
      else begin
        Format.printf "@.ERROR: expected a rejection but every run passed@.";
        exit 1
      end
    else if !failed then exit 1
  in
  let runtime_t =
    let parse = function
      | "sim" -> Ok `Sim
      | "domains" -> Ok `Domains
      | s -> Error (`Msg (Printf.sprintf "unknown runtime %S (sim|domains)" s))
    in
    let print ppf r =
      Format.pp_print_string ppf (match r with `Sim -> "sim" | `Domains -> "domains")
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Sim
      & info [ "runtime" ] ~docv:"RT"
          ~doc:
            "Execution substrate: $(b,sim) (deterministic, seeded random \
             schedules) or $(b,domains) (real preemption).")
  in
  let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let iters_t =
    Arg.(
      value & opt int 50
      & info [ "iters" ] ~docv:"N" ~doc:"Randomized rounds per implementation.")
  in
  let impl_t =
    Arg.(
      value
      & opt (list string) []
      & info [ "impl" ] ~docv:"NAMES"
          ~doc:
            (Printf.sprintf
               "Comma-separated implementation filter.  Known: %s.  The \
                $(b,buggy-*) self-tests are excluded by default and expected \
                to be rejected."
               (String.concat ", " Conf.all_impls)))
  in
  let threads_t = Arg.(value & opt int 3 & info [ "threads" ] ~docv:"T") in
  let ops_t =
    Arg.(
      value & opt int 10
      & info [ "ops" ] ~docv:"N" ~doc:"Operations per worker per round.")
  in
  let cm_t =
    let parse = function
      | "default" -> Ok None
      | "suicide" -> Ok (Some Polytm.Contention.Suicide)
      | "greedy" -> Ok (Some Polytm.Contention.Greedy)
      | "adaptive" -> Ok (Some Polytm.Contention.default_adaptive)
      | s ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown contention manager %S \
                   (default|suicide|greedy|adaptive)"
                  s))
    in
    let print ppf = function
      | None -> Format.pp_print_string ppf "default"
      | Some cm -> Format.pp_print_string ppf (Polytm.Contention.to_string cm)
    in
    Arg.(
      value
      & opt (conv (parse, print)) None
      & info [ "cm" ] ~docv:"CM"
          ~doc:
            "Contention manager for the STM-backed implementations: \
             $(b,default), $(b,suicide), $(b,greedy) (kill-based) or \
             $(b,adaptive) (escalates to the serial fallback under \
             pressure).  Linearizability must hold under all of them.")
  in
  let algo_t =
    let parse = function
      | "tl2" -> Ok `Tl2
      | "norec" -> Ok `Norec
      | "both" -> Ok `Both
      | s ->
          Error (`Msg (Printf.sprintf "unknown algo %S (tl2|norec|both)" s))
    in
    let print ppf a =
      Format.pp_print_string ppf
        (match a with `Tl2 -> "tl2" | `Norec -> "norec" | `Both -> "both")
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Both
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            "Ownership/validation policy for the STM-backed \
             implementations: $(b,tl2), $(b,norec), or $(b,both) (default) \
             to run the whole matrix under each in turn.  \
             $(b,buggy-norec-validation) always builds its own broken NOrec \
             backend regardless.")
  in
  let expect_fail_t =
    Arg.(
      value & flag
      & info [ "expect-fail" ]
          ~doc:
            "Invert the exit status: succeed only if at least one \
             implementation is rejected (self-test of the checker).")
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:
         "Run every structure implementation under randomized concurrent \
          workloads on the chosen runtime — the STM-backed ones under the \
          selected algorithm(s) — and check the recorded operation \
          histories for linearizability (interval consistency for snapshot \
          sizes).  Failures print a minimized counterexample history and \
          reproduce by seed.")
    Term.(
      const run $ runtime_t $ seed_t $ iters_t $ impl_t $ threads_t $ ops_t
      $ cm_t $ algo_t $ expect_fail_t)

(* ---- liveness smoke ------------------------------------------------------ *)

let liveness_cmd =
  let run seed threads ops accounts algo =
    let module S = AM.S in
    let stm = S.create ~cm:Polytm.Contention.default_adaptive ~algo () in
    let accs = Array.init accounts (fun _ -> S.tvar stm 100) in
    let exhausted = Polytm_runtime.Sim_runtime.counter () in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init threads (fun t () ->
                 let rng = Polytm_util.Rng.create ((seed * 131) + t + 1) in
                 for _ = 1 to ops do
                   try
                     if Polytm_util.Rng.int rng 100 < 90 then
                       (* Update: move one unit between two hot
                          accounts — every pair of transfers
                          conflicts on this tiny account array. *)
                       let src = Polytm_util.Rng.int rng accounts in
                       let dst = Polytm_util.Rng.int rng accounts in
                       S.atomically stm (fun tx ->
                           S.write tx accs.(src) (S.read tx accs.(src) - 1);
                           S.write tx accs.(dst) (S.read tx accs.(dst) + 1))
                     else
                       ignore
                         (S.atomically stm (fun tx ->
                              Array.fold_left
                                (fun acc v -> acc + S.read tx v)
                                0 accs))
                   with S.Too_many_attempts _ ->
                     Polytm_runtime.Sim_runtime.add_counter exhausted 1
                 done)))
    in
    let st = S.stats stm in
    let total =
      Sim.run (fun () ->
          S.atomically stm (fun tx ->
              Array.fold_left (fun acc v -> acc + S.read tx v) 0 accs))
      |> fst
    in
    let locked =
      Array.exists (fun v -> fst (Sim.run (fun () -> S.tvar_locked v))) accs
    in
    let escapes = Polytm_runtime.Sim_runtime.read_counter exhausted in
    Format.printf
      "threads=%d ops/thread=%d accounts=%d seed=%d algo=%s@.starts=%d \
       commits=%d aborts=%d killed=%d@.serial_commits=%d \
       budget_exhaustions=%d exhaustion_escapes=%d@.total=%d (expected %d) \
       locks_free=%b@."
      threads ops accounts seed (Conf.algo_name algo) st.S.starts st.S.commits
      st.S.aborts st.S.killed st.S.serial_commits st.S.budget_exhaustions
      escapes total (100 * accounts) (not locked);
    let fail fmt = Format.kasprintf (fun m -> Format.printf "FAIL: %s@." m;
                                      exit 1) fmt in
    if escapes > 0 then
      fail "%d Too_many_attempts escaped under the default adaptive config"
        escapes;
    if total <> 100 * accounts then
      fail "money not conserved: %d <> %d" total (100 * accounts);
    if locked then fail "a lock word is still held after quiescence";
    if st.S.serial_commits = 0 then
      fail "the serial fallback never triggered: the workload is not hot \
            enough to smoke-test liveness";
    (* Blocking-waiter phase: a parked [retry] waiter whose budget runs
       out must surface as [Exhausted] data and vanish from the wait
       table — a ghost entry would receive (and swallow) future
       wakeups.  The pokes write the watched variable without ever
       satisfying the waiter, so every wake burns one attempt. *)
    let woutcome, wleft =
      fst
        (Sim.run (fun () ->
             let v = S.tvar stm 0 in
             let r = ref None in
             let waiter =
               Sim.spawn (fun () ->
                   r :=
                     Some
                       (S.try_atomically ~budget:2 stm (fun tx ->
                            ignore (S.read tx v);
                            S.retry tx)))
             in
             let poker =
               Sim.spawn (fun () ->
                   for i = 1 to 2 do
                     Sim.tick 100;
                     S.atomically stm (fun tx -> S.write tx v i)
                   done)
             in
             Sim.join waiter;
             Sim.join poker;
             (Option.get !r, S.waiting stm)))
    in
    (match woutcome with
    | S.Exhausted { reason = S.Retry; _ } -> ()
    | S.Committed _ | S.Exhausted _ | S.Deadline_exceeded _ ->
        fail "parked waiter did not surface budget exhaustion as Exhausted");
    if wleft <> 0 then fail "%d waiter(s) survived budget exhaustion" wleft;
    Format.printf "waiters_left=%d after a parked waiter exhausted its budget@."
      wleft;
    Format.printf "PASS: livelock-free under adaptive contention management@."
  in
  let seed_t = Arg.(value & opt int 23 & info [ "seed" ] ~docv:"SEED") in
  let threads_t =
    Arg.(value & opt int 64
         & info [ "threads" ] ~docv:"T" ~doc:"Virtual threads.")
  in
  let ops_t =
    Arg.(value & opt int 20
         & info [ "ops" ] ~docv:"N" ~doc:"Transactions per virtual thread.")
  in
  let accounts_t =
    Arg.(value & opt int 8
         & info [ "accounts" ] ~docv:"K"
             ~doc:"Hot accounts shared by every transfer.")
  in
  let algo_t =
    let parse = function
      | "tl2" -> Ok `Tl2
      | "norec" -> Ok `Norec
      | s -> Error (`Msg (Printf.sprintf "unknown algo %S (tl2|norec)" s))
    in
    let print ppf a = Format.pp_print_string ppf (Conf.algo_name a) in
    Arg.(
      value
      & opt (conv (parse, print)) `Tl2
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            "Ownership/validation policy under test: $(b,tl2) or \
             $(b,norec).  The liveness guarantee must hold under both.")
  in
  Cmd.v
    (Cmd.info "liveness"
       ~doc:
         "Hammer a tiny account array with 90%-update transfers from 64 \
          virtual threads under the adaptive contention manager and verify \
          the liveness guarantee: no transaction exhausts its attempts \
          ($(b,Too_many_attempts) never escapes), money is conserved, every \
          lock word ends unlocked, and the serial fallback actually fired \
          ($(b,serial_commits) > 0).  Deterministic per seed.")
    Term.(const run $ seed_t $ threads_t $ ops_t $ accounts_t $ algo_t)

(* ---- conflict-graph visualisation --------------------------------------- *)

let dot_cmd =
  let run seed threads txs =
    let stm = AM.S.create () in
    let vars = Array.init 4 (fun _ -> AM.S.tvar stm 0) in
    AM.S.record stm true;
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init threads (fun t () ->
                 let rng = Polytm_util.Rng.create (seed + t) in
                 for _ = 1 to txs do
                   AM.S.atomically stm (fun tx ->
                       let a = vars.(Polytm_util.Rng.int rng 4) in
                       let v = AM.S.read tx a in
                       if Polytm_util.Rng.bool rng then
                         AM.S.write tx
                           vars.(Polytm_util.Rng.int rng 4)
                           (v + 1))
                 done)))
    in
    AM.S.record stm false;
    let h =
      Hist.make
        ~aborted:(AM.S.recorded_aborted stm)
        (List.map
           (fun e ->
             {
               Hist.tx = e.AM.S.rec_tx;
               action =
                 (if e.AM.S.rec_write then Hist.Write e.AM.S.rec_loc
                  else Hist.Read e.AM.S.rec_loc);
             })
           (AM.S.recorded_events stm))
    in
    let g, ids = Polytm_history.Opacity.strict_serialization_graph h in
    print_string
      (Polytm_history.Digraph.to_dot
         ~names:(fun i -> Printf.sprintf "tx%d" ids.(i))
         g)
  in
  let seed_t = Arg.(value & opt int 7 & info [ "seed" ]) in
  let threads_t = Arg.(value & opt int 3 & info [ "threads" ]) in
  let txs_t = Arg.(value & opt int 3 & info [ "txs" ]) in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Record a random STM workload and print its strict              serialisation graph (conflict + real-time edges) as              Graphviz DOT.")
    Term.(const run $ seed_t $ threads_t $ txs_t)

let () =
  let doc = "History checkers and bounded model checking for PolyTM." in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "tmcheck" ~version:"1.0.0" ~doc)
          [
            fig4_cmd;
            paper_history_cmd;
            enumerate_cmd;
            explore_cmd;
            record_cmd;
            stats_cmd;
            conformance_cmd;
            liveness_cmd;
            dot_cmd;
          ]))
