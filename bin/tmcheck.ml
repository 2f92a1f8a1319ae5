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

(* The cross-shard 2PC window (DESIGN.md §S20): one transaction writes
   [a] on shard 0 and [b] on shard 1; a spanning snapshot must observe
   the two writes atomically.  [stabilize:false] creates both shards
   with the [`No_stabilize] fault, which skips the bound vector's
   re-check pass, deliberately reintroducing the torn read for the
   self-test. *)
let shard_2pc_program ~algo ~stabilize () =
  let fault = if stabilize then None else Some `No_stabilize in
  let s0 = AM.S.create ~cm:Polytm.Contention.Suicide ~algo ?fault () in
  let s1 = AM.S.create ~cm:Polytm.Contention.Suicide ~algo ?fault () in
  let stms = [ s0; s1 ] in
  let a = AM.S.tvar s0 0 and b = AM.S.tvar s1 0 in
  let writer () =
    AM.S.atomically_multi ~label:"span-write" stms (fun () ->
        AM.S.atomically s0 (fun tx -> AM.S.write tx a 1);
        AM.S.atomically s1 (fun tx -> AM.S.write tx b 1))
  in
  let reader () =
    let av, bv =
      AM.S.atomically_multi ~sem:Polytm.Semantics.Snapshot ~label:"span-read"
        stms (fun () ->
          ( AM.S.atomically s0 (fun tx -> AM.S.read tx a),
            AM.S.atomically s1 (fun tx -> AM.S.read tx b) ))
    in
    assert (av = bv)
  in
  let t1 = Sim.spawn writer and t2 = Sim.spawn reader in
  Sim.join t1;
  Sim.join t2;
  assert (AM.S.atomically s0 (fun tx -> AM.S.read tx a) = 1);
  assert (AM.S.atomically s1 (fun tx -> AM.S.read tx b) = 1)

(* Backups kept only while a snapshot runs (DESIGN.md §S23): one
   writer writes [a] and [b] once while a snapshot reads both with a
   preemption point between the reads.  The snapshot must read a
   consistent pair and never abort with [Snapshot_too_old]: a commit
   that saw no snapshot running and so kept no backup drew its version
   before any later snapshot drew its bound.  [early:true] builds the
   store with the [`Early_backup_check] fault, which reads the count
   before the version is drawn, for the self-test.

   Under TL2 a snapshot read of a location that an in-flight commit
   has locked spins until the write-back, and the explorer prunes a
   spinning schedule together with every schedule that would branch
   off it.  So the TL2 snapshot, once its bound is drawn, waits for
   the writer to finish before it reads: its registration and bound
   still land at every point of the writer's commit, which is where
   the ordering matters.  NOrec's snapshot reads never wait, so there
   the reads interleave with the commit too. *)
let snapshot_backup_program ~algo ~early () =
  let fault = if early then Some `Early_backup_check else None in
  let stm = AM.S.create ~cm:Polytm.Contention.Suicide ~algo ?fault () in
  let a = AM.S.tvar stm 0 and b = AM.S.tvar stm 0 in
  let writer () =
    AM.S.atomically ~label:"write-both" stm (fun tx ->
        AM.S.write tx a 1;
        AM.S.write tx b 1)
  in
  let reader w () =
    let av, bv =
      AM.S.atomically ~sem:Polytm.Semantics.Snapshot ~label:"snap-read" stm
        (fun tx ->
          if algo = `Tl2 then Sim.join w;
          let av = AM.S.read tx a in
          R.yield ();
          (av, AM.S.read tx b))
    in
    assert (av = bv)
  in
  let t1 = Sim.spawn writer in
  let t2 = Sim.spawn (reader t1) in
  Sim.join t1;
  Sim.join t2;
  assert ((AM.S.stats stm).AM.S.snapshot_too_old = 0)

(* The registering wait (DESIGN.md §S19): a loop-like thread runs a
   blocking dequeue through [try_atomically_one ~wake].  When it gets
   a wait back it parks on its own parker, as an event loop blocks in
   [select], and the wake unparks it, as a post writes the loop's wake
   pipe; on waking it cancels the wait and re-runs.  A producer's
   commit races the window between the empty read and the
   registration.  [fault] builds the store with
   [`Skip_wake_validation] for the self-test. *)
let loop_wait_program ?fault () =
  let stm = AM.S.create ~cm:Polytm.Contention.Suicide ?fault () in
  let q = AM.Queue.create stm in
  let loop = R.parker () in
  let got = ref None in
  let rec serve () =
    match
      AM.S.try_atomically_one ~sem:Polytm.Semantics.Classic ~label:""
        ~wake:(fun () -> R.unpark loop)
        stm
        (fun () -> AM.S.atomically stm (fun tx -> AM.Queue.take_tx tx q))
    with
    | outcome -> got := Some outcome
    | exception AM.S.Waiting w ->
        ignore (R.park loop ~deadline:None);
        AM.S.cancel_wait w;
        serve ()
  in
  let c = Sim.spawn serve in
  let p = Sim.spawn (fun () -> AM.Queue.enqueue q 7) in
  Sim.join c;
  Sim.join p;
  assert (!got = Some (AM.S.Committed 7));
  assert (AM.S.waiting stm = 0)

(* A scenario's expected verdict: no schedule violates it, or, for a
   self-test of a deliberately broken store, some schedule does. *)
type verdict = Holds | Violated

let scenarios : (string * string * verdict * (unit -> unit)) list =
  [
    ( "stm-increments",
      "two concurrent transactional increments never lose an update",
      Holds,
      fun () ->
        let stm = AM.S.create ~cm:Polytm.Contention.Suicide () in
        let v = AM.S.tvar stm 0 in
        let incr () =
          AM.S.atomically stm (fun tx -> AM.S.write tx v (AM.S.read tx v + 1))
        in
        let t1 = Sim.spawn incr and t2 = Sim.spawn incr in
        Sim.join t1;
        Sim.join t2;
        assert (AM.S.atomically stm (fun tx -> AM.S.read tx v) = 2) );
    ( "elastic-adjacent-removes",
      "adjacent removes on the elastic list leave exactly the third element",
      Holds,
      fun () ->
        let stm = AM.S.create ~cm:Polytm.Contention.Suicide () in
        let t = AM.List_set.create ~parse_sem:Polytm.Semantics.Elastic stm in
        ignore (AM.List_set.add t 1);
        ignore (AM.List_set.add t 2);
        ignore (AM.List_set.add t 3);
        let t1 = Sim.spawn (fun () -> ignore (AM.List_set.remove t 1)) in
        let t2 = Sim.spawn (fun () -> ignore (AM.List_set.remove t 2)) in
        Sim.join t1;
        Sim.join t2;
        assert (AM.List_set.to_list t = [ 3 ]) );
    ( "lockfree-add-remove",
      "the Harris list stays correct under a concurrent add and remove",
      Holds,
      fun () ->
        let t = AM.Lockfree.create () in
        ignore (AM.Lockfree.add t 1);
        ignore (AM.Lockfree.add t 2);
        let t1 = Sim.spawn (fun () -> ignore (AM.Lockfree.remove t 1)) in
        let t2 = Sim.spawn (fun () -> ignore (AM.Lockfree.add t 3)) in
        Sim.join t1;
        Sim.join t2;
        assert (AM.Lockfree.to_list t = [ 2; 3 ]) );
    ( "retry-lost-wakeup",
      "a blocking dequeue races a producer's commit into the \
       read-empty/park window and never misses the wakeup",
      Holds,
      fun () ->
        let stm = AM.S.create ~cm:Polytm.Contention.Suicide () in
        let q = AM.Queue.create stm in
        let got = ref None in
        let c = Sim.spawn (fun () -> got := Some (AM.Queue.take q)) in
        let p = Sim.spawn (fun () -> AM.Queue.enqueue q 7) in
        Sim.join c;
        Sim.join p;
        assert (!got = Some 7) );
    ( "retry-lost-wakeup-broken",
      "self-test: a waiter that skips the \
       pre-park re-validation misses a commit that lands before its \
       registration and parks forever (deadlock)",
      Violated,
      fun () ->
        let stm =
          AM.S.create ~cm:Polytm.Contention.Suicide
            ~fault:`Skip_wake_validation ()
        in
        let q = AM.Queue.create stm in
        let got = ref None in
        let c = Sim.spawn (fun () -> got := Some (AM.Queue.take q)) in
        let p = Sim.spawn (fun () -> AM.Queue.enqueue q 7) in
        Sim.join c;
        Sim.join p;
        assert (!got = Some 7) );
    ( "retry-loop-wake",
      "a loop-like waiter registers its retry wait instead of parking in \
       the STM, blocks on its own parker and re-runs on the wake; a \
       producer's commit races the register/revalidate window and the \
       wake is never lost",
      Holds,
      fun () -> loop_wait_program () );
    ( "retry-loop-wake-broken",
      "self-test: retry-loop-wake on a store \
       whose registration skips the re-validation misses a commit that \
       lands before it and blocks forever (deadlock)",
      Violated,
      fun () -> loop_wait_program ~fault:`Skip_wake_validation () );
    ( "shard-2pc",
      "a cross-shard transaction writing two shards is never read torn: \
       a concurrent spanning snapshot sees neither write or both, under \
       every schedule of the two-phase commit window",
      Holds,
      fun () -> shard_2pc_program ~algo:`Tl2 ~stabilize:true () );
    ( "shard-2pc-broken",
      "self-test: a spanning snapshot that \
       skips the bound vector's re-check pass can collect one shard's \
       clock before a cross-shard commit and the other's after it, \
       observing the torn intermediate state",
      Violated,
      fun () -> shard_2pc_program ~algo:`Tl2 ~stabilize:false () );
    ( "shard-2pc-norec",
      "shard-2pc over NORec shards: the commit seizes each shard's \
       sequence lock instead of locking locations",
      Holds,
      fun () -> shard_2pc_program ~algo:`Norec ~stabilize:true () );
    ( "shard-2pc-norec-broken",
      "self-test: shard-2pc-broken over \
       NORec shards",
      Violated,
      fun () -> shard_2pc_program ~algo:`Norec ~stabilize:false () );
    ( "snapshot-backup",
      "a write commit that saw no snapshot running keeps no backup, yet \
       a snapshot reading both of its locations across a preemption \
       point reads a consistent pair and never aborts as too old",
      Holds,
      fun () -> snapshot_backup_program ~algo:`Tl2 ~early:false () );
    ( "snapshot-backup-broken",
      "self-test: a writer that reads the \
       snapshot count before its clock fetch-and-add drops the backup a \
       snapshot starting in between needs",
      Violated,
      fun () -> snapshot_backup_program ~algo:`Tl2 ~early:true () );
    ( "snapshot-backup-norec",
      "snapshot-backup over NORec: the write version is fixed by the \
       sequence-lock CAS",
      Holds,
      fun () -> snapshot_backup_program ~algo:`Norec ~early:false () );
    ( "snapshot-backup-norec-broken",
      "self-test: snapshot-backup-broken \
       over NORec, the count read before the sequence-lock CAS",
      Violated,
      fun () -> snapshot_backup_program ~algo:`Norec ~early:true () );
  ]

let scenario_t =
  let parse s =
    match List.find_opt (fun (n, _, _, _) -> n = s) scenarios with
    | Some sc -> Ok sc
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown scenario %S; available: %s" s
                (String.concat ", "
                   (List.map (fun (n, _, _, _) -> n) scenarios))))
  in
  let print ppf (n, _, _, _) = Format.pp_print_string ppf n in
  Arg.(
    value
    & pos 0 (some (conv (parse, print))) None
    & info [] ~docv:"SCENARIO"
        ~doc:"Scenario name (see command doc); every scenario if omitted.")

let explore_cmd =
  (* Whether the scenario's verdict is the one it expects. *)
  let check max_executions (name, doc, expect, program) =
    Format.printf "scenario %s: %s@." name doc;
    let verdict =
      match
        Explore.check ~max_executions ~max_depth:120 ~step_limit:2_000 program
      with
      | outcome ->
          Format.printf "explored %d schedules%s — no violation@."
            outcome.Explore.executions
            (if outcome.Explore.truncated then " (bounded)" else " (complete)");
          Holds
      | exception Explore.Violation { schedule; exn } ->
          Format.printf "VIOLATION (%s) under schedule [%s]@."
            (Printexc.to_string exn)
            (String.concat "; "
               (List.map string_of_int (Array.to_list schedule)));
          Violated
    in
    match (expect, verdict) with
    | Holds, Holds -> true
    | Violated, Violated ->
        Format.printf
          "violation observed, as expected: the checker has teeth@.";
        true
    | Violated, Holds ->
        Format.printf "ERROR: %s: expected a violation but none was found@."
          name;
        false
    | Holds, Violated ->
        Format.printf "ERROR: %s: a schedule violates it@." name;
        false
  in
  let run scenario max_executions =
    let chosen = match scenario with Some sc -> [ sc ] | None -> scenarios in
    match List.filter (fun sc -> not (check max_executions sc)) chosen with
    | [] ->
        Format.printf "explore: %d scenario(s), every verdict as expected@."
          (List.length chosen)
    | failed ->
        Format.printf "explore: unexpected verdict in %s@."
          (String.concat ", " (List.map (fun (n, _, _, _) -> n) failed));
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
            (String.concat ", " (List.map (fun (n, _, _, _) -> n) scenarios))))
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
