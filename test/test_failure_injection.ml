(* Failure injection: user code raising at arbitrary points inside
   transactions (including nested blocks, orelse branches and boosted
   operations) must never corrupt shared state, and the STM must stay
   fully usable afterwards. *)

module R = Polytm_runtime.Sim_runtime
module Sim = Polytm_runtime.Sim
module S = Polytm.Stm.Make (Polytm_runtime.Sim_runtime)
module B = Polytm_structs.Boosted_set.Make (Polytm_runtime.Sim_runtime) (S)
module LS = Polytm_structs.Stm_list_set.Make (S)

exception Injected

let test_random_raises_conserve_money () =
  (* Transfers raise Injected at one of three points with probability
     ~1/3; every failed transfer must be fully discarded. *)
  for seed = 1 to 10 do
    let stm = S.create () in
    let n = 6 in
    let accounts = Array.init n (fun _ -> S.tvar stm 100) in
    let raised = ref 0 in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 3 (fun t () ->
                 let rng = Polytm_util.Rng.create (seed * 19 + t) in
                 for _ = 1 to 10 do
                   let src = Polytm_util.Rng.int rng n
                   and dst = Polytm_util.Rng.int rng n
                   and amount = Polytm_util.Rng.int rng 30
                   and crash = Polytm_util.Rng.int rng 9 in
                   try
                     S.atomically stm (fun tx ->
                         if crash = 0 then raise Injected;
                         let s = S.read tx accounts.(src) in
                         S.write tx accounts.(src) (s - amount);
                         if crash = 1 then raise Injected;
                         let d = S.read tx accounts.(dst) in
                         S.write tx accounts.(dst) (d + amount);
                         if crash = 2 then raise Injected)
                   with Injected -> incr raised
                 done)))
    in
    let total =
      S.atomically stm (fun tx ->
          Array.fold_left (fun acc a -> acc + S.read tx a) 0 accounts)
    in
    Alcotest.(check int) (Printf.sprintf "seed %d: conserved" seed) (n * 100)
      total;
    Alcotest.(check bool) "some failures actually injected" true (!raised > 0)
  done

let test_raise_inside_nested_block () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  (try
     S.atomically stm (fun tx ->
         S.write tx v 1;
         S.atomically stm (fun tx' ->
             S.write tx' v 2;
             raise Injected))
   with Injected -> ());
  (* The nested block flattened into the outer transaction: the raise
     aborts the WHOLE transaction, not just the inner part. *)
  Alcotest.(check int) "everything discarded" 0
    (S.atomically stm (fun tx -> S.read tx v))

let test_raise_in_orelse_branches () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  (* A raise in the first branch is not an `abort`: it must NOT fall
     through to the alternative, and must discard everything. *)
  (try
     ignore
       (S.atomically stm (fun tx ->
            S.orelse tx
              (fun tx ->
                S.write tx v 1;
                raise Injected)
              (fun tx ->
                S.write tx v 2;
                "never")))
   with Injected -> ());
  Alcotest.(check int) "no branch committed" 0
    (S.atomically stm (fun tx -> S.read tx v))

let test_raise_after_boosted_ops_compensates () =
  for seed = 1 to 10 do
    let stm = S.create () in
    let t = B.create () in
    S.atomically stm (fun tx -> ignore (B.add tx t 1));
    let rng = Polytm_util.Rng.create seed in
    for _ = 1 to 10 do
      let crash = Polytm_util.Rng.bool rng in
      try
        S.atomically stm (fun tx ->
            ignore (B.add tx t 2);
            ignore (B.remove tx t 1);
            if crash then raise Injected;
            ignore (B.remove tx t 2);
            ignore (B.add tx t 1))
      with Injected -> ()
    done;
    (* Every iteration is a no-op overall (commit path restores the
       original state; crash path compensates): the set must still be
       exactly {1}, with every abstract lock released. *)
    Alcotest.(check (list int)) (Printf.sprintf "seed %d: state intact" seed)
      [ 1 ] (B.to_list t);
    S.atomically stm (fun tx ->
        Alcotest.(check bool) "locks free again" true (B.contains tx t 1))
  done

(* Hook ordering under injected aborts, for every semantics the
   paper composes: compensations ([on_abort]) run newest-first, then
   finalisers ([on_cleanup]) newest-first; the commit path runs only
   the finalisers.  Boosting depends on exactly this order — inverses
   must undo in reverse call order while abstract locks release
   afterwards, whether or not the transaction made it. *)
let test_hook_ordering_on_injected_raise () =
  let semantics =
    [ Polytm.Semantics.Classic; Polytm.Semantics.Elastic;
      Polytm.Semantics.Snapshot ]
  in
  List.iter
    (fun sem ->
      let name = Polytm.Semantics.to_string sem in
      let stm = S.create () in
      let v = S.tvar stm 0 in
      let trace = ref [] in
      let log tag () = trace := tag :: !trace in
      (* Aborting run: undos newest-first, then cleanups newest-first. *)
      (try
         S.atomically stm ~sem (fun tx ->
             S.on_cleanup tx (log "cleanup-1");
             S.on_abort tx (log "undo-1");
             ignore (S.read tx v);
             if Polytm.Semantics.allows_write sem then S.write tx v 1;
             S.on_abort tx (log "undo-2");
             S.on_cleanup tx (log "cleanup-2");
             raise Injected)
       with Injected -> ());
      Alcotest.(check (list string))
        (name ^ ": abort runs undos newest-first, then cleanups")
        [ "undo-2"; "undo-1"; "cleanup-2"; "cleanup-1" ]
        (List.rev !trace);
      Alcotest.(check int)
        (name ^ ": effects discarded")
        0
        (S.atomically stm (fun tx -> S.read tx v));
      (* Committing run: no undos, cleanups newest-first. *)
      trace := [];
      S.atomically stm ~sem (fun tx ->
          S.on_abort tx (log "undo-never");
          S.on_cleanup tx (log "cleanup-1");
          ignore (S.read tx v);
          S.on_cleanup tx (log "cleanup-2"));
      Alcotest.(check (list string))
        (name ^ ": commit runs only cleanups")
        [ "cleanup-2"; "cleanup-1" ]
        (List.rev !trace))
    semantics

let test_stm_usable_after_exhaustion () =
  (* Too_many_attempts must leave no residue: subsequent transactions
     run normally. *)
  let stm = S.create ~max_attempts:3 () in
  let v = S.tvar stm 7 in
  (try S.atomically stm (fun tx -> S.abort tx)
   with S.Too_many_attempts _ -> ());
  Alcotest.(check int) "still working" 7
    (S.atomically stm (fun tx -> S.read tx v));
  S.atomically stm (fun tx -> S.write tx v 8);
  Alcotest.(check int) "writes still commit" 8
    (S.atomically stm (fun tx -> S.read tx v))

let test_injected_raises_on_list_operations () =
  (* Abort a structural insert halfway (after find, during decision):
     the list must stay well-formed and retain its contents. *)
  for seed = 1 to 10 do
    let stm = S.create () in
    let t = LS.create stm in
    for i = 0 to 9 do
      ignore (LS.add t (2 * i))
    done;
    let rng = Polytm_util.Rng.create (seed * 3) in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 2 (fun _ () ->
                 for _ = 1 to 6 do
                   let k = Polytm_util.Rng.int rng 20 in
                   try
                     S.atomically stm (fun tx ->
                         match LS.find tx t k with
                         | ptr, cur ->
                             if Polytm_util.Rng.bool rng then raise Injected;
                             (match cur with
                             | LS.Node { value; _ } when value = k -> ()
                             | cur ->
                                 S.write tx ptr
                                   (LS.Node { value = k; next = S.tvar stm cur })))
                   with Injected -> ()
                 done)))
    in
    let l = LS.to_list t in
    Alcotest.(check (list int)) "sorted unique" (List.sort_uniq compare l) l;
    List.iter
      (fun i ->
        Alcotest.(check bool)
          (Printf.sprintf "original element %d survives" (2 * i))
          true
          (List.mem (2 * i) l))
      (List.init 10 Fun.id)
  done

(* Regression: hook vectors are pooled per thread and reused by any
   transaction a hook itself starts.  Every hook registered by the
   finished attempt must still run exactly once, in order, even when
   an earlier hook runs a transaction on the same STM (which re-arms
   the pooled vectors and registers hooks of its own). *)
let test_hook_running_transaction_keeps_remaining_hooks () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  let trace = ref [] in
  let log tag () = trace := tag :: !trace in
  let log_and_tx tag () =
    trace := tag :: !trace;
    S.atomically stm (fun tx ->
        S.on_cleanup tx (log (tag ^ "-inner"));
        S.write tx v (S.read tx v + 1))
  in
  (* Commit path: a finaliser that runs a transaction must not wipe
     the finalisers registered before it. *)
  S.atomically stm (fun tx ->
      S.on_cleanup tx (log "fin-1");
      S.on_cleanup tx (log_and_tx "fin-2");
      S.on_cleanup tx (log "fin-3");
      ignore (S.read tx v));
  Alcotest.(check (list string))
    "all finalisers run newest-first, nested tx hooks interleaved"
    [ "fin-3"; "fin-2"; "fin-2-inner"; "fin-1" ]
    (List.rev !trace);
  (* Abort path: a compensation that runs a transaction must not wipe
     the remaining compensations or the finalisers. *)
  trace := [];
  (try
     S.atomically stm (fun tx ->
         S.on_cleanup tx (log "cleanup-1");
         S.on_abort tx (log "undo-1");
         S.on_abort tx (log_and_tx "undo-2");
         S.on_abort tx (log "undo-3");
         raise Injected)
   with Injected -> ());
  Alcotest.(check (list string))
    "all compensations and finalisers survive a hook transaction"
    [ "undo-3"; "undo-2"; "undo-2-inner"; "undo-1"; "cleanup-1" ]
    (List.rev !trace);
  Alcotest.(check int) "hook transactions committed" 2
    (S.atomically stm (fun tx -> S.read tx v))

(* The cross-instance counterpart: a hook on one member that runs a
   transaction on another member must not drop the hooks registered
   there.  Each call holds its descriptors until every member's hooks
   have run, so the hook's transaction gets a descriptor of its own;
   when member 0's hooks ran before member 1's were taken, the hook's
   transaction re-armed member 1's pooled stores and cleared them. *)
let test_cross_instance_hook_keeps_other_members_hooks () =
  let a = S.create () and b = S.create () in
  let va = S.tvar a 0 and vb = S.tvar b 0 in
  let trace = ref [] in
  let log tag () = trace := tag :: !trace in
  let write_b tag () =
    trace := tag :: !trace;
    S.atomically b (fun tx -> S.write tx vb (S.read tx vb + 1))
  in
  (* Commit path. *)
  S.atomically_multi [ a; b ] (fun () ->
      S.atomically a (fun tx ->
          S.on_cleanup tx (write_b "fin-a");
          S.write tx va 1);
      S.atomically b (fun tx ->
          S.on_cleanup tx (log "fin-b");
          S.write tx vb 1));
  Alcotest.(check (list string))
    "both members' finalisers run" [ "fin-a"; "fin-b" ] (List.rev !trace);
  Alcotest.(check int) "the hook's transaction committed" 2
    (S.atomically b (fun tx -> S.read tx vb));
  (* Abort path. *)
  trace := [];
  (try
     S.atomically_multi [ a; b ] (fun () ->
         S.atomically a (fun tx -> S.on_abort tx (write_b "undo-a"));
         S.atomically b (fun tx ->
             S.on_abort tx (log "undo-b");
             S.on_cleanup tx (log "fin-b"));
         raise Injected)
   with Injected -> ());
  Alcotest.(check (list string))
    "both members' compensations and finalisers run"
    [ "undo-a"; "undo-b"; "fin-b" ] (List.rev !trace);
  Alcotest.(check int) "the compensation's transaction committed" 3
    (S.atomically b (fun tx -> S.read tx vb))

(* Abort accounting — history record, counters, telemetry — must be
   complete before the lifecycle hooks run: a hook may itself raise,
   and the attempt must not vanish from the books because of it.  The
   pre-fix ordering ran the hooks first, so a raising finaliser left
   stats.aborts and the telemetry [Abort] event behind. *)
let test_abort_accounting_precedes_hooks () =
  let module T = Polytm_telemetry in
  let recorder = T.Recorder.create () in
  let stm = S.create () in
  S.set_sink stm (Some (T.Recorder.sink recorder));
  let v = S.tvar stm 0 in
  let escaped =
    match
      S.atomically stm (fun tx ->
          S.on_cleanup tx (fun () -> raise Exit);
          S.write tx v 1;
          raise Not_found)
    with
    | () -> None
    | exception e -> Some e
  in
  Alcotest.(check bool) "an exception escaped" true (escaped <> None);
  let st = S.stats stm in
  Alcotest.(check int) "abort counted despite raising finaliser" 1 st.S.aborts;
  Alcotest.(check int) "attributed to Explicit" 1 st.S.explicit_aborts;
  let abort_recorded =
    List.exists
      (fun (e : T.event) ->
        match e.T.kind with
        | T.Abort { cause = T.Explicit; _ } -> true
        | _ -> false)
      (T.Recorder.events recorder)
  in
  Alcotest.(check bool) "Abort event emitted before the hook blew up" true
    abort_recorded;
  Alcotest.(check int) "effects discarded" 0
    (S.atomically stm (fun tx -> S.read tx v))

(* The irrevocable path must keep the same books as the optimistic
   one: an explicit abort (forbidden, surfaced as Invalid_operation)
   and a user exception each count one attributed abort, run the
   hooks, release the serialization token, and discard effects. *)
let test_irrevocable_abort_accounting () =
  let stm = S.create () in
  let v = S.tvar stm 5 in
  let cleanups = ref 0 in
  (try
     S.atomically stm ~irrevocable:true (fun tx ->
         S.on_cleanup tx (fun () -> incr cleanups);
         S.write tx v 9;
         S.abort tx)
   with S.Invalid_operation _ -> ());
  let st = S.stats stm in
  Alcotest.(check int) "explicit abort counted" 1 st.S.aborts;
  Alcotest.(check int) "attributed to Explicit" 1 st.S.explicit_aborts;
  Alcotest.(check int) "finaliser ran" 1 !cleanups;
  (try
     S.atomically stm ~irrevocable:true (fun tx ->
         S.write tx v 9;
         raise Injected)
   with Injected -> ());
  Alcotest.(check int) "user exception counted too" 2 (S.stats stm).S.aborts;
  Alcotest.(check int) "effects discarded" 5
    (S.atomically stm (fun tx -> S.read tx v));
  (* A fresh irrevocable transaction still commits: the token was
     released on both abort paths (it would stall here forever
     otherwise). *)
  S.atomically stm ~irrevocable:true (fun tx -> S.write tx v 6);
  Alcotest.(check int) "token released, serial mode usable" 6
    (S.atomically stm (fun tx -> S.read tx v))

(* Property: under CM kills, budget exhaustions and serial fallbacks —
   random contention policy, tiny retry budget, seeded random
   scheduler — every increment commits exactly once (the serialize
   fallback guarantees progress), every lock word ends [Unlocked], and
   the final state matches the sequential oracle. *)
let liveness_stress_property =
  let open Polytm.Contention in
  let case_gen =
    QCheck.Gen.(
      triple (int_range 1 1_000)
        (oneofl [ Greedy; default_adaptive; default ])
        (int_range 1 4))
  in
  QCheck.Test.make ~count:40
    ~name:"liveness stress: exact oracle + all locks released"
    (QCheck.make
       ~print:(fun (seed, cm, ma) ->
         Printf.sprintf "seed=%d cm=%s max_attempts=%d" seed (to_string cm) ma)
       case_gen)
    (fun (seed, cm, max_attempts) ->
      let stm = S.create ~cm ~max_attempts () in
      let n = 4 in
      let accounts = Array.init n (fun _ -> S.tvar stm 0) in
      let threads = 4 and ops = 8 in
      let (), _ =
        Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
            R.parallel
              (List.init threads (fun t () ->
                   let rng = Polytm_util.Rng.create ((seed * 31) + t) in
                   for _ = 1 to ops do
                     let i = Polytm_util.Rng.int rng n in
                     S.atomically stm (fun tx ->
                         S.write tx accounts.(i) (S.read tx accounts.(i) + 1))
                   done)))
      in
      let total =
        S.atomically stm (fun tx ->
            Array.fold_left (fun acc a -> acc + S.read tx a) 0 accounts)
      in
      let locks_free = Array.for_all (fun a -> not (S.tvar_locked a)) accounts in
      total = threads * ops && locks_free)

let suite =
  ( "failure-injection",
    [
      Alcotest.test_case "random raises conserve money" `Quick
        test_random_raises_conserve_money;
      Alcotest.test_case "raise inside nested block" `Quick
        test_raise_inside_nested_block;
      Alcotest.test_case "raise in orelse branch" `Quick
        test_raise_in_orelse_branches;
      Alcotest.test_case "boosted ops compensated on raise" `Quick
        test_raise_after_boosted_ops_compensates;
      Alcotest.test_case "hook ordering on injected raise" `Quick
        test_hook_ordering_on_injected_raise;
      Alcotest.test_case "hook running a transaction keeps remaining hooks"
        `Quick test_hook_running_transaction_keeps_remaining_hooks;
      Alcotest.test_case
        "a hook's transaction on another member keeps that member's hooks"
        `Quick test_cross_instance_hook_keeps_other_members_hooks;
      Alcotest.test_case "usable after exhaustion" `Quick
        test_stm_usable_after_exhaustion;
      Alcotest.test_case "list ops aborted midway" `Quick
        test_injected_raises_on_list_operations;
      Alcotest.test_case "abort accounting precedes hooks" `Quick
        test_abort_accounting_precedes_hooks;
      Alcotest.test_case "irrevocable abort accounting" `Quick
        test_irrevocable_abort_accounting;
      Test_seed.to_alcotest liveness_stress_property;
    ] )
