(* Blocking transactions: [retry] parks until a commit touches the wait
   set, [orElse] composes waiting, deadlines bound it.

   - Deterministic wakeup in the simulator: the consumer parks (no
     polling: exactly one park) and the producer's commit wakes it.
   - The exhaustive model checks of the lost-wakeup race (a writer
     commits between the empty read and the park, or the registration
     of a loop's wait) are [tmcheck explore]'s [retry-*] scenarios, run
     by the explore suite.
   - orElse: a retrying left branch falls through; when both branches
     retry the waiter wakes on the *union* of both read sets; an
     [abort]ed (not retried) left branch leaks nothing into the wait
     set.
   - Deadline-bounded retry surfaces as [Deadline_exceeded] with no
     lock held and no waiter left registered.
   - QCheck producer/consumer conservation through blocking takes, on
     randomised simulator schedules and on real domains, TL2 and NOrec
     alike. *)

module Sim = Polytm_runtime.Sim
module Explore = Polytm_runtime.Explore
module S = Polytm.Stm.Make (Polytm_runtime.Sim_runtime)
module Q = Polytm_structs.Stm_queue.Make (S)
module D = Polytm_runtime.Domain_runtime
module Sd = Polytm.Stm.Make (Polytm_runtime.Domain_runtime)
module Qd = Polytm_structs.Stm_queue.Make (Sd)
open Polytm

(* {1 Simulator: deterministic park/wake} *)

(* One consumer blocks on an empty queue; a producer fills it 50 ticks
   later.  The consumer must park exactly once (no polling loop) and be
   woken by the commit, and the whole execution must be reproducible
   tick-for-tick. *)
let wakeup_run algo =
  Sim.run (fun () ->
      let stm = S.create ~algo () in
      let q = Q.create stm in
      let got = ref None in
      let c = Sim.spawn (fun () -> got := Some (Q.take q)) in
      let p =
        Sim.spawn (fun () ->
            Sim.tick 50;
            Q.enqueue q "job")
      in
      Sim.join c;
      Sim.join p;
      (!got, S.stats stm, S.waiting stm))

let test_sim_wakeup_deterministic () =
  List.iter
    (fun algo ->
      let (got, st, waiting), info = wakeup_run algo in
      Alcotest.(check (option string)) "consumer got the item" (Some "job") got;
      Alcotest.(check int) "parked once" 1 st.S.parks;
      Alcotest.(check int) "woken once" 1 st.S.wakes;
      Alcotest.(check int) "no timeouts" 0 st.S.wake_timeouts;
      Alcotest.(check bool) "retry aborts counted" true (st.S.retry_waits >= 1);
      Alcotest.(check int) "no waiter left behind" 0 waiting;
      let _, info' = wakeup_run algo in
      Alcotest.(check int) "virtual time reproducible" info.Sim.makespan
        info'.Sim.makespan)
    [ `Tl2; `Norec ]

let test_deadline_bounded_retry () =
  let (outcome, locked, waiting, st), _info =
    Sim.run (fun () ->
        let stm = S.create () in
        let v = S.tvar stm 0 in
        let r = ref None in
        let t =
          Sim.spawn (fun () ->
              r :=
                Some
                  (S.try_atomically ~deadline:500 stm (fun tx ->
                       ignore (S.read tx v);
                       S.retry tx)))
        in
        Sim.join t;
        (Option.get !r, S.tvar_locked v, S.waiting stm, S.stats stm))
  in
  (match outcome with
  | S.Deadline_exceeded { reason = S.Retry; _ } -> ()
  | S.Deadline_exceeded _ | S.Committed _ | S.Exhausted _ ->
      Alcotest.fail "expected Deadline_exceeded with reason Retry");
  Alcotest.(check bool) "no lock held" false locked;
  Alcotest.(check int) "no waiter leaked" 0 waiting;
  Alcotest.(check int) "park ended by timer" 1 st.S.wake_timeouts;
  Alcotest.(check int) "never woken" 0 st.S.wakes

let test_retry_misuse_rejected () =
  let check_invalid name f =
    match Sim.run f with
    | exception S.Invalid_operation _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_operation")
  in
  check_invalid "empty read set" (fun () ->
      let stm = S.create () in
      S.atomically stm (fun tx -> S.retry tx));
  check_invalid "snapshot" (fun () ->
      let stm = S.create () in
      let v = S.tvar stm 0 in
      S.atomically ~sem:Semantics.Snapshot stm (fun tx ->
          ignore (S.read tx v);
          S.retry tx))

(* {1 orElse composition} *)

let test_orelse_retry_falls_through () =
  let (res, st), _ =
    Sim.run (fun () ->
        let stm = S.create () in
        let v = S.tvar stm 0 in
        let res =
          S.atomically stm (fun tx ->
              S.orelse tx
                (fun tx ->
                  ignore (S.read tx v);
                  S.retry tx)
                (fun _tx -> "right"))
        in
        (res, S.stats stm))
  in
  Alcotest.(check string) "right branch ran" "right" res;
  Alcotest.(check int) "no park: alternative was enabled" 0 st.S.parks

(* Both branches retry; the producer then enables only the LEFT branch
   — the one that was rolled back before parking.  A waiter that waits
   only on the live (right) branch's reads sleeps forever here; waiting
   on the union wakes it and the left branch succeeds. *)
let test_orelse_waits_on_union () =
  let (res, st), _ =
    Sim.run (fun () ->
        let stm = S.create () in
        let q1 = Q.create stm and q2 = Q.create stm in
        let r = ref None in
        let c =
          Sim.spawn (fun () ->
              r :=
                Some
                  (S.atomically stm (fun tx ->
                       S.orelse tx
                         (fun tx -> Q.take_tx tx q1)
                         (fun tx -> Q.take_tx tx q2))))
        in
        let p =
          Sim.spawn (fun () ->
              Sim.tick 100;
              Q.enqueue q1 "left")
        in
        Sim.join c;
        Sim.join p;
        (Option.get !r, S.stats stm))
  in
  Alcotest.(check string) "woken through the rolled-back branch" "left" res;
  Alcotest.(check int) "single park" 1 st.S.parks;
  Alcotest.(check int) "single wake" 1 st.S.wakes

(* The left branch aborts explicitly (fall-through, not retry): its
   rolled-back read of [aux] must NOT end up in the wait set, so a
   commit that only writes [aux] must not wake the parked waiter.  The
   later enqueue is what wakes it — exactly one park, one wake. *)
let test_orelse_abort_leaks_nothing () =
  let (res, st), _ =
    Sim.run (fun () ->
        let stm = S.create () in
        let aux = S.tvar stm 0 in
        let q = Q.create stm in
        let r = ref None in
        let c =
          Sim.spawn (fun () ->
              r :=
                Some
                  (S.atomically stm (fun tx ->
                       S.orelse tx
                         (fun tx ->
                           ignore (S.read tx aux);
                           S.abort tx)
                         (fun tx -> Q.take_tx tx q))))
        in
        let p =
          Sim.spawn (fun () ->
              Sim.tick 100;
              (* Touches only the aborted branch's read: no wakeup. *)
              S.atomically stm (fun tx -> S.write tx aux 1);
              Sim.tick 100;
              Q.enqueue q "item")
        in
        Sim.join c;
        Sim.join p;
        (Option.get !r, S.stats stm))
  in
  Alcotest.(check string) "woken by the enqueue" "item" res;
  Alcotest.(check int) "aux write did not wake the waiter" 1 st.S.parks;
  Alcotest.(check int) "one wake" 1 st.S.wakes

(* A conflict abort (not retry) of the left branch restarts the WHOLE
   transaction: under exploration there must be no schedule in which the
   right branch runs merely because the left lost a race.  The left
   branch always finds [flag] set in a serial world, so any right-branch
   execution would be a broken fall-through. *)
let test_orelse_conflict_abort_restarts_whole_tx () =
  let program () =
    let stm = S.create () in
    let flag = S.tvar stm 1 in
    let right_runs = ref 0 in
    let t1 =
      Sim.spawn (fun () ->
          let r =
            S.atomically stm (fun tx ->
                S.orelse tx
                  (fun tx -> if S.read tx flag >= 1 then "left" else S.retry tx)
                  (fun _tx ->
                    incr right_runs;
                    "right"))
          in
          assert (r = "left"))
    in
    let t2 =
      Sim.spawn (fun () ->
          S.atomically stm (fun tx -> S.write tx flag (S.read tx flag + 1)))
    in
    Sim.join t1;
    Sim.join t2;
    assert (!right_runs = 0)
  in
  let outcome =
    Explore.check ~max_executions:20_000 ~max_depth:80 ~step_limit:2_000
      program
  in
  Alcotest.(check bool) "schedules explored" true
    (outcome.Explore.executions > 10)

(* {1 Conservation through blocking consumers} *)

(* [producers] threads each enqueue [per] tagged items, then one poison
   pill per consumer; [consumers] threads block on [take] until they see
   a pill.  Every produced item must be consumed exactly once. *)
let conserved items =
  let sorted = List.sort compare items in
  let rec distinct = function
    | a :: (b :: _ as rest) -> a <> b && distinct rest
    | _ -> true
  in
  distinct sorted

let pill = -1

let sim_prodcons algo seed ~producers ~consumers ~per =
  let (consumed, st, waiting), _info =
    Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
        let stm = S.create ~algo () in
        let q = Q.create stm in
        let eaten = Array.make consumers [] in
        let cs =
          List.init consumers (fun i ->
              Sim.spawn (fun () ->
                  let rec go () =
                    let v = Q.take q in
                    if v <> pill then begin
                      eaten.(i) <- v :: eaten.(i);
                      go ()
                    end
                  in
                  go ()))
        in
        let ps =
          List.init producers (fun p ->
              Sim.spawn (fun () ->
                  for k = 0 to per - 1 do
                    Q.enqueue q ((p * per) + k)
                  done))
        in
        List.iter Sim.join ps;
        (* Pills go in only after all real items: a consumer stopping
           early could strand an item otherwise. *)
        let closer =
          Sim.spawn (fun () ->
              for _ = 1 to consumers do
                Q.enqueue q pill
              done)
        in
        Sim.join closer;
        List.iter Sim.join cs;
        (Array.to_list eaten |> List.concat, S.stats stm, S.waiting stm))
  in
  Alcotest.(check int)
    (Printf.sprintf "every item consumed once (seed %d)" seed)
    (producers * per) (List.length consumed);
  Alcotest.(check bool) "no duplicates" true (conserved consumed);
  Alcotest.(check int) "no waiter left" 0 waiting;
  Alcotest.(check int) "every park accounted" st.S.parks
    (st.S.wakes + st.S.wake_timeouts)

let qcheck_sim_conservation =
  QCheck.Test.make ~count:60 ~name:"sim prodcons conservation (both algos)"
    (QCheck.make
       ~print:(fun (s, p, c, n) -> Printf.sprintf "seed=%d p=%d c=%d per=%d" s p c n)
       QCheck.Gen.(
         quad (int_bound 1_000_000) (int_range 1 3) (int_range 1 3)
           (int_range 1 8)))
    (fun (seed, producers, consumers, per) ->
      sim_prodcons `Tl2 seed ~producers ~consumers ~per;
      sim_prodcons `Norec (seed + 1) ~producers ~consumers ~per;
      true)

let domains_prodcons algo ~producers ~consumers ~per =
  let stm = Sd.create ~algo () in
  let q = Qd.create stm in
  let eaten = Array.make consumers [] in
  let live_producers = Atomic.make producers in
  D.parallel
    (List.init consumers (fun i () ->
         let rec go () =
           let v = Qd.take q in
           if v <> pill then begin
             eaten.(i) <- v :: eaten.(i);
             go ()
           end
         in
         go ())
    @ List.init producers (fun p () ->
          for k = 0 to per - 1 do
            Qd.enqueue q ((p * per) + k)
          done;
          (* Only the last producer standing seals the queue — earlier
             pills would stop consumers while items are still coming. *)
          if Atomic.fetch_and_add live_producers (-1) = 1 then
            for _ = 1 to consumers do
              Qd.enqueue q pill
            done));
  let consumed = Array.to_list eaten |> List.concat in
  let real = List.filter (fun v -> v <> pill) consumed in
  Alcotest.(check int) "every item consumed once" (producers * per)
    (List.length real);
  Alcotest.(check bool) "no duplicates" true (conserved real);
  Alcotest.(check int) "no waiter left" 0 (Sd.waiting stm)

let test_domains_conservation () =
  List.iter
    (fun algo -> domains_prodcons algo ~producers:2 ~consumers:3 ~per:100)
    [ `Tl2; `Norec ]

(* Real-time sanity on domains: a consumer blocked on an empty queue
   parks (is visible in the wait table) rather than spinning, and a
   producer's commit wakes it. *)
let test_domains_parked_waiter_visible () =
  let stm = Sd.create () in
  let q = Qd.create stm in
  let got = Atomic.make None in
  let d = Domain.spawn (fun () -> Atomic.set got (Some (Qd.take q))) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Sd.waiting stm = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Alcotest.(check int) "consumer parked, not spinning" 1 (Sd.waiting stm);
  Qd.enqueue q "wake";
  Domain.join d;
  Alcotest.(check (option string)) "woken by the commit" (Some "wake")
    (Atomic.get got);
  Alcotest.(check int) "wait table empty again" 0 (Sd.waiting stm);
  let st = Sd.stats stm in
  Alcotest.(check bool) "park and wake recorded" true
    (st.Sd.parks >= 1 && st.Sd.wakes >= 1)

let suite =
  ( "retry",
    [
      Alcotest.test_case "sim wakeup deterministic" `Quick
        test_sim_wakeup_deterministic;
      Alcotest.test_case "deadline-bounded retry" `Quick
        test_deadline_bounded_retry;
      Alcotest.test_case "misuse rejected" `Quick test_retry_misuse_rejected;
      Alcotest.test_case "orElse falls through" `Quick
        test_orelse_retry_falls_through;
      Alcotest.test_case "orElse waits on union" `Quick
        test_orelse_waits_on_union;
      Alcotest.test_case "orElse abort leaks nothing" `Quick
        test_orelse_abort_leaks_nothing;
      Alcotest.test_case "orElse conflict abort restarts (explore)" `Slow
        test_orelse_conflict_abort_restarts_whole_tx;
      QCheck_alcotest.to_alcotest qcheck_sim_conservation;
      Alcotest.test_case "domains conservation" `Quick
        test_domains_conservation;
      Alcotest.test_case "domains parked waiter visible" `Quick
        test_domains_parked_waiter_visible;
    ] )
