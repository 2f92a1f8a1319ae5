(* Tests for the exhaustive interleaving explorer.  Coverage is
   measured as the number of *distinct shared-access orderings*
   reached, checked against combinatorics, and the explorer must find
   the classic lost-update race that random testing can miss.  Every
   model-checked scenario of [tmcheck explore] runs here too, one case
   per entry of its table. *)

module R = Polytm_runtime.Sim_runtime
module Sim = Polytm_runtime.Sim
module Explore = Polytm_runtime.Explore
module MC = Polytm_bench_kit.Model_checks

(* Threads record the global order of their shared accesses through a
   single fetch-and-add each (one scheduling point per access); the
   resulting orderings are collected across all explored schedules. *)
let collect_orderings sizes =
  let seen = Hashtbl.create 64 in
  let program () =
    let total = List.fold_left ( + ) 0 sizes in
    let cursor = R.atomic 0 in
    let order = Array.make total (-1) in
    let body thread_idx steps () =
      for _ = 1 to steps do
        let i = R.fetch_and_add cursor 1 in
        order.(i) <- thread_idx
      done
    in
    let ts = List.mapi (fun i n -> Sim.spawn (body i n)) sizes in
    List.iter Sim.join ts;
    Hashtbl.replace seen (Array.to_list order) ()
  in
  let outcome = Explore.check program in
  Alcotest.(check bool) "exploration complete" false outcome.Explore.truncated;
  Hashtbl.length seen

let binomial n k =
  let rec loop acc i =
    if i > k then acc else loop (acc * (n - k + i) / i) (i + 1)
  in
  loop 1 1

let test_ordering_counts_two_threads () =
  List.iter
    (fun (a, b) ->
      let expected = binomial (a + b) a in
      let got = collect_orderings [ a; b ] in
      Alcotest.(check int)
        (Printf.sprintf "orderings of %d+%d accesses" a b)
        expected got)
    [ (1, 1); (2, 2); (3, 2); (3, 3) ]

let test_ordering_count_three_threads () =
  (* 3 threads x 2 accesses: multinomial 6!/(2!2!2!) = 90. *)
  Alcotest.(check int) "multinomial" 90 (collect_orderings [ 2; 2; 2 ])

let test_single_thread_one_schedule () =
  let program () =
    for _ = 1 to 5 do
      Sim.tick 1
    done
  in
  Alcotest.(check int) "deterministic program" 1
    (Explore.count_schedules program)

let lost_update_program () =
  let a = R.atomic 0 in
  let incr () = R.set a (R.get a + 1) in
  let t1 = Sim.spawn incr and t2 = Sim.spawn incr in
  Sim.join t1;
  Sim.join t2;
  assert (R.get a = 2)

let test_finds_lost_update () =
  let found =
    try
      ignore (Explore.check lost_update_program);
      false
    with Explore.Violation _ -> true
  in
  Alcotest.(check bool) "explorer finds the race" true found

let test_violation_schedule_replays () =
  match Explore.check lost_update_program with
  | _ -> Alcotest.fail "expected a violation"
  | exception Explore.Violation { schedule; _ } ->
      (* Replaying the returned prefix must reproduce the failure. *)
      let reproduced =
        try
          let (), _ =
            Sim.run ~policy:(Sim.Scripted schedule) lost_update_program
          in
          false
        with Assert_failure _ -> true
      in
      Alcotest.(check bool) "schedule replays the failure" true reproduced

let test_cas_survives_exploration () =
  (* The CAS retry loop must pass under *every* schedule. *)
  let program () =
    let a = R.atomic 0 in
    let incr () =
      let rec retry () =
        let v = R.get a in
        if not (R.cas a v (v + 1)) then retry ()
      in
      retry ()
    in
    let t1 = Sim.spawn incr and t2 = Sim.spawn incr in
    Sim.join t1;
    Sim.join t2;
    assert (R.get a = 2)
  in
  let outcome = Explore.check program in
  Alcotest.(check bool) "explored some schedules" true
    (outcome.Explore.executions > 1);
  Alcotest.(check bool) "not truncated" false outcome.Explore.truncated

let test_truncation () =
  let big_program () =
    let body () =
      for _ = 1 to 6 do
        Sim.tick 1
      done
    in
    let t1 = Sim.spawn body and t2 = Sim.spawn body in
    Sim.join t1;
    Sim.join t2
  in
  let outcome = Explore.check ~max_executions:5 big_program in
  Alcotest.(check bool) "truncated" true outcome.Explore.truncated;
  Alcotest.(check int) "stopped at bound" 5 outcome.Explore.executions

let test_preemption_bounding_shrinks_tree () =
  (* With zero preemptions allowed, only thread-completion orders are
     explored; the tree is tiny compared to the unbounded one, yet the
     lost-update race still needs >= 1 preemption to appear. *)
  let body () =
    let a = R.atomic 0 in
    let work () =
      for _ = 1 to 4 do
        ignore (R.get a)
      done
    in
    let t1 = Sim.spawn work and t2 = Sim.spawn work in
    Sim.join t1;
    Sim.join t2
  in
  let unbounded = Explore.check body in
  let bounded = Explore.check ~max_preemptions:0 body in
  Alcotest.(check bool)
    (Printf.sprintf "bounded (%d) << unbounded (%d)"
       bounded.Explore.executions unbounded.Explore.executions)
    true
    (bounded.Explore.executions * 4 < unbounded.Explore.executions)

let test_preemption_bound_still_finds_race () =
  (* One preemption suffices for the classic lost update. *)
  let found =
    try
      ignore (Explore.check ~max_preemptions:1 lost_update_program);
      false
    with Explore.Violation _ -> true
  in
  Alcotest.(check bool) "found with <=1 preemption" true found

let test_zero_preemptions_misses_race () =
  (* ... and zero preemptions cannot expose it: each increment is then
     effectively run to completion. *)
  let outcome = Explore.check ~max_preemptions:0 lost_update_program in
  Alcotest.(check bool) "sequential-ish schedules only" true
    (outcome.Explore.executions >= 1)

let test_spinlock_exclusion_bounded () =
  (* Bounded model checking of the spinlock on a minimal scenario: no
     explored schedule may lose an update.  Livelocking schedules (a
     waiter spun unfairly forever) are pruned via the step limit. *)
  let module L = Polytm_runtime.Spinlock.Make (R) in
  let program () =
    let lock = L.create () in
    let a = R.atomic 0 in
    let incr () = L.with_lock lock (fun () -> R.set a (R.get a + 1)) in
    let t1 = Sim.spawn incr and t2 = Sim.spawn incr in
    Sim.join t1;
    Sim.join t2;
    assert (R.get a = 2)
  in
  let outcome =
    Explore.check ~max_executions:20_000 ~max_depth:30 ~step_limit:300 program
  in
  Alcotest.(check bool) "explored many schedules" true
    (outcome.Explore.executions > 100)

let test_greedy_mutual_wait_bounded () =
  (* Bounded model checking of the Greedy kill protocol on the minimal
     mutual-wait scenario: two transactions updating the same two
     locations.  When their commits overlap, the older kills the
     younger lock owner and waits for the lock — while the younger may
     itself be spinning on a lock the older holds.  No explored
     schedule may lose an update, deadlock (pruned runs would show up
     as a tiny execution count), or leave a lock word held. *)
  let module S = Polytm.Stm.Make (R) in
  let program () =
    let stm = S.create ~cm:Polytm.Contention.Greedy () in
    let a = S.tvar stm 0 in
    let b = S.tvar stm 0 in
    let incr () =
      S.atomically stm (fun tx ->
          S.write tx a (S.read tx a + 1);
          S.write tx b (S.read tx b + 1))
    in
    let t1 = Sim.spawn incr and t2 = Sim.spawn incr in
    Sim.join t1;
    Sim.join t2;
    assert (S.atomically stm (fun tx -> S.read tx a) = 2);
    assert (S.atomically stm (fun tx -> S.read tx b) = 2);
    assert (not (S.tvar_locked a));
    assert (not (S.tvar_locked b))
  in
  let outcome =
    Explore.check ~max_executions:20_000 ~max_depth:40 ~step_limit:600 program
  in
  Alcotest.(check bool)
    (Printf.sprintf "explored many schedules (%d)" outcome.Explore.executions)
    true
    (outcome.Explore.executions > 100)

(* A scenario of the shared table reaches its verdict within 20,000
   schedules, and a [Holds] rests on 1,000 of them or on all there
   are. *)
let test_scenario (sc : MC.scenario) () =
  match (sc.expect, MC.run ~max_executions:20_000 sc) with
  | Holds, Explored o ->
      Alcotest.(check bool)
        (Printf.sprintf "1,000 schedules or a complete exploration (%d%s)"
           o.executions
           (if o.truncated then ", bounded" else ", complete"))
        true
        (o.executions >= 1_000 || not o.truncated)
  | Violated, Violation _ -> ()
  | Holds, Violation (schedule, exn) ->
      Alcotest.failf "%s under schedule [%s]" (Printexc.to_string exn)
        (String.concat "; " (List.map string_of_int (Array.to_list schedule)))
  | Violated, Explored o ->
      Alcotest.failf "no violation in %d schedules" o.executions

let suite =
  ( "explore",
    [
      Alcotest.test_case "ordering counts (2 threads)" `Quick
        test_ordering_counts_two_threads;
      Alcotest.test_case "ordering count (3 threads)" `Quick
        test_ordering_count_three_threads;
      Alcotest.test_case "single thread" `Quick test_single_thread_one_schedule;
      Alcotest.test_case "finds lost update" `Quick test_finds_lost_update;
      Alcotest.test_case "violation replays" `Quick test_violation_schedule_replays;
      Alcotest.test_case "cas survives exploration" `Quick
        test_cas_survives_exploration;
      Alcotest.test_case "truncation" `Quick test_truncation;
      Alcotest.test_case "spinlock bounded check" `Quick
        test_spinlock_exclusion_bounded;
      Alcotest.test_case "greedy mutual wait bounded check" `Quick
        test_greedy_mutual_wait_bounded;
      Alcotest.test_case "preemption bounding shrinks tree" `Quick
        test_preemption_bounding_shrinks_tree;
      Alcotest.test_case "bounded still finds race" `Quick
        test_preemption_bound_still_finds_race;
      Alcotest.test_case "zero preemptions misses race" `Quick
        test_zero_preemptions_misses_race;
    ]
    @ List.map
        (fun (sc : MC.scenario) ->
          Alcotest.test_case sc.name `Quick (test_scenario sc))
        MC.scenarios )
