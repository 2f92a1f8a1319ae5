(* TL2-vs-NORec differential battery.

   The NORec backend must be observationally equivalent to TL2: any
   seeded workload, executed under the deterministic simulator on
   either algorithm, must leave the same committed structure contents
   and conserve the same invariants.  Divergence in the read path
   (value vs version validation), the commit protocol (sequence lock
   vs per-location locks) or the semantics layers (elastic windows,
   snapshot versions) would surface here as a differing final state.

   Determinism note: the two algorithms schedule differently under the
   same simulator seed (they touch different shared words), so we do
   NOT compare schedule-dependent observables like queue pop order or
   abort counts.  Instead each property uses workloads whose final
   state is schedule-independent — per-thread disjoint key slices, or
   a conserved bank total — and checks both algorithms against the
   same sequential oracle.

   The battery also pins NORec's abort-cause taxonomy: with no
   per-location lock words there is no lock to find busy and no owner
   to kill, so every abort must be a value-validation cause
   (read/window invalidation, snapshot exhaustion, or explicit). *)

module R = Polytm_runtime.Sim_runtime
module Sim = Polytm_runtime.Sim
module A = Polytm_structs.Adapters
module AM = Polytm_structs.Adapters.Make (Polytm_runtime.Sim_runtime)
module S = AM.S
module Conf = Polytm_bench_kit.Conformance
module Rng = Polytm_util.Rng

let both_algos = [ `Tl2; `Norec ]

(* ------------------------------------------------------------------ *)
(* Seeded workloads with schedule-independent final state.             *)
(* ------------------------------------------------------------------ *)

type op = Add of int | Remove of int | Contains of int | Size

(* Thread [t] mutates only its own key slice [t*span, (t+1)*span), so
   the final membership of every key is fixed by its owner's program
   order alone; [Contains]/[Size] range over the whole keyspace purely
   to create read-write contention across threads. *)
let ops_for ~seed ~threads ~span ~ops t =
  let rng = Rng.create ((seed * 31) + t) in
  List.init ops (fun _ ->
      let k = (t * span) + Rng.int rng span in
      match Rng.int rng 6 with
      | 0 -> Remove k
      | 1 -> Contains (Rng.int rng (threads * span))
      | 2 -> Size
      | _ -> Add k)

let sequential_oracle ~seed ~threads ~span ~ops =
  let present = Hashtbl.create 64 in
  for t = 0 to threads - 1 do
    List.iter
      (function
        | Add k -> Hashtbl.replace present k ()
        | Remove k -> Hashtbl.remove present k
        | Contains _ | Size -> ())
      (ops_for ~seed ~threads ~span ~ops t)
  done;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) present [])

let structures =
  [
    ("stm-list", fun ~profile stm -> AM.stm_list ~profile stm);
    ("stm-hash", fun ~profile stm -> AM.stm_hash ~profile stm);
    ("stm-skiplist", fun ~profile stm -> AM.stm_skiplist ~profile stm);
  ]

let profiles =
  [ A.classic_profile; A.elastic_classic_profile; A.mixed_profile ]

let run_set_workload ~algo ~struct_idx ~profile_idx ~seed ~threads ~span ~ops
    =
  let stm = S.create ~algo () in
  let _, make = List.nth structures struct_idx in
  let set = make ~profile:(List.nth profiles profile_idx) stm in
  let (), _ =
    Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
        R.parallel
          (List.init threads (fun t () ->
               List.iter
                 (function
                   | Add k -> ignore (set.A.add k)
                   | Remove k -> ignore (set.A.remove k)
                   | Contains k -> ignore (set.A.contains k)
                   | Size -> ignore (set.A.size ()))
                 (ops_for ~seed ~threads ~span ~ops t))))
  in
  (List.sort compare (set.A.to_list ()), S.stats stm)

(* Every NORec abort must be explained by a value-validation cause:
   no lock word is ever published, so [Lock_busy] (spin budget on a
   busy lock) and [Killed] (a CM killing a lock owner) are impossible
   by construction. *)
let check_norec_taxonomy ?(ctx = "") (st : S.stats) =
  let lbl what = Printf.sprintf "norec %s%s" what ctx in
  Alcotest.(check int) (lbl "lock_busy = 0") 0 st.S.lock_busy;
  Alcotest.(check int) (lbl "killed = 0") 0 st.S.killed;
  Alcotest.(check int)
    (lbl "aborts all value-validation")
    st.S.aborts
    (st.S.read_invalid + st.S.window_broken + st.S.snapshot_too_old
   + st.S.explicit_aborts)

(* Property 1: same committed set contents on both algorithms, both
   equal to the sequential oracle, across structure × profile. *)
let differential_sets_property =
  let case_gen =
    QCheck.Gen.(
      int_range 1 100_000 >>= fun seed ->
      int_range 0 2 >>= fun struct_idx ->
      int_range 0 2 >>= fun profile_idx ->
      int_range 2 4 >>= fun threads ->
      int_range 6 16 >>= fun ops ->
      return (seed, struct_idx, profile_idx, threads, ops))
  in
  QCheck.Test.make ~count:150
    ~name:"TL2 and NORec commit identical set contents"
    (QCheck.make
       ~print:(fun (seed, si, pi_, threads, ops) ->
         Printf.sprintf "seed=%d struct=%s profile=%s threads=%d ops=%d" seed
           (fst (List.nth structures si))
           (List.nth profiles pi_).A.profile_name
           threads ops)
       case_gen)
    (fun (seed, struct_idx, profile_idx, threads, ops) ->
      let span = 6 in
      let expect = sequential_oracle ~seed ~threads ~span ~ops in
      List.for_all
        (fun algo ->
          let got, st =
            run_set_workload ~algo ~struct_idx ~profile_idx ~seed ~threads
              ~span ~ops
          in
          (match algo with
          | `Norec ->
              check_norec_taxonomy
                ~ctx:(Printf.sprintf " (seed %d)" seed)
                st
          | `Tl2 -> ());
          got = expect)
        both_algos)

(* Regression: the elastic window must be validated by VERSION under
   NORec.  The list remove materialises its conflict with a
   same-value rewrite of the unlinked node's pointer
   (stm_list_set.ml) — invisible to a value-checked window, because
   write-back republishes the identical node pointer — so two
   adjacent removes could both pass window validation and commit,
   leaving the second victim reachable.  The conformance matrix
   originally caught this as a non-linearizable size(); this pins the
   minimal race directly: adjacent removes under an elastic parse
   profile, many seeds, victims must stay dead. *)
let test_adjacent_remove_race () =
  for seed = 1 to 60 do
    List.iter
      (fun profile ->
        let stm = S.create ~algo:`Norec () in
        let set = AM.stm_list ~profile stm in
        let (), _ =
          Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
              for k = 0 to 7 do
                ignore (set.A.add k)
              done;
              R.parallel
                [
                  (fun () -> assert (set.A.remove 3));
                  (fun () -> assert (set.A.remove 4));
                ])
        in
        Alcotest.(check (list int))
          (Printf.sprintf "no resurrection (%s, seed %d)"
             profile.A.profile_name seed)
          [ 0; 1; 2; 5; 6; 7 ]
          (List.sort compare (set.A.to_list ())))
      [ A.elastic_classic_profile; A.mixed_profile ]
  done

(* Property 2: transfers over a shared account array — heavy
   write-write conflicts on both algorithms — conserve the total, and
   leave the exact per-account balances of the sequential oracle
   (account slices are disjoint per thread for the deposit half). *)
let differential_bank_property =
  let case_gen =
    QCheck.Gen.(
      int_range 1 100_000 >>= fun seed ->
      int_range 2 4 >>= fun threads ->
      int_range 5 12 >>= fun transfers ->
      int_range 3 6 >>= fun accounts ->
      return (seed, threads, transfers, accounts))
  in
  QCheck.Test.make ~count:60
    ~name:"TL2 and NORec conserve the bank total"
    (QCheck.make
       ~print:(fun (seed, threads, transfers, accounts) ->
         Printf.sprintf "seed=%d threads=%d transfers=%d accounts=%d" seed
           threads transfers accounts)
       case_gen)
    (fun (seed, threads, transfers, accounts) ->
      List.for_all
        (fun algo ->
          let stm = S.create ~algo ~max_attempts:50 () in
          let arr = Array.init accounts (fun _ -> S.tvar stm 100) in
          let (), _ =
            Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
                R.parallel
                  (List.init threads (fun t () ->
                       let rng = Rng.create ((seed * 17) + t) in
                       for _ = 1 to transfers do
                         let src = Rng.int rng accounts
                         and dst = Rng.int rng accounts
                         and amount = Rng.int rng 40 in
                         S.atomically stm (fun tx ->
                             S.write tx arr.(src) (S.read tx arr.(src) - amount);
                             S.write tx arr.(dst) (S.read tx arr.(dst) + amount))
                       done)))
          in
          let total =
            S.atomically stm (fun tx ->
                Array.fold_left (fun acc a -> acc + S.read tx a) 0 arr)
          in
          (match algo with
          | `Norec -> check_norec_taxonomy ~ctx:(Printf.sprintf " (seed %d)" seed) (S.stats stm)
          | `Tl2 -> ());
          total = accounts * 100)
        both_algos)

(* ------------------------------------------------------------------ *)
(* Taxonomy under hostile contention management.                       *)
(* ------------------------------------------------------------------ *)

(* Greedy is the kill-happiest CM, yet under NORec there is no owner
   to kill: every conflict must resolve through value validation, the
   counter must still reach the oracle, and [killed] stays zero. *)
let test_norec_taxonomy_under_greedy () =
  for seed = 1 to 20 do
    let stm = S.create ~algo:`Norec ~cm:Polytm.Contention.Greedy () in
    let v = S.tvar stm 0 in
    let threads = 4 and ops = 8 in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init threads (fun _ () ->
                 for _ = 1 to ops do
                   S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
                 done)))
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: oracle" seed)
      (threads * ops)
      (S.atomically stm (fun tx -> S.read tx v));
    check_norec_taxonomy ~ctx:(Printf.sprintf " (seed %d)" seed)
      (S.stats stm)
  done

(* Read-only transactions under NORec commit without ever touching the
   sequence lock: the free read-only path is shared with TL2 and the
   [ro_commits] counter must account for all of them. *)
let test_norec_read_only_commits_free () =
  let stm = S.create ~algo:`Norec () in
  let v = S.tvar stm 1 and w = S.tvar stm 2 in
  for _ = 1 to 50 do
    Alcotest.(check int) "sum" 3
      (S.atomically stm (fun tx -> S.read tx v + S.read tx w))
  done;
  let st = S.stats stm in
  Alcotest.(check int) "all commits read-only" 50 st.S.ro_commits;
  Alcotest.(check int) "no aborts" 0 st.S.aborts

(* ------------------------------------------------------------------ *)
(* The standing self-test: broken validation must be caught.           *)
(* ------------------------------------------------------------------ *)

(* The [`Skip_validation] fault turns NORec's value revalidation off.  The
   backend then loses updates under write-write races — shown directly
   here (the differential oracle diverges) and via the conformance
   harness (the [buggy-norec-validation] impl is rejected with a
   counterexample).  If either check stops failing, the battery has
   lost its teeth. *)
let test_broken_validation_diverges () =
  let lost_updates = ref false in
  let seed = ref 1 in
  while (not !lost_updates) && !seed <= 40 do
    let stm = S.create ~algo:`Norec ~fault:`Skip_validation () in
    let v = S.tvar stm 0 in
    let threads = 4 and ops = 8 in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched !seed) (fun () ->
          R.parallel
            (List.init threads (fun _ () ->
                 for _ = 1 to ops do
                   S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
                 done)))
    in
    let final = S.atomically stm (fun tx -> S.read tx v) in
    if final < threads * ops then lost_updates := true;
    incr seed
  done;
  Alcotest.(check bool) "skip_validation loses updates" true !lost_updates

let contains_sub hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec at i = i + ln <= lh && (String.sub hay i ln = needle || at (i + 1)) in
  at 0

let test_harness_rejects_broken_validation () =
  match
    Conf.run_sim ~algo:`Norec ~name:"buggy-norec-validation" ~seed:42
      ~iters:30 ()
  with
  | Conf.Fail msg ->
      Alcotest.(check bool) "counterexample names the impl" true
        (contains_sub msg "buggy-norec-validation")
  | Conf.Pass _ ->
      Alcotest.fail "conformance accepted the broken NORec validation"

(* The knob is a NORec self-test hook, not API surface for TL2. *)
let test_skip_validation_rejected_for_tl2 () =
  let rejected =
    try
      ignore (S.create ~algo:`Tl2 ~fault:`Skip_validation ());
      false
    with S.Invalid_operation _ -> true
  in
  Alcotest.(check bool) "rejected" true rejected

(* ------------------------------------------------------------------ *)
(* Cross-algorithm hosting: one process, one runtime, two backends.    *)
(* ------------------------------------------------------------------ *)

(* The polymorphism claim made concrete: a NORec-backed map and a
   TL2-backed set coexist; per-instance transactions stay isolated and
   both final states match the oracle. *)
let test_two_backends_side_by_side () =
  for seed = 1 to 10 do
    let tl2 = S.create () and norec = S.create ~algo:`Norec () in
    Alcotest.(check bool) "algo accessors" true
      (S.algo tl2 = `Tl2 && S.algo norec = `Norec);
    let set_a = AM.stm_list tl2 in
    let set_b = AM.stm_hash ~profile:A.mixed_profile norec in
    let threads = 3 and span = 5 and ops = 10 in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init threads (fun t () ->
                 List.iter
                   (fun op ->
                     match op with
                     | Add k ->
                         ignore (set_a.A.add k);
                         ignore (set_b.A.add k)
                     | Remove k ->
                         ignore (set_a.A.remove k);
                         ignore (set_b.A.remove k)
                     | Contains k ->
                         ignore (set_a.A.contains k);
                         ignore (set_b.A.contains k)
                     | Size ->
                         ignore (set_a.A.size ());
                         ignore (set_b.A.size ()))
                   (ops_for ~seed ~threads ~span ~ops t))))
    in
    let expect = sequential_oracle ~seed ~threads ~span ~ops in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: TL2 set" seed)
      expect
      (List.sort compare (set_a.A.to_list ()));
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: NORec set" seed)
      expect
      (List.sort compare (set_b.A.to_list ()))
  done

let suite =
  ( "norec differential",
    [
      Test_seed.to_alcotest differential_sets_property;
      Test_seed.to_alcotest differential_bank_property;
      Alcotest.test_case "adjacent removes cannot resurrect" `Quick
        test_adjacent_remove_race;
      Alcotest.test_case "taxonomy under Greedy" `Quick
        test_norec_taxonomy_under_greedy;
      Alcotest.test_case "read-only commits are free" `Quick
        test_norec_read_only_commits_free;
      Alcotest.test_case "broken validation loses updates" `Quick
        test_broken_validation_diverges;
      Alcotest.test_case "harness rejects broken validation" `Quick
        test_harness_rejects_broken_validation;
      Alcotest.test_case "skip_validation is NORec-only" `Quick
        test_skip_validation_rejected_for_tl2;
      Alcotest.test_case "two backends side by side" `Quick
        test_two_backends_side_by_side;
    ] )
