(* Preemptive stress tests of the STM over real OCaml domains.  The
   machine may have any number of cores (this container has one); OS
   preemption still interleaves domains at arbitrary points, so these
   tests exercise genuine racy executions of the same functor code the
   simulator runs deterministically. *)

module D = Polytm_runtime.Domain_runtime
module S = Polytm.Stm.Make (Polytm_runtime.Domain_runtime)
open Polytm

let domains = 4

let test_counter_increments () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  let per = 200 in
  D.parallel
    (List.init domains (fun _ () ->
         for _ = 1 to per do
           S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
         done));
  Alcotest.(check int) "no lost updates" (domains * per)
    (S.atomically stm (fun tx -> S.read tx v));
  let st = S.stats stm in
  Alcotest.(check int) "commits" (domains * per + 1) st.S.commits

let test_bank_conservation () =
  let stm = S.create () in
  let n = 8 in
  let accounts = Array.init n (fun _ -> S.tvar stm 1000) in
  D.parallel
    (List.init domains (fun t () ->
         let rng = Polytm_util.Rng.create (t + 1) in
         for _ = 1 to 150 do
           let src = Polytm_util.Rng.int rng n
           and dst = Polytm_util.Rng.int rng n
           and amount = Polytm_util.Rng.int rng 50 in
           S.atomically stm (fun tx ->
               let s = S.read tx accounts.(src) in
               S.write tx accounts.(src) (s - amount);
               let d = S.read tx accounts.(dst) in
               S.write tx accounts.(dst) (d + amount))
         done));
  let total =
    S.atomically stm (fun tx ->
        Array.fold_left (fun acc a -> acc + S.read tx a) 0 accounts)
  in
  Alcotest.(check int) "money conserved" (n * 1000) total

let test_mixed_semantics_under_domains () =
  (* Elastic updaters, classic updaters and snapshot readers hammer the
     same cells; the final sum must equal the number of increments and
     every snapshot must read a sum that some prefix of increments
     could produce (0 <= sum <= total). *)
  let stm = S.create () in
  let cells = Array.init 4 (fun _ -> S.tvar stm 0) in
  let per = 100 in
  let bad_snapshot = Atomic.make 0 in
  D.parallel
    ([
       (fun () ->
         for _ = 1 to per * 2 do
           match
             S.atomically stm ~sem:Semantics.Snapshot (fun tx ->
                 Array.fold_left (fun acc c -> acc + S.read tx c) 0 cells)
           with
           | sum ->
               if sum < 0 || sum > 2 * domains * per then
                 Atomic.incr bad_snapshot
           | exception S.Too_many_attempts _ -> ()
         done);
     ]
    @ List.init 2 (fun i () ->
          let sem = if i = 0 then Semantics.Classic else Semantics.Elastic in
          for k = 1 to per do
            S.atomically stm ~sem (fun tx ->
                let c = cells.(k mod 4) in
                S.write tx c (S.read tx c + 1))
          done));
  let total =
    S.atomically stm (fun tx ->
        Array.fold_left (fun acc c -> acc + S.read tx c) 0 cells)
  in
  Alcotest.(check int) "all increments applied" (2 * per) total;
  Alcotest.(check int) "snapshots always plausible" 0 (Atomic.get bad_snapshot)

let test_greedy_under_domains () =
  let stm = S.create ~cm:Contention.Greedy () in
  let v = S.tvar stm 0 in
  let per = 100 in
  D.parallel
    (List.init domains (fun _ () ->
         for _ = 1 to per do
           S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
         done));
  Alcotest.(check int) "greedy: no lost updates" (domains * per)
    (S.atomically stm (fun tx -> S.read tx v))

let test_adaptive_serial_fallback_under_domains () =
  (* A tiny retry budget under real preemption forces the serial
     fallback constantly; every increment must still commit exactly
     once, no exhaustion may escape, and every lock word must end up
     released. *)
  let stm = S.create ~cm:Contention.default_adaptive ~max_attempts:2 () in
  let v = S.tvar stm 0 in
  let per = 100 in
  let escapes = Atomic.make 0 in
  D.parallel
    (List.init domains (fun _ () ->
         for _ = 1 to per do
           try S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
           with S.Too_many_attempts _ -> Atomic.incr escapes
         done));
  Alcotest.(check int) "no exhaustion escapes" 0 (Atomic.get escapes);
  Alcotest.(check int) "adaptive: no lost updates" (domains * per)
    (S.atomically stm (fun tx -> S.read tx v));
  Alcotest.(check bool) "lock released" false (S.tvar_locked v);
  let st = S.stats stm in
  Alcotest.(check bool)
    (Printf.sprintf "books balance (%d serial of %d commits)"
       st.S.serial_commits st.S.commits)
    true
    (st.S.serial_commits <= st.S.commits
    && st.S.budget_exhaustions <= st.S.aborts)

let test_list_set_under_domains () =
  let module LS = Polytm_structs.Stm_list_set.Make (S) in
  let stm = S.create () in
  let t = LS.create ~parse_sem:Semantics.Elastic ~size_sem:Semantics.Snapshot stm in
  let threads = 4 and per = 32 in
  D.parallel
    (List.init threads (fun d () ->
         for i = 0 to per - 1 do
           let key = (i * threads) + d in
           ignore (LS.add t key);
           if i mod 4 = 0 then ignore (LS.remove t key)
         done));
  let expected =
    List.concat_map
      (fun d ->
        List.filter_map
          (fun i -> if i mod 4 = 0 then None else Some ((i * threads) + d))
          (List.init per Fun.id))
      (List.init threads Fun.id)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "elastic list under domains" expected
    (LS.to_list t)

let test_map_under_domains () =
  let module M = Polytm_structs.Stm_map.Make (S) in
  let stm = S.create () in
  let m = M.create ~size_sem:Semantics.Snapshot stm in
  let threads = 4 and per = 40 in
  D.parallel
    (List.init threads (fun d () ->
         for i = 0 to per - 1 do
           ignore (M.add m ((i * threads) + d) d)
         done));
  Alcotest.(check int) "all bindings present" (threads * per) (M.size m);
  Alcotest.(check bool) "map invariants hold" true (M.invariants_hold m)

(* The skiplist, queue and stack run through the full conformance
   pipeline under real domains: recorded histories from preemptive
   interleavings must check out linearizable.  Fixed seeds keep the
   workloads reproducible (interleavings stay racy by nature — any
   of them must pass). *)
let conformance_under_domains name () =
  match
    Polytm_bench_kit.Conformance.run_domains ~threads:3 ~ops:12 ~name ~seed:42
      ~iters:4 ()
  with
  | Polytm_bench_kit.Conformance.Pass _ -> ()
  | Polytm_bench_kit.Conformance.Fail msg -> Alcotest.fail msg

let test_irrevocable_under_domains () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  let side_effects = Atomic.make 0 in
  D.parallel
    (List.init 4 (fun d () ->
         if d = 0 then
           S.atomically ~irrevocable:true stm (fun tx ->
               Atomic.incr side_effects;
               S.write tx v (S.read tx v + 1000))
         else
           for _ = 1 to 100 do
             S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
           done));
  Alcotest.(check int) "irrevocable body ran once" 1 (Atomic.get side_effects);
  Alcotest.(check int) "all updates applied" 1300
    (S.atomically stm (fun tx -> S.read tx v))

(* Every statistic is a count of the thread that made it, summed when
   read: after [Domain.join] the sums are exact.  Each domain commits
   on a tvar of its own (no conflict can abort it) and aborts
   explicitly through [S.abort], with a budget of one attempt. *)
let test_stats_exact_after_join () =
  let stm = S.create () in
  let commits = 300 and aborts = 200 in
  D.parallel
    (List.init 2 (fun _ () ->
         let v = S.tvar stm 0 in
         for _ = 1 to commits do
           S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
         done;
         for _ = 1 to aborts do
           match S.try_atomically ~budget:1 stm S.abort with
           | S.Exhausted _ -> ()
           | _ -> Alcotest.fail "an explicit abort did not exhaust its budget"
         done));
  let st = S.stats stm in
  Alcotest.(check (list (pair string int)))
    "the counts of both domains, exactly"
    [
      ("starts", 2 * (commits + aborts));
      ("commits", 2 * commits);
      ("aborts", 2 * aborts);
      ("explicit_aborts", 2 * aborts);
      ("budget_exhaustions", 2 * aborts);
    ]
    [
      ("starts", st.S.starts);
      ("commits", st.S.commits);
      ("aborts", st.S.aborts);
      ("explicit_aborts", st.S.explicit_aborts);
      ("budget_exhaustions", st.S.budget_exhaustions);
    ]

(* Every field of [S.stats], by name. *)
let stats_fields (st : S.stats) =
  [
    ("starts", st.S.starts); ("commits", st.S.commits);
    ("aborts", st.S.aborts); ("lock_busy", st.S.lock_busy);
    ("read_invalid", st.S.read_invalid);
    ("window_broken", st.S.window_broken);
    ("snapshot_too_old", st.S.snapshot_too_old); ("killed", st.S.killed);
    ("explicit_aborts", st.S.explicit_aborts); ("cuts", st.S.cuts);
    ("extensions", st.S.extensions); ("stale_reads", st.S.stale_reads);
    ("fast_commits", st.S.fast_commits); ("ro_commits", st.S.ro_commits);
    ("serial_commits", st.S.serial_commits);
    ("budget_exhaustions", st.S.budget_exhaustions);
    ("retry_waits", st.S.retry_waits); ("parks", st.S.parks);
    ("wakes", st.S.wakes); ("wake_timeouts", st.S.wake_timeouts);
    ("multi_commits", st.S.multi_commits);
    ("multi_escalations", st.S.multi_escalations);
  ]

(* [reset_stats] zeroes every field, and with them the abort rate the
   adaptive contention manager reads.  The rate shows in whether a
   conflict's first abort serializes: with [serialize_after = 2] it
   does only on a hot instance (aborts at least half the starts),
   where the threshold halves to 1.  The conflict: a transaction reads
   [v], a writer on another domain commits [v], and the reader's write
   commit then fails validation.  Before the reset the instance is hot
   (explicit aborts, then the conflict): the conflict serializes.
   After it, three commits and the same conflict read 20%: the reader
   backs off and commits optimistically. *)
let test_reset_zeroes_every_count () =
  let cm =
    Contention.Adaptive
      { base = 1; cap = 1; greedy_after = 1; serialize_after = 2;
        hot_abort_pct = 50 }
  in
  let stm = S.create ~cm () in
  let other = S.create () in
  let v = S.tvar stm 0 and w = S.tvar stm 0 and x = S.tvar other 0 in
  let conflict () =
    let first = ref true in
    S.atomically stm (fun tx ->
        ignore (S.read tx v);
        if !first then begin
          first := false;
          D.parallel [ (fun () -> S.atomically stm (fun tx -> S.write tx v 1)) ]
        end;
        S.write tx w 1)
  in
  for _ = 1 to 4 do
    try S.atomically stm (fun _ -> raise Exit) with Exit -> ()
  done;
  conflict ();
  ignore (S.atomically ~sem:Semantics.Snapshot stm (fun tx -> S.read tx v));
  ignore (S.try_atomically ~budget:1 stm S.abort);
  ignore
    (S.try_atomically ~deadline:(D.now () + 1_000_000) stm (fun tx ->
         if S.read tx w = 1 then S.retry tx));
  S.atomically_multi [ stm; other ] (fun () ->
      S.atomically stm (fun tx -> S.write tx w 2);
      S.atomically other (fun tx -> S.write tx x 1));
  let before = stats_fields (S.stats stm) in
  Alcotest.(check int) "the hot instance serialized the conflict" 1
    (List.assoc "serial_commits" before);
  Alcotest.(check bool) "most counts are non-zero before the reset" true
    (List.length (List.filter (fun (_, n) -> n > 0) before) >= 12);
  S.reset_stats stm;
  Alcotest.(check (list (pair string int)))
    "every count reads 0 after the reset"
    (List.map (fun (k, _) -> (k, 0)) before)
    (stats_fields (S.stats stm));
  for _ = 1 to 3 do
    S.atomically stm (fun tx -> S.write tx w (S.read tx w + 1))
  done;
  conflict ();
  let st = S.stats stm in
  Alcotest.(check (pair int int))
    "after the reset the conflict aborts once and commits optimistically"
    (1, 0) (st.S.read_invalid, st.S.serial_commits)

let suite =
  ( "stm-domains",
    [
      Alcotest.test_case "counter increments" `Quick test_counter_increments;
      Alcotest.test_case "bank conservation" `Quick test_bank_conservation;
      Alcotest.test_case "mixed semantics" `Quick test_mixed_semantics_under_domains;
      Alcotest.test_case "greedy policy" `Quick test_greedy_under_domains;
      Alcotest.test_case "adaptive serial fallback" `Quick
        test_adaptive_serial_fallback_under_domains;
      Alcotest.test_case "elastic list" `Quick test_list_set_under_domains;
      Alcotest.test_case "ordered map" `Quick test_map_under_domains;
      Alcotest.test_case "irrevocable" `Quick test_irrevocable_under_domains;
      Alcotest.test_case "skiplist conformance" `Quick
        (conformance_under_domains "stm-skiplist");
      Alcotest.test_case "queue conformance" `Quick
        (conformance_under_domains "stm-queue");
      Alcotest.test_case "stack conformance" `Quick
        (conformance_under_domains "stm-stack");
      Alcotest.test_case "statistics are exact after join" `Quick
        test_stats_exact_after_join;
      Alcotest.test_case "reset_stats zeroes every count" `Quick
        test_reset_zeroes_every_count;
    ] )
