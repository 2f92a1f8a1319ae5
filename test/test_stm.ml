(* Tests for the polymorphic STM over the deterministic simulator:
   basic transactional semantics, conflict handling, timestamp
   extension, elastic cuts, snapshot reads, early release, contention
   policies, and whole-run history validation against the formal
   checkers. *)

module R = Polytm_runtime.Sim_runtime
module Sim = Polytm_runtime.Sim
module S = Polytm.Stm.Make (Polytm_runtime.Sim_runtime)
open Polytm

(* --- semantics & contention metadata ------------------------------------ *)

let test_semantics_module () =
  let open Semantics in
  Alcotest.(check string) "classic" "classic" (to_string Classic);
  Alcotest.(check string) "elastic" "elastic" (to_string Elastic);
  Alcotest.(check string) "snapshot" "snapshot" (to_string Snapshot);
  Alcotest.(check bool) "equal" true (equal Classic Classic);
  Alcotest.(check bool) "not equal" false (equal Classic Elastic);
  Alcotest.(check bool) "outer wins" true
    (equal (compose ~outer:Classic ~inner:Elastic) Classic);
  Alcotest.(check bool) "classic writes" true (allows_write Classic);
  Alcotest.(check bool) "snapshot read-only" false (allows_write Snapshot);
  Alcotest.(check string) "pp" "elastic" (Format.asprintf "%a" pp Elastic)

let test_contention_module () =
  Alcotest.(check string) "suicide" "suicide"
    (Contention.to_string Contention.Suicide);
  Alcotest.(check string) "greedy" "greedy"
    (Contention.to_string Contention.Greedy);
  Alcotest.(check int) "suicide never spins" 0
    (Contention.lock_spins Contention.Suicide);
  Alcotest.(check int) "polite spins as configured" 9
    (Contention.lock_spins (Contention.Polite { spins = 9 }));
  Alcotest.(check int) "suicide retries at once" 0
    (Contention.retry_pause Contention.Suicide ~attempt:3);
  let b = Contention.Backoff { base = 4; cap = 32 } in
  Alcotest.(check int) "backoff attempt 1" 4 (Contention.retry_pause b ~attempt:1);
  Alcotest.(check int) "backoff attempt 2" 8 (Contention.retry_pause b ~attempt:2);
  Alcotest.(check int) "backoff capped" 32 (Contention.retry_pause b ~attempt:10)

let test_contention_backoff_edges () =
  (* The doubling must saturate at [cap] instead of overflowing:
     [acc * 2] on a huge accumulator used to wrap negative and slip
     past the cap test, yielding a negative pause. *)
  let huge = Contention.Backoff { base = 3; cap = max_int } in
  Alcotest.(check int) "uncapped doubling saturates at cap" max_int
    (Contention.retry_pause huge ~attempt:200);
  let wide = Contention.Backoff { base = 1; cap = max_int - 1 } in
  for attempt = 1 to 300 do
    let p = Contention.retry_pause wide ~attempt in
    if p < 0 then Alcotest.failf "negative pause %d at attempt %d" p attempt
  done;
  Alcotest.(check int) "pre-overflow power of two exact" 4096
    (Contention.retry_pause wide ~attempt:13);
  let degenerate = Contention.Backoff { base = 1; cap = 1 } in
  Alcotest.(check int) "base=cap=1 pins the pause" 1
    (Contention.retry_pause degenerate ~attempt:60)

let test_contention_validation () =
  let rejected cm =
    match Contention.validate cm with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "base=0 rejected" true
    (rejected (Contention.Backoff { base = 0; cap = 8 }));
  Alcotest.(check bool) "cap<base rejected" true
    (rejected (Contention.Backoff { base = 16; cap = 4 }));
  Alcotest.(check bool) "negative spins rejected" true
    (rejected (Contention.Polite { spins = -1 }));
  Alcotest.(check bool) "greedy_after=0 rejected" true
    (rejected
       (Contention.Adaptive
          { base = 4; cap = 64; greedy_after = 0; serialize_after = 8;
            hot_abort_pct = 50 }));
  Alcotest.(check bool) "serialize before greedy rejected" true
    (rejected
       (Contention.Adaptive
          { base = 4; cap = 64; greedy_after = 8; serialize_after = 4;
            hot_abort_pct = 50 }));
  Alcotest.(check bool) "defaults validate" false
    (rejected Contention.default || rejected Contention.default_adaptive);
  (* [Stm.create] runs the validation, so a misconfigured policy dies
     at construction rather than degenerating at runtime. *)
  let construction_rejected =
    match S.create ~cm:(Contention.Backoff { base = 0; cap = 8 }) () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "create validates" true construction_rejected

let test_contention_adaptive_ladder () =
  let a = Contention.default_adaptive in
  (* greedy_after = 8, serialize_after = 24, hot_abort_pct = 50 *)
  Alcotest.(check string) "to_string" "adaptive(4,1024,g8,s24,h50%)"
    (Contention.to_string a);
  Alcotest.(check bool) "adaptive may kill" true (Contention.may_kill a);
  Alcotest.(check bool) "backoff may not kill" false
    (Contention.may_kill Contention.default);
  Alcotest.(check bool) "cautious: no kill" false
    (Contention.kills_at a ~attempt:7 ~abort_rate_pct:0);
  Alcotest.(check bool) "escalated: kills" true
    (Contention.kills_at a ~attempt:8 ~abort_rate_pct:0);
  Alcotest.(check bool) "hot instance halves the threshold" true
    (Contention.kills_at a ~attempt:4 ~abort_rate_pct:50);
  Alcotest.(check bool) "still cautious below the halved threshold" false
    (Contention.kills_at a ~attempt:3 ~abort_rate_pct:50);
  Alcotest.(check bool) "serializes past the ladder" true
    (Contention.serializes_at a ~attempt:24 ~abort_rate_pct:0);
  Alcotest.(check bool) "hot instance serializes sooner" true
    (Contention.serializes_at a ~attempt:12 ~abort_rate_pct:50);
  Alcotest.(check bool) "not before" false
    (Contention.serializes_at a ~attempt:11 ~abort_rate_pct:50);
  Alcotest.(check bool) "greedy kills but never serializes" true
    (Contention.kills_at Contention.Greedy ~attempt:1 ~abort_rate_pct:0
    && not
         (Contention.serializes_at Contention.Greedy ~attempt:1000
            ~abort_rate_pct:100));
  (* Aggressive phase retries immediately; cautious phase backs off. *)
  Alcotest.(check int) "cautious pause" 4 (Contention.retry_pause a ~attempt:1);
  Alcotest.(check int) "aggressive pause" 0 (Contention.retry_pause a ~attempt:8)

let test_tvar_ids_unique () =
  let stm = S.create () in
  let a = S.tvar stm 0 and b = S.tvar stm 0 in
  Alcotest.(check bool) "distinct ids" true (S.tvar_id a <> S.tvar_id b);
  Alcotest.(check int) "window size accessor" 2 (S.elastic_window_size stm)

(* --- basics ------------------------------------------------------------ *)

let test_read_write_commit () =
  let stm = S.create () in
  let v = S.tvar stm 1 in
  let r = S.atomically stm (fun tx -> S.read tx v) in
  Alcotest.(check int) "initial" 1 r;
  S.atomically stm (fun tx -> S.write tx v 7);
  Alcotest.(check int) "after write" 7
    (S.atomically stm (fun tx -> S.read tx v))

let test_read_own_write () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  let seen =
    S.atomically stm (fun tx ->
        S.write tx v 3;
        S.read tx v)
  in
  Alcotest.(check int) "sees own write" 3 seen

let test_multiple_writes_last_wins () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  S.atomically stm (fun tx ->
      S.write tx v 1;
      S.write tx v 2;
      S.write tx v 3);
  Alcotest.(check int) "last write" 3 (S.atomically stm (fun tx -> S.read tx v))

let test_exception_discards_effects () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  (try
     S.atomically stm (fun tx ->
         S.write tx v 42;
         raise Exit)
   with Exit -> ());
  Alcotest.(check int) "write discarded" 0
    (S.atomically stm (fun tx -> S.read tx v));
  let st = S.stats stm in
  Alcotest.(check int) "counted as abort" 1 st.S.aborts

let test_explicit_abort_exhausts_attempts () =
  let stm = S.create ~max_attempts:5 () in
  let raised =
    try S.atomically stm (fun tx -> S.abort tx)
    with S.Too_many_attempts (S.Explicit, 5) -> true
  in
  Alcotest.(check bool) "Too_many_attempts(Explicit, 5)" true raised;
  Alcotest.(check int) "five starts" 5 (S.stats stm).S.starts

let test_orelse_first_succeeds () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  let r =
    S.atomically stm (fun tx ->
        S.orelse tx
          (fun tx ->
            S.write tx v 1;
            "first")
          (fun _ -> "second"))
  in
  Alcotest.(check string) "first" "first" r;
  Alcotest.(check int) "first's write kept" 1
    (S.atomically stm (fun tx -> S.read tx v))

let test_orelse_falls_through () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  let r =
    S.atomically stm (fun tx ->
        S.orelse tx
          (fun tx ->
            S.write tx v 99;
            S.abort tx)
          (fun tx ->
            S.write tx v 2;
            "second"))
  in
  Alcotest.(check string) "second" "second" r;
  Alcotest.(check int) "first's write rolled back" 2
    (S.atomically stm (fun tx -> S.read tx v))

let test_orelse_nested_alternatives () =
  let stm = S.create () in
  let r =
    S.atomically stm (fun tx ->
        S.orelse tx
          (fun tx ->
            S.orelse tx (fun tx -> S.abort tx) (fun tx -> S.abort tx))
          (fun _ -> "fallback"))
  in
  Alcotest.(check string) "fallback" "fallback" r

let test_nested_atomically_flattens () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  S.atomically stm (fun tx ->
      S.write tx v 1;
      (* The nested block joins the outer transaction; its hint is
         overridden and no second commit happens. *)
      S.atomically stm ~sem:Semantics.Elastic (fun tx' ->
          Alcotest.(check int) "nested sees outer write" 1 (S.read tx' v);
          S.write tx' v 2));
  Alcotest.(check int) "one commit only" 1 (S.stats stm).S.commits;
  Alcotest.(check int) "nested write committed" 2
    (S.atomically stm (fun tx -> S.read tx v))

let test_tx_escape_detected () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  let escaped = ref None in
  S.atomically stm (fun tx -> escaped := Some tx);
  match !escaped with
  | None -> Alcotest.fail "tx not captured"
  | Some tx ->
      let rejected =
        try
          ignore (S.read tx v);
          false
        with S.Invalid_operation _ -> true
      in
      Alcotest.(check bool) "escaped handle rejected" true rejected

(* Descriptors are pooled per thread and instance, so a later call on
   the same thread and instance runs on the very descriptor an escaped
   handle points to, live again.  The handle's stamp is its call's, so
   it stays dead. *)
let test_escaped_handle_dead_across_calls () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s through a stale handle was accepted" what
    | exception S.Invalid_operation _ -> ()
  in
  let all_rejected stale =
    S.atomically stm (fun tx ->
        rejects "read" (fun () -> ignore (S.read stale v));
        rejects "write" (fun () -> S.write stale v 7);
        rejects "on_cleanup" (fun () -> S.on_cleanup stale ignore);
        rejects "retry" (fun () -> S.retry stale);
        S.write tx v (S.read tx v + 1))
  in
  let escaped = ref None in
  S.atomically stm (fun tx -> escaped := Some tx);
  all_rejected (Option.get !escaped);
  (* A flat-nested call's handle, once its outer call has ended. *)
  S.atomically stm (fun _ ->
      S.atomically stm ~sem:Semantics.Elastic (fun tx -> escaped := Some tx));
  all_rejected (Option.get !escaped);
  Alcotest.(check int) "only the live handles wrote" 2
    (S.atomically stm (fun tx -> S.read tx v))

(* What one call allocates, in minor-heap words, on real domains: a
   call takes a pooled descriptor, so what is left is the body's
   three-word handle, the [Committed] box, the caller's closure over
   the tvar, and what a write adds — its write-set entry, the
   attempt's owner (made at its first lock), the lock word, the new
   versioned value and the unlock word.  The thunk form on one member
   allocates neither a handle nor a wrapper: the [Committed] box and
   the caller's member list.  A pooled descriptor's sets are grown by
   the first calls, so the count starts after those. *)
module SD = Polytm.Stm.Make (Polytm_runtime.Domain_runtime)

let test_call_allocation () =
  let stm = SD.create () in
  let v = SD.tvar stm 0 in
  let words f =
    for _ = 1 to 10 do
      f ()
    done;
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    Float.to_int (Float.round ((Gc.minor_words () -. w0) /. float_of_int n))
  in
  let sem = Semantics.Classic and label = "point" in
  let thunk () = () in
  Alcotest.(check int) "empty atomically" 5
    (words (fun () -> SD.atomically stm (fun _ -> ())));
  Alcotest.(check int) "one read" 9
    (words (fun () -> ignore (SD.atomically stm (fun tx -> SD.read tx v))));
  Alcotest.(check int) "one write" 28
    (words (fun () -> SD.atomically stm (fun tx -> SD.write tx v 1)));
  Alcotest.(check int) "one-member try_atomically_multi" 5
    (words (fun () ->
         ignore (SD.try_atomically_multi ~sem ~label [ stm ] thunk)));
  Alcotest.(check int) "try_atomically_one" 2
    (words (fun () -> ignore (SD.try_atomically_one ~sem ~label stm thunk)))

let test_snapshot_write_rejected () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  let rejected =
    try
      S.atomically stm ~sem:Semantics.Snapshot (fun tx -> S.write tx v 1);
      false
    with S.Invalid_operation _ -> true
  in
  Alcotest.(check bool) "snapshot write rejected" true rejected

let test_stats_accounting () =
  let stm = S.create () in
  let v = S.tvar stm 0 in
  for _ = 1 to 5 do
    S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
  done;
  let st = S.stats stm in
  Alcotest.(check int) "starts" 5 st.S.starts;
  Alcotest.(check int) "commits" 5 st.S.commits;
  Alcotest.(check int) "no aborts" 0 st.S.aborts;
  S.reset_stats stm;
  Alcotest.(check int) "reset" 0 (S.stats stm).S.starts

(* --- concurrency: atomicity -------------------------------------------- *)

let test_concurrent_increments_atomic () =
  for seed = 1 to 15 do
    let stm = S.create () in
    let v = S.tvar stm 0 in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 3 (fun _ () ->
                 for _ = 1 to 5 do
                   S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
                 done)))
    in
    Alcotest.(check int) "no lost updates" 15
      (S.atomically stm (fun tx -> S.read tx v))
  done

let test_bank_conservation () =
  (* Random transfers among 6 accounts: the sum is invariant, checked
     by a classic transaction at the end of every seed. *)
  let n = 6 in
  for seed = 1 to 10 do
    let stm = S.create () in
    let accounts = Array.init n (fun _ -> S.tvar stm 100) in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 3 (fun t () ->
                 let rng = Polytm_util.Rng.create (seed * 100 + t) in
                 for _ = 1 to 8 do
                   let src = Polytm_util.Rng.int rng n
                   and dst = Polytm_util.Rng.int rng n
                   and amount = Polytm_util.Rng.int rng 20 in
                   S.atomically stm (fun tx ->
                       let s = S.read tx accounts.(src) in
                       S.write tx accounts.(src) (s - amount);
                       let d = S.read tx accounts.(dst) in
                       S.write tx accounts.(dst) (d + amount))
                 done)))
    in
    let total =
      S.atomically stm (fun tx ->
          Array.fold_left (fun acc a -> acc + S.read tx a) 0 accounts)
    in
    Alcotest.(check int) "money conserved" (n * 100) total
  done

let test_write_skew_prevented () =
  (* Classic STM must not allow write skew: two transactions each read
     both cells and write one; serializability forces x + y >= 0 to be
     maintained when each checks the sum before withdrawing. *)
  for seed = 1 to 20 do
    let stm = S.create () in
    let x = S.tvar stm 5 and y = S.tvar stm 5 in
    let withdraw cell () =
      S.atomically stm (fun tx ->
          let total = S.read tx x + S.read tx y in
          if total >= 10 then S.write tx cell (S.read tx cell - 10))
    in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel [ withdraw x; withdraw y ])
    in
    let total = S.atomically stm (fun tx -> S.read tx x + S.read tx y) in
    Alcotest.(check bool) "no write skew" true (total >= 0)
  done

(* --- timestamp extension and conflicts ---------------------------------- *)

(* Run [reader] in one virtual thread while [writer] runs between the
   reader's two phases, positioned by virtual-time delays. *)
let staged_run reader writer =
  let (), _ =
    Sim.run (fun () ->
        let a = Sim.spawn reader in
        let b =
          Sim.spawn (fun () ->
              Sim.tick 200;
              writer ())
        in
        Sim.join a;
        Sim.join b)
  in
  ()

let test_extension_avoids_abort () =
  let stm = S.create () in
  let a = S.tvar stm 0 and b = S.tvar stm 0 in
  let observed = ref (-1) in
  staged_run
    (fun () ->
      S.atomically stm (fun tx ->
          ignore (S.read tx a);
          Sim.tick 1000;
          (* b was committed meanwhile: version > rv, extension kicks
             in because a is untouched. *)
          observed := S.read tx b))
    (fun () -> S.atomically stm (fun tx -> S.write tx b 9));
  Alcotest.(check int) "read the new value" 9 !observed;
  let st = S.stats stm in
  Alcotest.(check bool) "extension happened" true (st.S.extensions >= 1);
  Alcotest.(check int) "no aborts" 0 st.S.aborts

let test_conflict_aborts_and_retries () =
  let stm = S.create () in
  let a = S.tvar stm 0 and b = S.tvar stm 0 in
  let sum = ref (-1) in
  staged_run
    (fun () ->
      S.atomically stm (fun tx ->
          let va = S.read tx a in
          Sim.tick 1000;
          (* Both a and b updated behind our back: extension fails,
             abort, and the retry sees the consistent new state. *)
          sum := va + S.read tx b))
    (fun () ->
      S.atomically stm (fun tx ->
          S.write tx a 10;
          S.write tx b 10));
  Alcotest.(check int) "retry read consistent state" 20 !sum;
  let st = S.stats stm in
  Alcotest.(check bool) "a read-invalid abort happened" true
    (st.S.read_invalid >= 1)

let test_commit_validation_catches_conflict () =
  (* The writer commits while the reader-updater still holds its old
     read: commit-time validation must abort the first attempt. *)
  let stm = S.create () in
  let a = S.tvar stm 0 and out = S.tvar stm 0 in
  staged_run
    (fun () ->
      S.atomically stm (fun tx ->
          let va = S.read tx a in
          Sim.tick 1000;
          S.write tx out (va + 1)))
    (fun () -> S.atomically stm (fun tx -> S.write tx a 5));
  Alcotest.(check int) "final out from fresh read" 6
    (S.atomically stm (fun tx -> S.read tx out));
  Alcotest.(check bool) "first attempt aborted" true
    ((S.stats stm).S.aborts >= 1)

(* --- elastic ------------------------------------------------------------ *)

let test_elastic_cut_tolerates_old_updates () =
  (* Elastic parse x1 x2 x3 (window 2), then x1 is overwritten together
     with b; reading b forces a cut, which succeeds because x1 has
     left the window.  A classic transaction aborts in the same
     scenario (checked below). *)
  let scenario sem =
    let stm = S.create () in
    let xs = Array.init 3 (fun _ -> S.tvar stm 0) in
    let b = S.tvar stm 0 in
    staged_run
      (fun () ->
        S.atomically stm ~sem (fun tx ->
            Array.iter (fun x -> ignore (S.read tx x)) xs;
            Sim.tick 1000;
            ignore (S.read tx b)))
      (fun () ->
        S.atomically stm (fun tx ->
            S.write tx xs.(0) 1;
            S.write tx b 1));
    S.stats stm
  in
  let elastic = scenario Semantics.Elastic in
  Alcotest.(check int) "elastic: no aborts" 0 elastic.S.aborts;
  Alcotest.(check bool) "elastic: cut happened" true (elastic.S.cuts >= 1);
  let classic = scenario Semantics.Classic in
  Alcotest.(check bool) "classic: aborted instead" true (classic.S.aborts >= 1)

let test_elastic_window_break_aborts () =
  (* The overwritten location is still inside the window: the cut is
     inconsistent and the elastic transaction must abort once. *)
  let stm = S.create () in
  let x = S.tvar stm 0 and b = S.tvar stm 0 in
  staged_run
    (fun () ->
      S.atomically stm ~sem:Semantics.Elastic (fun tx ->
          ignore (S.read tx x);
          Sim.tick 1000;
          ignore (S.read tx b)))
    (fun () ->
      S.atomically stm (fun tx ->
          S.write tx x 1;
          S.write tx b 1));
  Alcotest.(check bool) "window-broken abort" true
    ((S.stats stm).S.window_broken >= 1)

let test_elastic_write_closes_transaction () =
  (* After its first write an elastic transaction validates reads
     classically: a conflicting update after the write aborts it. *)
  let stm = S.create () in
  let x = S.tvar stm 0 and y = S.tvar stm 0 and b = S.tvar stm 0 in
  staged_run
    (fun () ->
      S.atomically stm ~sem:Semantics.Elastic (fun tx ->
          ignore (S.read tx x);
          S.write tx y 1;
          let before = S.read tx b in
          Sim.tick 1000;
          (* x changes now; reading b again must not cut. *)
          let after = S.read tx b in
          ignore (before + after)))
    (fun () ->
      S.atomically stm (fun tx ->
          S.write tx x 7;
          S.write tx b 7));
  let st = S.stats stm in
  Alcotest.(check int) "no cuts after a write" 0 st.S.cuts;
  Alcotest.(check bool) "aborted classically" true (st.S.read_invalid >= 1)

let test_elastic_read_only_commits () =
  let stm = S.create () in
  let v = S.tvar stm 3 in
  let r = S.atomically stm ~sem:Semantics.Elastic (fun tx -> S.read tx v) in
  Alcotest.(check int) "value" 3 r;
  Alcotest.(check int) "committed" 1 (S.stats stm).S.commits

(* --- snapshot ----------------------------------------------------------- *)

let test_snapshot_reads_consistent_past () =
  (* The snapshot starts before an update of (a, b); reading a first,
     then b after the update commits, must yield the OLD b to stay
     consistent with the old a. *)
  let stm = S.create () in
  let a = S.tvar stm 1 and b = S.tvar stm 1 in
  let pair = ref (0, 0) in
  staged_run
    (fun () ->
      S.atomically stm ~sem:Semantics.Snapshot (fun tx ->
          let va = S.read tx a in
          Sim.tick 1000;
          let vb = S.read tx b in
          pair := (va, vb)))
    (fun () ->
      S.atomically stm (fun tx ->
          S.write tx a 2;
          S.write tx b 2));
  Alcotest.(check (pair int int)) "old consistent pair" (1, 1) !pair;
  let st = S.stats stm in
  Alcotest.(check bool) "served from backup version" true (st.S.stale_reads >= 1);
  Alcotest.(check int) "snapshot did not abort" 0 st.S.aborts

let test_snapshot_never_aborts_updates () =
  (* Updaters keep committing at full speed while a snapshot runs: the
     updater must see zero aborts (cf. Section 5.1: snapshot size never
     invalidates add/remove). *)
  let stm = S.create () in
  let xs = Array.init 4 (fun _ -> S.tvar stm 0) in
  let (), _ =
    Sim.run (fun () ->
        let updater =
          Sim.spawn (fun () ->
              for i = 1 to 10 do
                S.atomically stm (fun tx -> S.write tx xs.(i mod 4) i)
              done)
        in
        let snapshotter =
          Sim.spawn (fun () ->
              for _ = 1 to 3 do
                ignore
                  (S.atomically stm ~sem:Semantics.Snapshot (fun tx ->
                       Array.fold_left (fun acc x -> acc + S.read tx x) 0 xs))
              done)
        in
        Sim.join updater;
        Sim.join snapshotter)
  in
  let st = S.stats stm in
  Alcotest.(check int) "updaters never aborted" 0
    (st.S.read_invalid + st.S.lock_busy)

let test_snapshot_too_old_aborts_and_recovers () =
  (* Two successive updates exhaust both stored versions: a snapshot
     that started before them aborts, then succeeds on retry with a
     fresh upper bound. *)
  let stm = S.create () in
  let b = S.tvar stm 0 in
  let seen = ref (-1) in
  staged_run
    (fun () ->
      S.atomically stm ~sem:Semantics.Snapshot (fun tx ->
          Sim.tick 2000;
          seen := S.read tx b))
    (fun () ->
      S.atomically stm (fun tx -> S.write tx b 1);
      S.atomically stm (fun tx -> S.write tx b 2));
  Alcotest.(check int) "retry read latest" 2 !seen;
  Alcotest.(check bool) "snapshot-too-old abort" true
    ((S.stats stm).S.snapshot_too_old >= 1)

let test_version_depth_one_disables_multiversion () =
  (* versions=1: the first concurrent update forces the snapshot to
     retry (no backup to fall back on); it still completes with a
     fresh upper bound. *)
  let stm = S.create ~versions:1 () in
  let a = S.tvar stm 1 and b = S.tvar stm 1 in
  let pair = ref (0, 0) in
  staged_run
    (fun () ->
      S.atomically stm ~sem:Semantics.Snapshot (fun tx ->
          let va = S.read tx a in
          Sim.tick 1000;
          let vb = S.read tx b in
          pair := (va, vb)))
    (fun () ->
      S.atomically stm (fun tx ->
          S.write tx a 2;
          S.write tx b 2));
  Alcotest.(check (pair int int)) "retried to the new state" (2, 2) !pair;
  let st = S.stats stm in
  Alcotest.(check bool) "aborted at least once" true
    (st.S.snapshot_too_old >= 1);
  Alcotest.(check int) "no stale reads possible" 0 st.S.stale_reads

let test_version_depth_four_survives_double_update () =
  (* The scenario that exhausts the paper's 2 versions (two successive
     updates during the snapshot) commits without retrying at k=4. *)
  let run versions =
    let stm = S.create ~versions () in
    let b = S.tvar stm 0 in
    let seen = ref (-1) in
    staged_run
      (fun () ->
        S.atomically stm ~sem:Semantics.Snapshot (fun tx ->
            Sim.tick 2000;
            seen := S.read tx b))
      (fun () ->
        S.atomically stm (fun tx -> S.write tx b 1);
        S.atomically stm (fun tx -> S.write tx b 2));
    ((S.stats stm).S.snapshot_too_old, !seen)
  in
  let aborts2, seen2 = run 2 in
  Alcotest.(check bool) "k=2 aborts on double update" true (aborts2 >= 1);
  Alcotest.(check int) "k=2 retries to latest" 2 seen2;
  let aborts4, seen4 = run 4 in
  Alcotest.(check int) "k=4 never aborts" 0 aborts4;
  Alcotest.(check int) "k=4 reads its consistent past" 0 seen4

(* A heap value whose only reference is the tvar it initialises,
   watched by [w]. *)
let[@inline never] watched_tvar stm w =
  let value = Bytes.make 64 'a' in
  Weak.set w 0 (Some value);
  S.tvar stm value

let test_write_without_snapshot_keeps_no_backup () =
  (* With no snapshot running, a write commit keeps no backup of what
     it overwrites: no snapshot that starts later can need it, so the
     old value is garbage as soon as the commit publishes. *)
  List.iter
    (fun algo ->
      let stm = S.create ~algo () in
      let w = Weak.create 1 in
      let v = watched_tvar stm w in
      S.atomically stm (fun tx -> S.write tx v (Bytes.make 64 'b'));
      Gc.full_major ();
      Alcotest.(check bool)
        (Printf.sprintf "%s: the overwritten value was collected"
           (match algo with `Tl2 -> "tl2" | `Norec -> "norec"))
        false (Weak.check w 0);
      Alcotest.(check char) "the new value is current" 'b'
        (Bytes.get (S.atomically stm (fun tx -> S.read tx v)) 0))
    [ `Tl2; `Norec ]

(* --- early release ------------------------------------------------------ *)

let test_early_release_avoids_false_conflict () =
  let scenario ~release =
    let stm = S.create () in
    let x = S.tvar stm 0 and b = S.tvar stm 0 and out = S.tvar stm 0 in
    staged_run
      (fun () ->
        S.atomically stm (fun tx ->
            ignore (S.read tx x);
            if release then S.release tx x;
            Sim.tick 1000;
            S.write tx out (S.read tx b)))
      (fun () ->
        S.atomically stm (fun tx ->
            S.write tx x 1;
            S.write tx b 1));
    (S.stats stm).S.aborts
  in
  Alcotest.(check int) "released: no abort" 0 (scenario ~release:true);
  Alcotest.(check bool) "kept: aborts" true (scenario ~release:false >= 1)

(* --- contention managers ------------------------------------------------ *)

let cm_workload cm seed =
  let stm = S.create ~cm () in
  let v = S.tvar stm 0 in
  let (), _ =
    Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
        R.parallel
          (List.init 4 (fun _ () ->
               for _ = 1 to 4 do
                 S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
               done)))
  in
  S.atomically stm (fun tx -> S.read tx v)

let test_contention_policies_all_correct () =
  List.iter
    (fun cm ->
      for seed = 1 to 8 do
        Alcotest.(check int)
          (Contention.to_string cm)
          16 (cm_workload cm seed)
      done)
    [
      Contention.Suicide;
      Contention.Backoff { base = 4; cap = 64 };
      Contention.Polite { spins = 8 };
      Contention.Greedy;
    ]

(* --- liveness: serial fallback, budgets, deadlines ----------------------- *)

let test_serial_fallback_guarantees_commit () =
  (* With a one-attempt budget every conflict abort exhausts it, so
     under the default [`Serialize] policy every increment must still
     land — via the token — and the books must balance: one serial
     commit per exhaustion, no [Too_many_attempts] anywhere. *)
  let total_serial = ref 0 in
  for seed = 1 to 8 do
    let stm = S.create ~max_attempts:1 () in
    let v = S.tvar stm 0 in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 4 (fun _ () ->
                 for _ = 1 to 4 do
                   S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
                 done)))
    in
    Alcotest.(check int)
      (Printf.sprintf "all increments commit (seed %d)" seed)
      16
      (S.atomically stm (fun tx -> S.read tx v));
    let st = S.stats stm in
    Alcotest.(check int)
      (Printf.sprintf "one serial commit per exhaustion (seed %d)" seed)
      st.S.budget_exhaustions st.S.serial_commits;
    Alcotest.(check bool)
      (Printf.sprintf "lock quiescent (seed %d)" seed)
      false (S.tvar_locked v);
    total_serial := !total_serial + st.S.serial_commits
  done;
  Alcotest.(check bool) "the fallback actually fired across seeds" true
    (!total_serial > 0)

let test_on_exhaustion_raise_restores_old_behaviour () =
  let escapes = ref 0 and committed = ref 0 in
  for seed = 1 to 8 do
    let stm = S.create ~max_attempts:1 ~on_exhaustion:`Raise () in
    let v = S.tvar stm 0 in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 4 (fun _ () ->
                 for _ = 1 to 4 do
                   try S.atomically stm (fun tx ->
                       S.write tx v (S.read tx v + 1))
                   with S.Too_many_attempts (_, 1) -> incr escapes
                 done)))
    in
    committed := !committed + S.atomically stm (fun tx -> S.read tx v);
    Alcotest.(check int)
      (Printf.sprintf "no serial commits under `Raise (seed %d)" seed)
      0 (S.stats stm).S.serial_commits
  done;
  Alcotest.(check bool) "some transactions were dropped" true (!escapes > 0);
  Alcotest.(check int) "every op either committed or escaped" (8 * 16)
    (!committed + !escapes)

let test_try_atomically_outcomes () =
  let stm = S.create ~max_attempts:100 () in
  let v = S.tvar stm 0 in
  (match S.try_atomically stm (fun tx -> S.write tx v 7; "ok") with
  | S.Committed s -> Alcotest.(check string) "committed result" "ok" s
  | _ -> Alcotest.fail "expected Committed");
  Alcotest.(check int) "committed write visible" 7
    (S.atomically stm (fun tx -> S.read tx v));
  (* Budget exhaustion comes back as data — never as an exception, and
     never via the serial fallback (which could not commit an explicit
     abort anyway). *)
  (match S.try_atomically ~budget:3 stm (fun tx -> S.abort tx) with
  | S.Exhausted { reason = S.Explicit; attempts = 3 } -> ()
  | _ -> Alcotest.fail "expected Exhausted{Explicit; 3}");
  let st = S.stats stm in
  Alcotest.(check int) "exhaustion counted" 1 st.S.budget_exhaustions;
  Alcotest.(check int) "no serial commit" 0 st.S.serial_commits;
  (* A deadline in the past is noticed at the first abort boundary. *)
  (match S.try_atomically ~deadline:0 stm (fun tx -> S.abort tx) with
  | S.Deadline_exceeded { reason = S.Explicit; attempts = 1 } -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded after one attempt");
  (* A deadline never interrupts a committing attempt. *)
  (match S.try_atomically ~deadline:0 stm (fun tx -> S.read tx v) with
  | S.Committed 7 -> ()
  | _ -> Alcotest.fail "expected Committed despite stale deadline");
  (* The same outcomes from a transaction spanning two instances: the
     cross-instance form runs the same loop, so a caller's budget is a
     hard limit there too, and its deadline is honoured. *)
  let s0 = S.create ~max_attempts:100 () in
  let s1 = S.create ~max_attempts:100 () in
  let a = S.tvar s0 0 and b = S.tvar s1 0 in
  let both = [ s0; s1 ] in
  (match
     S.try_atomically_multi both (fun () ->
         S.atomically s0 (fun tx -> S.write tx a 1);
         S.atomically s1 (fun tx -> S.write tx b 2);
         "ok")
   with
  | S.Committed s -> Alcotest.(check string) "2-member committed" "ok" s
  | _ -> Alcotest.fail "expected Committed (2 members)");
  Alcotest.(check (pair int int)) "both members' writes visible" (1, 2)
    ( S.atomically s0 (fun tx -> S.read tx a),
      S.atomically s1 (fun tx -> S.read tx b) );
  (match
     S.try_atomically_multi ~budget:3 both (fun () -> S.atomically s0 S.abort)
   with
  | S.Exhausted { reason = S.Explicit; attempts = 3 } -> ()
  | _ -> Alcotest.fail "expected Exhausted{Explicit; 3} (2 members)");
  List.iter
    (fun stm ->
      let st = S.stats stm in
      Alcotest.(check int) "member exhaustion counted" 1
        st.S.budget_exhaustions;
      Alcotest.(check int) "no member escalation" 0 st.S.multi_escalations)
    both;
  (match
     S.try_atomically_multi ~deadline:0 both (fun () -> S.atomically s0 S.abort)
   with
  | S.Deadline_exceeded { reason = S.Explicit; attempts = 1 } -> ()
  | _ -> Alcotest.fail "expected Deadline_exceeded (2 members)")

let test_budget_overrides_max_attempts () =
  let stm = S.create ~max_attempts:100 () in
  let raised =
    try S.atomically ~budget:2 stm (fun tx -> S.abort tx)
    with S.Too_many_attempts (S.Explicit, 2) -> true
  in
  Alcotest.(check bool) "per-call budget capped the retries" true raised;
  Alcotest.(check int) "two starts" 2 (S.stats stm).S.starts

let test_serial_fallback_respects_hooks () =
  (* A transaction that escalates to the serial fallback must still run
     its finalisers exactly once, after the token is released (a hook
     may itself run a transaction, which would deadlock against a
     still-held token). *)
  let fired = ref 0 in
  for seed = 1 to 8 do
    let stm = S.create ~max_attempts:1 () in
    let v = S.tvar stm 0 in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 3 (fun _ () ->
                 for _ = 1 to 3 do
                   S.atomically stm (fun tx ->
                       S.on_cleanup tx (fun () ->
                           (* re-entering the STM from the hook: must
                              not deadlock on the serial token *)
                           incr fired;
                           ignore (S.atomically stm (fun tx -> S.read tx v)));
                       S.write tx v (S.read tx v + 1))
                 done)))
    in
    Alcotest.(check int)
      (Printf.sprintf "all committed (seed %d)" seed)
      9
      (S.atomically stm (fun tx -> S.read tx v))
  done;
  Alcotest.(check bool) "finalisers ran" true (!fired >= 8 * 9)

(* --- the Greedy spin-loop kill regression -------------------------------- *)

(* The mutual-wait schedule from the bug report, pinned by virtual-time
   delays under the deterministic event-driven scheduler:

     V (serial 0, oldest)    increments A;
     X (serial 1)            increments A and Z;
     W (serial 2, youngest)  increments C1..Cn and Z — a wide write
                             set whose highest-id lock, Z, stays held
                             from the end of its acquisition phase to
                             the end of its write-back.

   Tuned so that X enters commit, locks A, and starts waiting on Z
   just after W passed its commit-time kill check; being older than W,
   X requests W's death (a no-op — W already checked) and keeps
   waiting.  V then arrives at A, finds it locked by X, exhausts its
   spin budget and — oldest of all — kills X, then waits for A.

   That is the mutual wait: V waits on X's lock while X, already
   killed, waits behind W.  The fixed spin loop checks the victim's
   own flag each iteration, so X aborts [Killed] at once and V's read
   of A completes within a few ticks of the kill.  The pre-fix loop
   only consulted the flag at commit time: X kept spinning for W's
   whole write-back window, V stalled behind it for hundreds of ticks,
   and the abort was only attributed at the very end.  The stall is
   the observable: [v_done] (the virtual time at which V's read of A
   finally returned) blows past [stall_bound] on the pre-fix code. *)
let greedy_spin_kill_scenario ~n_hot ~body_v ~body_x =
  let stm = S.create ~cm:Contention.Greedy () in
  let a = S.tvar stm 0 in
  let cs = Array.init n_hot (fun _ -> S.tvar stm 0) in
  let z = S.tvar stm 0 in
  let incr tx v = S.write tx v (S.read tx v + 1) in
  let v_done = ref (-1) in
  let (), _ =
    Sim.run (fun () ->
        R.parallel
          [
            (fun () ->
              (* V: oldest; delays inside its body so its read of A
                 lands while X holds A's lock. *)
              S.atomically stm (fun tx ->
                  Sim.tick body_v;
                  let va = S.read tx a in
                  if !v_done < 0 then v_done := Sim.now ();
                  S.write tx a (va + 1)));
            (fun () ->
              Sim.tick 1;
              (* X: middle age; locks A, then waits on Z behind W. *)
              S.atomically stm (fun tx ->
                  Sim.tick body_x;
                  incr tx a;
                  incr tx z));
            (fun () ->
              Sim.tick 2;
              (* W: youngest; Z is its highest lock id, so Z stays
                 locked for the entire write-back. *)
              S.atomically stm (fun tx ->
                  Array.iter (incr tx) cs;
                  incr tx z));
          ])
  in
  let final name v expect =
    Alcotest.(check int) name expect (S.atomically stm (fun tx -> S.read tx v))
  in
  final "a: both increments survive" a 2;
  final "z: both increments survive" z 2;
  (S.stats stm, !v_done)

let test_greedy_spin_loop_observes_kill () =
  (* Delays tuned so V reaches A two ticks into X's wait on Z; on the
     fixed code V's read completes at tick ~316, on the pre-fix code
     only at ~429 (after W's whole write-back).  370 splits the two
     with ~55 ticks of margin on either side. *)
  let stall_bound = 370 in
  let st, v_done =
    greedy_spin_kill_scenario ~n_hot:40 ~body_v:295 ~body_x:275
  in
  Alcotest.(check bool)
    (Format.asprintf "victim aborted Killed (stats: %a)" S.pp_stats st)
    true (st.S.killed >= 1);
  Alcotest.(check bool)
    (Printf.sprintf
       "killer unblocked promptly (v_done=%d, bound=%d): the victim must \
        notice its own kill while spinning, not at commit time"
       v_done stall_bound)
    true
    (v_done >= 0 && v_done < stall_bound)

(* --- exhaustive model checking ------------------------------------------ *)

let test_stm_elastic_vs_classic_model_checked () =
  (* An elastic read-only parse concurrent with a classic update:
     under every schedule the parse must return one of the sums a
     serial piece-wise execution could produce. *)
  let program () =
    let stm = S.create ~cm:Contention.Suicide () in
    let a = S.tvar stm 0 and b = S.tvar stm 0 in
    let parser_sum = ref 0 in
    let t1 =
      Sim.spawn (fun () ->
          parser_sum :=
            S.atomically stm ~sem:Semantics.Elastic (fun tx ->
                S.read tx a + S.read tx b))
    in
    let t2 =
      Sim.spawn (fun () ->
          S.atomically stm (fun tx ->
              S.write tx a 1;
              S.write tx b 1))
    in
    Sim.join t1;
    Sim.join t2;
    (* A cut between the two reads may observe (0,1); the atomic pairs
       (0,0) and (1,1) are sums 0 and 2; (1,0) — new a, old b — is
       impossible because the writer commits both together and the
       elastic window catches the inversion. *)
    assert (List.mem !parser_sum [ 0; 1; 2 ])
  in
  let outcome =
    Polytm_runtime.Explore.check ~max_executions:40_000 ~max_depth:40
      ~step_limit:600 program
  in
  Alcotest.(check bool) "explored schedules" true
    (outcome.Polytm_runtime.Explore.executions > 100)

(* --- recorded histories vs the formal checkers -------------------------- *)

let to_history events aborted =
  let open Polytm_history in
  History.make ~aborted
    (List.map
       (fun e ->
         {
           History.tx = e.S.rec_tx;
           action =
             (if e.S.rec_write then History.Write e.S.rec_loc
              else History.Read e.S.rec_loc);
         })
       events)

let test_recorded_histories_are_opaque () =
  (* Random concurrent classic transactions over 3 variables: every
     recorded history must satisfy the opacity checker. *)
  for seed = 1 to 12 do
    let stm = S.create () in
    let vars = Array.init 3 (fun _ -> S.tvar stm 0) in
    S.record stm true;
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 3 (fun t () ->
                 let rng = Polytm_util.Rng.create (seed * 31 + t) in
                 for _ = 1 to 3 do
                   S.atomically stm (fun tx ->
                       let a = vars.(Polytm_util.Rng.int rng 3)
                       and b = vars.(Polytm_util.Rng.int rng 3) in
                       let v = S.read tx a in
                       if Polytm_util.Rng.bool rng then S.write tx b (v + 1))
                 done)))
    in
    S.record stm false;
    let h = to_history (S.recorded_events stm) (S.recorded_aborted stm) in
    Alcotest.(check bool)
      (Printf.sprintf "opaque (seed %d)" seed)
      true
      (Polytm_history.Opacity.accepts h)
  done

let test_recorded_elastic_histories_accepted () =
  (* Elastic parses mixed with classic updates: recorded histories must
     satisfy the elastic-opacity checker with the elastic serials cut. *)
  for seed = 1 to 12 do
    let stm = S.create () in
    let vars = Array.init 4 (fun _ -> S.tvar stm 0) in
    S.record stm true;
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            [
              (fun () ->
                for _ = 1 to 2 do
                  ignore
                    (S.atomically stm ~sem:Semantics.Elastic (fun tx ->
                         Array.fold_left (fun acc v -> acc + S.read tx v) 0 vars))
                done);
              (fun () ->
                let rng = Polytm_util.Rng.create seed in
                for _ = 1 to 3 do
                  S.atomically stm (fun tx ->
                      let v = vars.(Polytm_util.Rng.int rng 4) in
                      S.write tx v (S.read tx v + 1))
                done);
            ])
    in
    S.record stm false;
    let events = S.recorded_events stm in
    let elastic_serials =
      List.sort_uniq compare
        (List.filter_map
           (fun e ->
             if e.S.rec_sem = Semantics.Elastic then Some e.S.rec_tx else None)
           events)
    in
    let h = to_history events (S.recorded_aborted stm) in
    Alcotest.(check bool)
      (Printf.sprintf "elastic-opaque (seed %d)" seed)
      true
      (Polytm_history.Elastic.accepts ~elastic:elastic_serials h)
  done

let suite =
  ( "stm",
    [
      Alcotest.test_case "semantics module" `Quick test_semantics_module;
      Alcotest.test_case "contention module" `Quick test_contention_module;
      Alcotest.test_case "contention backoff edges" `Quick
        test_contention_backoff_edges;
      Alcotest.test_case "contention validation" `Quick
        test_contention_validation;
      Alcotest.test_case "contention adaptive ladder" `Quick
        test_contention_adaptive_ladder;
      Alcotest.test_case "tvar ids unique" `Quick test_tvar_ids_unique;
      Alcotest.test_case "read/write/commit" `Quick test_read_write_commit;
      Alcotest.test_case "read own write" `Quick test_read_own_write;
      Alcotest.test_case "last write wins" `Quick test_multiple_writes_last_wins;
      Alcotest.test_case "exception discards effects" `Quick
        test_exception_discards_effects;
      Alcotest.test_case "explicit abort exhausts" `Quick
        test_explicit_abort_exhausts_attempts;
      Alcotest.test_case "orelse first succeeds" `Quick test_orelse_first_succeeds;
      Alcotest.test_case "orelse falls through" `Quick test_orelse_falls_through;
      Alcotest.test_case "orelse nests" `Quick test_orelse_nested_alternatives;
      Alcotest.test_case "nested atomically flattens" `Quick
        test_nested_atomically_flattens;
      Alcotest.test_case "escaped tx rejected" `Quick test_tx_escape_detected;
      Alcotest.test_case "escaped handle stays dead across calls" `Quick
        test_escaped_handle_dead_across_calls;
      Alcotest.test_case "what one call allocates" `Quick test_call_allocation;
      Alcotest.test_case "snapshot write rejected" `Quick
        test_snapshot_write_rejected;
      Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
      Alcotest.test_case "concurrent increments atomic" `Quick
        test_concurrent_increments_atomic;
      Alcotest.test_case "bank conservation" `Quick test_bank_conservation;
      Alcotest.test_case "write skew prevented" `Quick test_write_skew_prevented;
      Alcotest.test_case "extension avoids abort" `Quick test_extension_avoids_abort;
      Alcotest.test_case "conflict aborts and retries" `Quick
        test_conflict_aborts_and_retries;
      Alcotest.test_case "commit validation" `Quick
        test_commit_validation_catches_conflict;
      Alcotest.test_case "elastic cut tolerates old updates" `Quick
        test_elastic_cut_tolerates_old_updates;
      Alcotest.test_case "elastic window break aborts" `Quick
        test_elastic_window_break_aborts;
      Alcotest.test_case "elastic write closes" `Quick
        test_elastic_write_closes_transaction;
      Alcotest.test_case "elastic read-only commits" `Quick
        test_elastic_read_only_commits;
      Alcotest.test_case "snapshot consistent past" `Quick
        test_snapshot_reads_consistent_past;
      Alcotest.test_case "snapshot never aborts updates" `Quick
        test_snapshot_never_aborts_updates;
      Alcotest.test_case "snapshot too old recovers" `Quick
        test_snapshot_too_old_aborts_and_recovers;
      Alcotest.test_case "versions=1 disables multiversion" `Quick
        test_version_depth_one_disables_multiversion;
      Alcotest.test_case "versions=4 survives double update" `Quick
        test_version_depth_four_survives_double_update;
      Alcotest.test_case "a write with no snapshot running keeps no backup"
        `Quick test_write_without_snapshot_keeps_no_backup;
      Alcotest.test_case "early release" `Quick
        test_early_release_avoids_false_conflict;
      Alcotest.test_case "contention policies correct" `Quick
        test_contention_policies_all_correct;
      Alcotest.test_case "serial fallback guarantees commit" `Quick
        test_serial_fallback_guarantees_commit;
      Alcotest.test_case "on_exhaustion `Raise" `Quick
        test_on_exhaustion_raise_restores_old_behaviour;
      Alcotest.test_case "try_atomically outcomes" `Quick
        test_try_atomically_outcomes;
      Alcotest.test_case "budget overrides max_attempts" `Quick
        test_budget_overrides_max_attempts;
      Alcotest.test_case "serial fallback runs hooks" `Quick
        test_serial_fallback_respects_hooks;
      Alcotest.test_case "greedy spin loop observes kill" `Quick
        test_greedy_spin_loop_observes_kill;
      Alcotest.test_case "elastic parse model-checked" `Quick
        test_stm_elastic_vs_classic_model_checked;
      Alcotest.test_case "recorded histories opaque" `Quick
        test_recorded_histories_are_opaque;
      Alcotest.test_case "recorded elastic histories accepted" `Quick
        test_recorded_elastic_histories_accepted;
    ] )
