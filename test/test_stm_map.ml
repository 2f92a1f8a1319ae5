(* Tests for the transactional AVL map: model-based equivalence with
   Stdlib.Map, structural invariants after every operation (qcheck),
   concurrent correctness, and snapshot-consistent iteration. *)

module R = Polytm_runtime.Sim_runtime
module Sim = Polytm_runtime.Sim
module S = Polytm.Stm.Make (Polytm_runtime.Sim_runtime)
module M = Polytm_structs.Stm_map.Make (S)
module IMap = Map.Make (Int)

let test_basic () =
  let stm = S.create () in
  let m = M.create stm in
  Alcotest.(check bool) "fresh add" true (M.add m 5 "five");
  Alcotest.(check bool) "replace" false (M.add m 5 "FIVE");
  Alcotest.(check (option string)) "find" (Some "FIVE") (M.find_opt m 5);
  Alcotest.(check bool) "mem" true (M.mem m 5);
  Alcotest.(check bool) "remove" true (M.remove m 5);
  Alcotest.(check bool) "remove again" false (M.remove m 5);
  Alcotest.(check (option string)) "gone" None (M.find_opt m 5)

let test_ordered_iteration () =
  let stm = S.create () in
  let m = M.create stm in
  List.iter (fun k -> ignore (M.add m k (k * 10))) [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list (pair int int))) "sorted pairs"
    [ (1, 10); (3, 30); (5, 50); (7, 70); (9, 90) ]
    (M.to_list m);
  Alcotest.(check int) "size" 5 (M.size m)

(* Keys from a narrow range under a remove-heavy mix keep a tree of a
   few dozen keys churning, so two-child deletes and double rotations
   both occur; the structure and the contents are checked after every
   operation, so a retrace that stops too early fails at the op that
   broke it. *)
let model_property =
  QCheck.Test.make ~name:"stm_map behaves like Map.Make(Int)" ~count:120
    QCheck.(
      list_of_size Gen.(0 -- 200)
        (pair (int_range 0 9) (int_range 0 63)))
    (fun ops ->
      let stm = S.create () in
      let m = M.create stm in
      let model = ref IMap.empty in
      List.for_all
        (fun (op, k) ->
          (if op < 4 then begin
             let expected = not (IMap.mem k !model) in
             model := IMap.add k (k * 2) !model;
             M.add m k (k * 2) = expected
           end
           else if op < 9 then begin
             let expected = IMap.mem k !model in
             model := IMap.remove k !model;
             M.remove m k = expected
           end
           else M.find_opt m k = IMap.find_opt k !model)
          && M.invariants_hold m
          && M.to_list m = IMap.bindings !model)
        ops)

let balance_property =
  (* After any sequence of inserts, the tree height is logarithmic and
     the AVL invariants hold. *)
  QCheck.Test.make ~name:"stm_map stays AVL-balanced" ~count:60
    QCheck.(list_of_size Gen.(1 -- 120) (int_range 0 1000))
    (fun keys ->
      let stm = S.create () in
      let m = M.create stm in
      List.iter (fun k -> ignore (M.add m k k)) keys;
      M.invariants_hold m)

let test_concurrent_disjoint () =
  for seed = 1 to 8 do
    let stm = S.create () in
    let m = M.create stm in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 3 (fun t () ->
                 for i = 0 to 7 do
                   ignore (M.add m ((i * 3) + t) t)
                 done)))
    in
    Alcotest.(check int) "24 keys" 24 (M.size m);
    Alcotest.(check bool) "invariants" true (M.invariants_hold m)
  done

let test_concurrent_contended () =
  for seed = 1 to 8 do
    let stm = S.create () in
    let m = M.create stm in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          R.parallel
            (List.init 3 (fun t () ->
                 let rng = Polytm_util.Rng.create (seed * 7 + t) in
                 for _ = 1 to 12 do
                   let k = Polytm_util.Rng.int rng 10 in
                   if Polytm_util.Rng.bool rng then ignore (M.add m k t)
                   else ignore (M.remove m k)
                 done)))
    in
    Alcotest.(check bool) "invariants after contention" true
      (M.invariants_hold m);
    let l = M.to_list m in
    Alcotest.(check int) "size consistent" (List.length l) (M.size m)
  done

let test_snapshot_iteration_consistent () =
  (* A snapshot-profile map: iteration sees a count-invariant state
     while a mover re-keys entries, and the mover is never aborted. *)
  for seed = 1 to 6 do
    let stm = S.create () in
    let m = M.create ~size_sem:Polytm.Semantics.Snapshot stm in
    let n = 10 in
    for i = 0 to n - 1 do
      ignore (M.add m i i)
    done;
    let bad = ref 0 in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          let mover =
            Sim.spawn (fun () ->
                for i = 0 to n - 1 do
                  S.atomically stm (fun _tx ->
                      ignore (M.remove m i);
                      ignore (M.add m (100 + i) i))
                done)
          in
          let observer =
            Sim.spawn (fun () ->
                for _ = 1 to 5 do
                  if M.size m <> n then incr bad
                done)
          in
          Sim.join mover;
          Sim.join observer)
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: snapshot size always %d" seed n)
      0 !bad;
    Alcotest.(check int) "no updater aborts from snapshots" 0
      ((S.stats stm).S.read_invalid + (S.stats stm).S.lock_busy)
  done

let test_invariant_violation_aborts_not_crashes () =
  (* A corrupt-structure detection ([Invariant_violation]) raised
     mid-operation must travel the abort path: the transaction's
     buffered effects are discarded, its locks are released, and the
     exception surfaces to the caller typed — the process survives and
     the instance stays fully usable.  The raise site itself guards a
     state unreachable without genuine memory corruption (the
     transaction rereads the same tvars), so the injection raises the
     exception from inside a transaction that has already buffered map
     writes — exactly the state a detected corruption would abort
     from. *)
  let stm = S.create () in
  let m = M.create stm in
  List.iter (fun k -> ignore (M.add m k (k * 10))) [ 5; 1; 9; 3; 7 ];
  (match
     S.atomically stm (fun _tx ->
         (* flattens into this transaction: buffered, not yet visible *)
         ignore (M.add m 42 420);
         ignore (M.remove m 5);
         raise
           (Polytm_structs.Stm_map.Invariant_violation "injected corruption"))
   with
  | () -> Alcotest.fail "injected violation should have raised"
  | exception Polytm_structs.Stm_map.Invariant_violation m ->
      Alcotest.(check string) "typed exception surfaces" "injected corruption"
        m);
  Alcotest.(check (option int)) "buffered add discarded" None
    (M.find_opt m 42);
  Alcotest.(check (option int)) "buffered remove discarded" (Some 50)
    (M.find_opt m 5);
  Alcotest.(check bool) "tree invariants intact" true (M.invariants_hold m);
  (* No lock survives the abort: a fresh transaction commits. *)
  Alcotest.(check bool) "instance usable afterwards" true (M.add m 42 420);
  Alcotest.(check int) "size reflects only committed ops" 6 (M.size m)

(* An insert or delete retraces only while subtree heights change,
   which on a random AVL tree is a level or two on average: its read
   set is the search path plus a handful of cells, not every ancestor's
   children and heights.  Replay and every live PUT and DEL pay this
   read set, and every read is logged, validated at commit and able to
   conflict. *)
let test_update_read_sets () =
  let stm = S.create () in
  let m = M.create stm in
  let rng = Polytm_util.Rng.create Test_seed.seed in
  let keys = Array.init 4096 Fun.id in
  for i = Array.length keys - 1 downto 1 do
    let j = Polytm_util.Rng.int rng (i + 1) in
    let x = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- x
  done;
  (* [keys.(0 .. 2047)] are present, the rest absent. *)
  for i = 0 to 2047 do
    ignore (M.add m keys.(i) i)
  done;
  (* Read-set sizes and commit counts, for inserts and for deletes. *)
  let ins = [| 0; 0 |] and del = [| 0; 0 |] in
  let into = ref ins in
  S.set_sink stm
    (Some
       {
         Polytm_telemetry.emit =
           (fun e ->
             match e.Polytm_telemetry.kind with
             | Polytm_telemetry.Commit { reads; _ } ->
                 !into.(0) <- !into.(0) + reads;
                 !into.(1) <- !into.(1) + 1
             | _ -> ());
       });
  (* Alternate, so the map stays at about 2,048 keys. *)
  for i = 0 to 999 do
    into := ins;
    if not (M.add m keys.(2048 + i) i) then Alcotest.fail "absent key bound";
    into := del;
    if not (M.remove m keys.(i)) then Alcotest.fail "present key unbound"
  done;
  S.set_sink stm None;
  Alcotest.(check bool) "still an AVL tree" true (M.invariants_hold m);
  Alcotest.(check int) "size" 2048 (M.size m);
  let bounded what c =
    let mean = float_of_int c.(0) /. float_of_int c.(1) in
    if mean > 40. then
      Alcotest.failf "%s: %.1f reads per commit (bound 40)" what mean
  in
  bounded "insert of an absent key" ins;
  bounded "delete of a present key" del

let suite =
  ( "stm-map",
    [
      Alcotest.test_case "basics" `Quick test_basic;
      Alcotest.test_case "invariant violation aborts, not crashes" `Quick
        test_invariant_violation_aborts_not_crashes;
      Alcotest.test_case "ordered iteration" `Quick test_ordered_iteration;
      Test_seed.to_alcotest model_property;
      Test_seed.to_alcotest balance_property;
      Alcotest.test_case "insert and delete read sets stay small" `Quick
        test_update_read_sets;
      Alcotest.test_case "concurrent disjoint" `Quick test_concurrent_disjoint;
      Alcotest.test_case "concurrent contended" `Quick test_concurrent_contended;
      Alcotest.test_case "snapshot iteration" `Quick
        test_snapshot_iteration_consistent;
    ] )
