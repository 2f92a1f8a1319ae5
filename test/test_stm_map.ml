(* Tests for the transactional fat-leaf map: model-based equivalence
   with Stdlib.Map, structural invariants after every operation
   (qcheck), concurrent correctness under every hint a client can send,
   growth and shrinkage through splits and unlinks, read-set sizes, and
   snapshot-consistent iteration. *)

module R = Polytm_runtime.Sim_runtime
module Sim = Polytm_runtime.Sim
module S = Polytm.Stm.Make (Polytm_runtime.Sim_runtime)
module M = Polytm_structs.Stm_map.Make (S)
module IMap = Map.Make (Int)
module Rng = Polytm_util.Rng

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

(* The structure and the contents are checked after every operation,
   so a split or an unlink that breaks the map fails at the op that
   broke it.  [adds] of every ten ops insert, the rest but one delete:
   keys from a narrow range under a remove-heavy mix keep a few dozen
   keys churning through leaf emptying, and an insert-heavy mix over a
   wider range grows the map through several splits. *)
let model_property_gen ~name ~count ~ops ~keys ~adds =
  QCheck.Test.make ~name ~count
    QCheck.(
      list_of_size Gen.(0 -- ops) (pair (int_range 0 9) (int_range 0 keys)))
    (fun ops ->
      let stm = S.create () in
      let m = M.create stm in
      let model = ref IMap.empty in
      List.for_all
        (fun (op, k) ->
          (if op < adds then begin
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

let model_property =
  model_property_gen ~name:"stm_map behaves like Map.Make(Int)" ~count:120
    ~ops:200 ~keys:63 ~adds:4

let model_split_property =
  model_property_gen ~name:"stm_map model across splits" ~count:60 ~ops:400
    ~keys:255 ~adds:7

let split_property =
  (* After any sequence of inserts, every split has left the leaves and
     the index consistent. *)
  QCheck.Test.make ~name:"stm_map splits keep invariants" ~count:60
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

(* A GET reads the index and one leaf; an insert or delete reads the
   same two, and a split or an unlink reads the index once more.
   Replay and every live GET, PUT and DEL pay this read set, and every
   read is logged, validated at commit and able to conflict. *)
let test_update_read_sets () =
  let stm = S.create () in
  let m = M.create stm in
  let rng = Rng.create Test_seed.seed in
  let keys = Array.init 4096 Fun.id in
  Rng.shuffle rng keys;
  (* [keys.(0 .. 2047)] are present, the rest absent. *)
  for i = 0 to 2047 do
    ignore (M.add m keys.(i) i)
  done;
  (* Read-set sizes and commit counts, for inserts, deletes and GETs. *)
  let ins = [| 0; 0 |] and del = [| 0; 0 |] and get = [| 0; 0 |] in
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
    if not (M.remove m keys.(i)) then Alcotest.fail "present key unbound";
    into := get;
    if M.find_opt m keys.(1024 + i) = None then
      Alcotest.fail "present key missed"
  done;
  S.set_sink stm None;
  Alcotest.(check bool) "invariants hold" true (M.invariants_hold m);
  Alcotest.(check int) "size" 2048 (M.size m);
  let bounded what bound c =
    let mean = float_of_int c.(0) /. float_of_int c.(1) in
    if mean > bound then
      Alcotest.failf "%s: %.2f reads per commit (bound %.0f)" what mean bound
  in
  bounded "insert of an absent key" 4. ins;
  bounded "delete of a present key" 4. del;
  bounded "GET of a present key" 3. get

(* A client's [~elastic] hint runs the map's operations as elastic
   transactions (flat nesting lets the outer label win), which validate
   at commit only their last [elastic_window] reads before their first
   write.  Four threads share a half-full 128-key map, and thread [t]
   owns the keys equal to [t] mod 4: each reply it gets has one right
   value, its own model's.  Returns what went wrong, if anything. *)
let elastic_hint_failure ~algo ~window seed =
  let stm = S.create ~algo ~elastic_window:window () in
  let m = M.create stm in
  let models = Array.make 4 IMap.empty in
  let rng = Rng.create seed in
  for k = 0 to 127 do
    if Rng.bool rng then begin
      ignore (M.add m k k);
      models.(k mod 4) <- IMap.add k k models.(k mod 4)
    end
  done;
  let elastic f =
    S.atomically ~sem:Polytm.Semantics.Elastic stm (fun _ -> f ())
  in
  let wrong = ref [] in
  match
    Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
        R.parallel
          (List.init 4 (fun t () ->
               let rng = Rng.create ((seed * 31) + t) in
               for i = 1 to 60 do
                 let k = (4 * Rng.int rng 32) + t and model = models.(t) in
                 let ok =
                   match Rng.int rng 3 with
                   | 0 ->
                       models.(t) <- IMap.add k i model;
                       elastic (fun () -> M.add m k i) = not (IMap.mem k model)
                   | 1 ->
                       models.(t) <- IMap.remove k model;
                       elastic (fun () -> M.remove m k) = IMap.mem k model
                   | _ ->
                       elastic (fun () -> M.find_opt m k)
                       = IMap.find_opt k model
                 in
                 if not ok then wrong := (t, i, k) :: !wrong
               done)))
  with
  | exception e -> Some (Printexc.to_string e)
  | _ -> (
      let expected =
        Array.fold_left (IMap.union (fun _ v _ -> Some v)) IMap.empty models
      in
      match !wrong with
      | (t, i, k) :: _ ->
          Some (Printf.sprintf "thread %d, op %d: wrong reply for key %d" t i k)
      | [] when not (M.invariants_hold m) -> Some "invariants broken"
      | [] when M.to_list m <> IMap.bindings expected -> Some "contents differ"
      | [] -> None)

let test_elastic_hint () =
  List.iter
    (fun (algo, name) ->
      List.iter
        (fun window ->
          let failed =
            List.filter_map
              (fun seed ->
                Option.map
                  (Printf.sprintf "seed %d: %s" seed)
                  (elastic_hint_failure ~algo ~window seed))
              (List.init 20 succ)
          in
          if failed <> [] then
            Alcotest.failf "%s, window %d: %s" name window
              (String.concat "; " failed))
        [ 2; 1 ])
    [ (`Tl2, "tl2"); (`Norec, "norec") ]

(* Four threads grow an empty map to 4,096 keys, each inserting its own
   residue class in a shuffled order, so leaves all along the range
   split under contention.  Every insert must answer "fresh", and a GET
   of a key the thread already inserted must never miss.  [within] runs
   the threads' [R.parallel]: in a seeded simulator run, or directly on
   domains. *)
module Growth (R : Polytm_runtime.Runtime_intf.RUNTIME) = struct
  module S = Polytm.Stm.Make (R)
  module M = Polytm_structs.Stm_map.Make (S)

  let run ~within ~algo ~sem seed =
    let stm = S.create ~algo () in
    let m = M.create stm in
    let misses = Atomic.make 0 in
    within (fun () ->
        R.parallel
          (List.init 4 (fun t () ->
               let rng = Rng.create ((seed * 31) + t) in
               let keys = Array.init 1024 (fun i -> (4 * i) + t) in
               Rng.shuffle rng keys;
               Array.iteri
                 (fun i k ->
                   if not (S.atomically ~sem stm (fun _ -> M.add m k k)) then
                     Atomic.incr misses;
                   let j = keys.(Rng.int rng (i + 1)) in
                   if S.atomically ~sem stm (fun _ -> M.find_opt m j) <> Some j
                   then Atomic.incr misses)
                 keys)));
    let what =
      Printf.sprintf "%s, %s, seed %d"
        (match algo with `Tl2 -> "tl2" | `Norec -> "norec")
        (Polytm.Semantics.to_string sem) seed
    in
    Alcotest.(check int) (what ^ ": fresh inserts, no missed GET") 0
      (Atomic.get misses);
    Alcotest.(check bool) (what ^ ": invariants") true (M.invariants_hold m);
    Alcotest.(check bool) (what ^ ": contents") true
      (M.to_list m = List.init 4096 (fun k -> (k, k)))

  let each f =
    List.iter
      (fun algo ->
        List.iter
          (fun sem -> f ~algo ~sem)
          Polytm.Semantics.[ Elastic; Classic ])
      [ `Tl2; `Norec ]
end

module Sim_growth = Growth (Polytm_runtime.Sim_runtime)
module Domain_growth = Growth (Polytm_runtime.Domain_runtime)

let test_growth_sim () =
  Sim_growth.each (fun ~algo ~sem ->
      List.iter
        (fun seed ->
          let within f = ignore (Sim.run ~policy:(Sim.Random_sched seed) f) in
          Sim_growth.run ~within ~algo ~sem seed)
        [ 1; 2; 3 ])

let test_growth_domains () =
  Domain_growth.each (fun ~algo ~sem ->
      Domain_growth.run ~within:(fun f -> f ()) ~algo ~sem 1)

(* A window of 1,000 keys slides over 200,000 ascending keys, then over
   as many descending ones: inserts fill the leaf at the window's front
   and split it, deletes empty the leaves behind and unlink them. *)
let test_sliding_windows () =
  List.iter
    (fun (dir, key) ->
      let stm = S.create () in
      let m = M.create stm in
      for i = 0 to 199_999 do
        if not (M.add m (key i) i) then Alcotest.failf "%s: %d not fresh" dir i;
        if i >= 1000 && not (M.remove m (key (i - 1000))) then
          Alcotest.failf "%s: %d not bound" dir (i - 1000)
      done;
      Alcotest.(check int) (dir ^ ": size") 1000 (M.size m);
      Alcotest.(check bool) (dir ^ ": invariants") true (M.invariants_hold m))
    [ ("ascending", Fun.id); ("descending", fun i -> 199_999 - i) ]

let suite =
  ( "stm-map",
    [
      Alcotest.test_case "basics" `Quick test_basic;
      Alcotest.test_case "invariant violation aborts, not crashes" `Quick
        test_invariant_violation_aborts_not_crashes;
      Alcotest.test_case "ordered iteration" `Quick test_ordered_iteration;
      Test_seed.to_alcotest model_property;
      Test_seed.to_alcotest model_split_property;
      Test_seed.to_alcotest split_property;
      Alcotest.test_case "insert and delete read sets stay small" `Quick
        test_update_read_sets;
      Alcotest.test_case "concurrent disjoint" `Quick test_concurrent_disjoint;
      Alcotest.test_case "concurrent contended" `Quick test_concurrent_contended;
      Alcotest.test_case "snapshot iteration" `Quick
        test_snapshot_iteration_consistent;
      Alcotest.test_case "an elastic hint cannot break it" `Quick
        test_elastic_hint;
      Alcotest.test_case "growth to 4,096 keys (simulator)" `Quick
        test_growth_sim;
      Alcotest.test_case "growth to 4,096 keys (domains)" `Quick
        test_growth_domains;
      Alcotest.test_case "sliding windows" `Quick test_sliding_windows;
    ] )
