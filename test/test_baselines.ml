(* Tests for the non-STM baselines: sequential model equivalence, and
   concurrent correctness under the simulator for the thread-safe ones
   (coarse, hand-over-hand, lazy, lock-free, copy-on-write).  The
   lock-free list additionally gets a bounded exhaustive model check
   of its minimal racy scenarios. *)

module R = Polytm_runtime.Sim_runtime
module Sim = Polytm_runtime.Sim
module Explore = Polytm_runtime.Explore
module A = Polytm_structs.Adapters
module AM = Polytm_structs.Adapters.Make (Polytm_runtime.Sim_runtime)

let all_impls : (string * (unit -> A.set)) list =
  [
    ("seq-list", AM.seq);
    ("coarse-lock-list", AM.coarse);
    ("hand-over-hand-list", AM.hand_over_hand);
    ("lazy-list", AM.lazy_list);
    ("lock-free-list", AM.lockfree);
    ("cow-array-set", AM.cow);
  ]

let concurrent_impls = List.tl all_impls

(* --- sequential model equivalence ---------------------------------------- *)

module ISet = Set.Make (Int)

let sequential_property (impl_name, make) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s behaves like Set.Make(Int)" impl_name)
    ~count:100
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (fun (op, v) ->
                Printf.sprintf "%s %d"
                  (match op with 0 -> "add" | 1 -> "remove" | _ -> "contains")
                  v)
              ops))
       QCheck.Gen.(
         list_size (int_range 0 60) (pair (int_range 0 2) (int_range 0 25))))
    (fun ops ->
      let s = make () in
      let ok = ref true in
      let model = ref ISet.empty in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 ->
              let expected = not (ISet.mem v !model) in
              model := ISet.add v !model;
              if s.A.add v <> expected then ok := false
          | 1 ->
              let expected = ISet.mem v !model in
              model := ISet.remove v !model;
              if s.A.remove v <> expected then ok := false
          | _ -> if s.A.contains v <> ISet.mem v !model then ok := false)
        ops;
      !ok
      && s.A.to_list () = ISet.elements !model
      && s.A.size () = ISet.cardinal !model)

(* --- concurrent correctness ---------------------------------------------- *)

let test_disjoint_threads () =
  List.iter
    (fun (impl_name, make) ->
      for seed = 1 to 5 do
        let s = make () in
        let threads = 3 and per = 8 in
        let (), _ =
          Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
              R.parallel
                (List.init threads (fun t () ->
                     for i = 0 to per - 1 do
                       let key = (i * threads) + t in
                       ignore (s.A.add key);
                       if i mod 3 = 0 then ignore (s.A.remove key)
                     done)))
        in
        let expected =
          List.concat_map
            (fun t ->
              List.filter_map
                (fun i ->
                  if i mod 3 = 0 then None else Some ((i * threads) + t))
                (List.init per Fun.id))
            (List.init threads Fun.id)
          |> List.sort compare
        in
        Alcotest.(check (list int))
          (Printf.sprintf "%s seed %d" impl_name seed)
          expected (s.A.to_list ())
      done)
    concurrent_impls

let test_contended_consistency () =
  List.iter
    (fun (impl_name, make) ->
      for seed = 1 to 5 do
        let s = make () in
        let (), _ =
          Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
              R.parallel
                (List.init 3 (fun t () ->
                     let rng = Polytm_util.Rng.create (seed * 13 + t) in
                     for _ = 1 to 10 do
                       let key = Polytm_util.Rng.int rng 6 in
                       if Polytm_util.Rng.bool rng then ignore (s.A.add key)
                       else ignore (s.A.remove key)
                     done)))
        in
        let l = s.A.to_list () in
        Alcotest.(check (list int))
          (Printf.sprintf "%s seed %d: sorted unique" impl_name seed)
          (List.sort_uniq compare l)
          l;
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d: size agrees at quiescence" impl_name seed)
          (List.length l) (s.A.size ());
        List.iter
          (fun v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: member %d" impl_name v)
              true (s.A.contains v))
          l
      done)
    concurrent_impls

(* The copy-on-write set is the only baseline whose size is an atomic
   snapshot: under count-preserving moves it must always read the
   exact count (the STM structures share this guarantee; the
   fine-grained lists do not — see the non-atomic-size test below). *)
let test_cow_size_atomic_under_moves () =
  for seed = 1 to 6 do
    let module C = AM.Cow in
    let t = C.create () in
    let n = 8 in
    for i = 0 to n - 1 do
      ignore (C.add t (2 * i))
    done;
    let violations = ref [] in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          let mover =
            Sim.spawn (fun () ->
                for i = 0 to n - 1 do
                  (* A move is NOT atomic on a COW set (two separate
                     copies), so move by add-then-remove and accept
                     size in {n, n+1} — never below n, never above n+1. *)
                  ignore (C.add t ((2 * i) + 1));
                  ignore (C.remove t (2 * i))
                done)
          in
          let observer =
            Sim.spawn (fun () ->
                for _ = 1 to 8 do
                  let k = C.size t in
                  if k < n || k > n + 1 then violations := k :: !violations;
                  Sim.yield ()
                done)
          in
          Sim.join mover;
          Sim.join observer)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: cow size within bounds" seed)
      [] !violations
  done

(* Demonstrate the paper's Section 3.3 motivation: a traversal-based
   size CAN observe a count that never corresponds to any atomic state
   when elements move around it.  We assert the *possibility* (at
   least one seed shows a tear) for the hand-over-hand list. *)
let test_hoh_size_not_atomic () =
  let module H = AM.Hoh in
  let tear_seen = ref false in
  let seed = ref 0 in
  while (not !tear_seen) && !seed < 400 do
    incr seed;
    let t = H.create () in
    let n = 6 in
    (* Elements 10,20,...; the mover repeatedly moves the SMALLEST
       element to the LARGEST position, hopping over the traversal. *)
    for i = 1 to n do
      ignore (H.add t (10 * i))
    done;
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched !seed) (fun () ->
          let mover =
            Sim.spawn (fun () ->
                for i = 1 to n do
                  ignore (H.remove t (10 * i));
                  ignore (H.add t ((10 * i) + 100))
                done)
          in
          let observer =
            Sim.spawn (fun () ->
                for _ = 1 to 4 do
                  if H.size t <> n then tear_seen := true
                done)
          in
          Sim.join mover;
          Sim.join observer)
    in
    ()
  done;
  Alcotest.(check bool) "a torn size was observed" true !tear_seen

(* --- bounded exhaustive checks for the lock-free list -------------------- *)

let test_lockfree_concurrent_adds_exhaustive () =
  let program () =
    let module L = AM.Lockfree in
    let t = L.create () in
    let t1 = Sim.spawn (fun () -> ignore (L.add t 1)) in
    let t2 = Sim.spawn (fun () -> ignore (L.add t 2)) in
    Sim.join t1;
    Sim.join t2;
    assert (L.to_list t = [ 1; 2 ])
  in
  let outcome =
    Explore.check ~max_executions:50_000 ~max_depth:40 ~step_limit:1_000 program
  in
  Alcotest.(check bool) "no truncation" false outcome.Explore.truncated

(* The program of [tmcheck explore lockfree-add-remove]: at these
   bounds no run is pruned and the cap is never reached. *)
let test_lockfree_add_remove_exhaustive () =
  let sc =
    Option.get (Polytm_bench_kit.Model_checks.find "lockfree-add-remove")
  in
  let outcome =
    Explore.check ~max_executions:50_000 ~max_depth:40 ~step_limit:1_000
      sc.program
  in
  Alcotest.(check bool) "no truncation" false outcome.Explore.truncated

let test_lockfree_adjacent_removes_exhaustive () =
  (* The schedule shape that broke the first elastic list draft: two
     adjacent removes.  The lock-free marks make it safe. *)
  let program () =
    let module L = AM.Lockfree in
    let t = L.create () in
    ignore (L.add t 1);
    ignore (L.add t 2);
    ignore (L.add t 3);
    let t1 = Sim.spawn (fun () -> ignore (L.remove t 1)) in
    let t2 = Sim.spawn (fun () -> ignore (L.remove t 2)) in
    Sim.join t1;
    Sim.join t2;
    assert (L.to_list t = [ 3 ])
  in
  let outcome =
    Explore.check ~max_executions:100_000 ~max_depth:50 ~step_limit:1_000
      program
  in
  Alcotest.(check bool) "no truncation" false outcome.Explore.truncated

let suite =
  ( "baselines",
    List.map (fun p -> Test_seed.to_alcotest (sequential_property p))
      all_impls
    @ [
        Alcotest.test_case "disjoint threads" `Quick test_disjoint_threads;
        Alcotest.test_case "contended consistency" `Quick
          test_contended_consistency;
        Alcotest.test_case "cow size atomic" `Quick
          test_cow_size_atomic_under_moves;
        Alcotest.test_case "hoh size not atomic" `Quick test_hoh_size_not_atomic;
        Alcotest.test_case "lockfree adds exhaustive" `Quick
          test_lockfree_concurrent_adds_exhaustive;
        Alcotest.test_case "lockfree add/remove exhaustive" `Quick
          test_lockfree_add_remove_exhaustive;
        Alcotest.test_case "lockfree adjacent removes exhaustive" `Quick
          test_lockfree_adjacent_removes_exhaustive;
      ] )
