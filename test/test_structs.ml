(* Tests for the transactional data structures: sequential
   model-based equivalence (qcheck), concurrent correctness under the
   simulator, atomic-size guarantees, and the composability showcase
   of Section 2.2. *)

module R = Polytm_runtime.Sim_runtime
module Sim = Polytm_runtime.Sim
module A = Polytm_structs.Adapters
module AM = Polytm_structs.Adapters.Make (Polytm_runtime.Sim_runtime)
open Polytm

let stm_impls : (string * (unit -> A.set)) list =
  [
    ("stm-list classic", fun () -> AM.stm_list (AM.S.create ()));
    ( "stm-list elastic",
      fun () -> AM.stm_list ~profile:A.elastic_classic_profile (AM.S.create ()) );
    ( "stm-list mixed",
      fun () -> AM.stm_list ~profile:A.mixed_profile (AM.S.create ()) );
    ( "stm-list elastic w8",
      fun () ->
        AM.stm_list ~profile:A.elastic_classic_profile
          (AM.S.create ~elastic_window:8 ()) );
    ("stm-hash classic", fun () -> AM.stm_hash (AM.S.create ()));
    ( "stm-hash mixed",
      fun () -> AM.stm_hash ~profile:A.mixed_profile (AM.S.create ()) );
    ("stm-skiplist classic", fun () -> AM.stm_skiplist (AM.S.create ()));
    ( "stm-skiplist mixed",
      fun () -> AM.stm_skiplist ~profile:A.mixed_profile (AM.S.create ()) );
  ]

(* --- sequential model-based testing ------------------------------------- *)

module ISet = Set.Make (Int)

type op = Add of int | Remove of int | Contains of int | Size

let apply_model (model, results) op =
  match op with
  | Add v -> (ISet.add v model, `B (not (ISet.mem v model)) :: results)
  | Remove v -> (ISet.remove v model, `B (ISet.mem v model) :: results)
  | Contains v -> (model, `B (ISet.mem v model) :: results)
  | Size -> (model, `I (ISet.cardinal model) :: results)

let apply_set (s : A.set) op =
  match op with
  | Add v -> `B (s.A.add v)
  | Remove v -> `B (s.A.remove v)
  | Contains v -> `B (s.A.contains v)
  | Size -> `I (s.A.size ())

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun v -> Add v) (int_range 0 30));
        (3, map (fun v -> Remove v) (int_range 0 30));
        (4, map (fun v -> Contains v) (int_range 0 30));
        (1, return Size);
      ])

let show_op = function
  | Add v -> Printf.sprintf "add %d" v
  | Remove v -> Printf.sprintf "remove %d" v
  | Contains v -> Printf.sprintf "contains %d" v
  | Size -> "size"

let sequential_property (impl_name, make) =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s behaves like Set.Make(Int)" impl_name)
    ~count:100
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    (fun ops ->
      let s = make () in
      let final_model, expected_rev =
        List.fold_left apply_model (ISet.empty, []) ops
      in
      let got_rev =
        List.fold_left (fun acc op -> apply_set s op :: acc) [] ops
      in
      expected_rev = got_rev && s.A.to_list () = ISet.elements final_model)

(* --- concurrent correctness --------------------------------------------- *)

(* Each thread owns a disjoint key range; the final contents must equal
   the union of each thread's sequential net effect. *)
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
    stm_impls

(* Threads fight over the same keys; afterwards the structure must be
   internally consistent: size = |to_list| and membership agrees. *)
let test_contended_consistency () =
  List.iter
    (fun (impl_name, make) ->
      for seed = 1 to 5 do
        let s = make () in
        let (), _ =
          Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
              R.parallel
                (List.init 3 (fun t () ->
                     let rng = Polytm_util.Rng.create (seed * 17 + t) in
                     for _ = 1 to 10 do
                       let key = Polytm_util.Rng.int rng 6 in
                       if Polytm_util.Rng.bool rng then ignore (s.A.add key)
                       else ignore (s.A.remove key)
                     done)))
        in
        let l = s.A.to_list () in
        Alcotest.(check int)
          (Printf.sprintf "%s seed %d: size consistent" impl_name seed)
          (List.length l) (s.A.size ());
        Alcotest.(check (list int))
          (Printf.sprintf "%s seed %d: sorted unique" impl_name seed)
          (List.sort_uniq compare l)
          l;
        List.iter
          (fun v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: member %d" impl_name v)
              true (s.A.contains v))
          l
      done)
    stm_impls

(* The atomic-size guarantee: with updaters preserving the total count
   (every step removes one key and adds another in one transaction),
   every concurrent size observation must equal the initial count.
   This is the invariant a hand-over-hand or lock-free size cannot
   give (Section 3.3), and it must hold for ALL profiles, including
   snapshot size. *)
let test_size_is_atomic_under_moves () =
  List.iter
    (fun (profile : A.profile) ->
      for seed = 1 to 6 do
        let stm = AM.S.create () in
        let module LS = AM.List_set in
        let t =
          LS.create ~parse_sem:profile.A.parse_sem ~size_sem:profile.A.size_sem
            stm
        in
        let n = 8 in
        for i = 0 to n - 1 do
          ignore (LS.add t (2 * i))
        done;
        let violations = ref [] in
        let (), _ =
          Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
              let mover =
                Sim.spawn (fun () ->
                    for i = 0 to n - 1 do
                      (* Atomically move 2i -> 2i+1: count invariant. *)
                      AM.S.atomically stm (fun _tx ->
                          ignore (LS.remove t (2 * i));
                          ignore (LS.add t ((2 * i) + 1)))
                    done)
              in
              let observer =
                Sim.spawn (fun () ->
                    for _ = 1 to 6 do
                      let k = LS.size t in
                      if k <> n then violations := k :: !violations
                    done)
              in
              Sim.join mover;
              Sim.join observer)
        in
        Alcotest.(check (list int))
          (Printf.sprintf "%s seed %d: every size saw %d" profile.A.profile_name
             seed n)
          [] !violations
      done)
    [ A.classic_profile; A.elastic_classic_profile; A.mixed_profile ]

(* Composition across hash-set buckets (Section 2.2): moving elements
   between buckets inside one outer transaction keeps the atomic size
   constant for every observer. *)
let test_hash_set_compose_moves () =
  for seed = 1 to 6 do
    let stm = AM.S.create () in
    let module HS = AM.Hash_set in
    let t = HS.create ~size_sem:Semantics.Snapshot ~buckets:8 stm in
    let n = 10 in
    for i = 0 to n - 1 do
      ignore (HS.add t i)
    done;
    let violations = ref [] in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          let mover =
            Sim.spawn (fun () ->
                for i = 0 to n - 1 do
                  AM.S.atomically stm (fun _tx ->
                      ignore (HS.remove t i);
                      ignore (HS.add t (i + 100)))
                done)
          in
          let observer =
            Sim.spawn (fun () ->
                for _ = 1 to 5 do
                  let k = HS.size t in
                  if k <> n then violations := k :: !violations
                done)
          in
          Sim.join mover;
          Sim.join observer)
    in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: atomic size across buckets" seed)
      [] !violations
  done

(* The elastic profile must actually exercise cuts on long parses with
   concurrent updates, and commit more parses than classic under the
   same schedule. *)
let test_elastic_profile_cuts () =
  let stm = AM.S.create () in
  let module LS = AM.List_set in
  let t = LS.create ~parse_sem:Semantics.Elastic stm in
  for i = 0 to 63 do
    ignore (LS.add t (2 * i))
  done;
  AM.S.reset_stats stm;
  let (), _ =
    Sim.run (fun () ->
        let parser_thread =
          Sim.spawn (fun () ->
              for _ = 1 to 4 do
                ignore (LS.contains t 120)
              done)
        in
        let updater =
          Sim.spawn (fun () ->
              for i = 0 to 15 do
                ignore (LS.add t ((2 * i) + 1))
              done)
        in
        Sim.join parser_thread;
        Sim.join updater)
  in
  let st = AM.S.stats stm in
  Alcotest.(check bool) "cuts happened" true (st.AM.S.cuts > 0);
  Alcotest.(check int) "no aborts for elastic parses" 0 st.AM.S.window_broken

(* --- queue --------------------------------------------------------------- *)

let test_queue_fifo () =
  let stm = AM.S.create () in
  let q = AM.Queue.create stm in
  List.iter (AM.Queue.enqueue q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "1" (Some 1) (AM.Queue.dequeue_opt q);
  AM.Queue.enqueue q 4;
  Alcotest.(check (option int)) "2" (Some 2) (AM.Queue.dequeue_opt q);
  Alcotest.(check (option int)) "3" (Some 3) (AM.Queue.dequeue_opt q);
  Alcotest.(check (option int)) "4" (Some 4) (AM.Queue.dequeue_opt q);
  Alcotest.(check (option int)) "empty" None (AM.Queue.dequeue_opt q)

let test_queue_dequeue_or () =
  let stm = AM.S.create () in
  let q = AM.Queue.create stm in
  Alcotest.(check int) "fallback" (-1) (AM.Queue.dequeue_or q (-1));
  AM.Queue.enqueue q 5;
  Alcotest.(check int) "element" 5 (AM.Queue.dequeue_or q (-1))

let test_queue_concurrent_producers_consumers () =
  for seed = 1 to 8 do
    let stm = AM.S.create () in
    let q = AM.Queue.create stm in
    let consumed = ref [] in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          let producers =
            List.init 2 (fun p ->
                Sim.spawn (fun () ->
                    for i = 1 to 6 do
                      AM.Queue.enqueue q ((p * 100) + i)
                    done))
          in
          let consumer =
            Sim.spawn (fun () ->
                let got = ref 0 in
                while !got < 12 do
                  match AM.Queue.dequeue_opt q with
                  | Some x ->
                      consumed := x :: !consumed;
                      incr got
                  | None -> Sim.yield ()
                done)
          in
          List.iter Sim.join producers;
          Sim.join consumer)
    in
    let consumed = List.rev !consumed in
    Alcotest.(check int) "all consumed" 12 (List.length consumed);
    (* FIFO per producer. *)
    List.iter
      (fun p ->
        let mine = List.filter (fun x -> x / 100 = p) consumed in
        Alcotest.(check (list int))
          (Printf.sprintf "producer %d order" p)
          (List.init 6 (fun i -> (p * 100) + i + 1))
          mine)
      [ 0; 1 ]
  done

let test_queue_transfer_all_atomic () =
  for seed = 1 to 6 do
    let stm = AM.S.create () in
    let src = AM.Queue.create stm and dst = AM.Queue.create stm in
    List.iter (AM.Queue.enqueue src) [ 1; 2; 3; 4; 5 ];
    let observed_splits = ref [] in
    let (), _ =
      Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
          let mover = Sim.spawn (fun () -> AM.Queue.transfer_all ~src ~dst) in
          let observer =
            Sim.spawn (fun () ->
                for _ = 1 to 4 do
                  let total =
                    AM.S.atomically stm (fun _ ->
                        AM.Queue.length src + AM.Queue.length dst)
                  in
                  let in_src = AM.Queue.length src in
                  observed_splits := (total, in_src) :: !observed_splits
                done)
          in
          Sim.join mover;
          Sim.join observer)
    in
    List.iter
      (fun (total, in_src) ->
        Alcotest.(check int) "total conserved" 5 total;
        Alcotest.(check bool) "all-or-nothing" true (in_src = 5 || in_src = 0))
      !observed_splits;
    Alcotest.(check (list int)) "order preserved" [ 1; 2; 3; 4; 5 ]
      (AM.Queue.to_list dst)
  done

(* The hint question for the queue: a client's [~elastic] hint runs
   the queue's operations as elastic transactions (flat nesting lets
   the outer label win).  Four simulator threads share two queues: a
   producer ENQs 24 items, then sets a stop flag; a consumer DEQs; a
   blocking pop runs the server's body (dequeue, [retry] when empty)
   behind a read of the flag, until it sees the flag; and a mover takes from
   one queue and puts on the other in one transaction, as a MULTI
   would.  Every item must end up exactly once: taken, or still in a
   queue.  Returns what went wrong, if anything. *)
let elastic_queue_failure ?fault ~algo ~window seed =
  let stm = AM.S.create ~algo ~elastic_window:window ?fault () in
  let q = AM.Queue.create stm and q2 = AM.Queue.create stm in
  let drain = AM.S.tvar stm false in
  let elastic f = AM.S.atomically ~sem:Semantics.Elastic stm f in
  let items = 24 and taken = ref [] in
  let take = Option.iter (fun v -> taken := v :: !taken) in
  let blocking_pop tx =
    if AM.S.read tx drain then None
    else
      match AM.Queue.dequeue_opt_tx tx q with
      | None -> AM.S.retry tx
      | v -> v
  in
  let move tx =
    Option.iter (AM.Queue.enqueue_tx tx q2) (AM.Queue.dequeue_opt_tx tx q)
  in
  match
    Sim.run ~policy:(Sim.Random_sched seed) (fun () ->
        R.parallel
          [
            (fun () ->
              for i = 1 to items do
                elastic (fun _ -> AM.Queue.enqueue q i)
              done;
              elastic (fun tx -> AM.S.write tx drain true));
            (fun () ->
              for _ = 1 to 12 do
                take (elastic (fun _ -> AM.Queue.dequeue_opt q))
              done);
            (fun () ->
              let rec go () =
                match elastic blocking_pop with
                | Some _ as v ->
                    take v;
                    go ()
                | None -> ()
              in
              go ());
            (fun () ->
              for _ = 1 to 12 do
                elastic move
              done);
          ])
  with
  | exception e -> Some (Printexc.to_string e)
  | (), _ ->
      let all = List.sort compare (!taken @ AM.Queue.to_list q @ AM.Queue.to_list q2) in
      if all = List.init items succ then None
      else
        Some
          (Printf.sprintf "items lost or duplicated: [%s]"
             (String.concat ";" (List.map string_of_int all)))

(* Seeds 1-100 at elastic windows 2 and 1, on TL2 and NORec. *)
let queue_hint_seeds = List.init 100 succ

let test_elastic_hint_queue () =
  List.iter
    (fun (algo, name) ->
      List.iter
        (fun window ->
          let failed =
            List.filter_map
              (fun seed ->
                Option.map
                  (Printf.sprintf "seed %d: %s" seed)
                  (elastic_queue_failure ~algo ~window seed))
              queue_hint_seeds
          in
          if failed <> [] then
            Alcotest.failf "%s, window %d: %s" name window
              (String.concat "; " failed))
        [ 2; 1 ])
    [ (`Tl2, "tl2"); (`Norec, "norec") ];
  (* The same check rejects a store that loses updates, on every seed. *)
  Alcotest.(check int) "a NORec store that skips validation fails"
    (List.length queue_hint_seeds)
    (List.length
       (List.filter_map
          (elastic_queue_failure ~fault:`Skip_validation ~algo:`Norec ~window:2)
          queue_hint_seeds))

let test_undersized_elastic_window_rejected () =
  let stm = AM.S.create ~elastic_window:1 () in
  Alcotest.check_raises "window 1 rejected for elastic lists"
    (Invalid_argument
       "Stm_list_set: elastic parses need an elastic_window of at least 2")
    (fun () ->
      ignore (AM.List_set.create ~parse_sem:Semantics.Elastic stm))

let suite =
  ( "structs",
    List.map (fun p -> Test_seed.to_alcotest (sequential_property p))
      stm_impls
    @ [
        Alcotest.test_case "undersized elastic window rejected" `Quick
          test_undersized_elastic_window_rejected;
        Alcotest.test_case "disjoint threads" `Quick test_disjoint_threads;
        Alcotest.test_case "contended consistency" `Quick
          test_contended_consistency;
        Alcotest.test_case "size is atomic under moves" `Quick
          test_size_is_atomic_under_moves;
        Alcotest.test_case "hash-set composition" `Quick
          test_hash_set_compose_moves;
        Alcotest.test_case "elastic profile cuts" `Quick
          test_elastic_profile_cuts;
        Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
        Alcotest.test_case "queue dequeue_or" `Quick test_queue_dequeue_or;
        Alcotest.test_case "queue producers/consumers" `Quick
          test_queue_concurrent_producers_consumers;
        Alcotest.test_case "queue transfer atomic" `Quick
          test_queue_transfer_all_atomic;
        Alcotest.test_case "an elastic hint cannot break the queue" `Quick
          test_elastic_hint_queue;
      ] )
