(* Model-based differential tests for the STM hot-path containers —
   {!Polytm_util.Vec} against a plain list, {!Polytm_util.Flat_table}
   against an association list — plus charge-accounting checks that
   the commit fast paths (read-only commits, GV1 vs GV4 clock access)
   touch the shared clock exactly as specified. *)

module Vec = Polytm_util.Vec
module Flat_table = Polytm_util.Flat_table
module Sim = Polytm_runtime.Sim
module R = Polytm_runtime.Sim_runtime
module S = Polytm.Stm.Make (Polytm_runtime.Sim_runtime)

(* --- Vec vs list -------------------------------------------------------- *)

type vec_op =
  | Vpush of int
  | Vset of int  (** index taken modulo current length *)
  | Vtruncate of int
  | Vclear
  | Vfilter_odd
  | Vsave_load  (** round-trip through to_array/load *)

let vec_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun x -> Vpush x) (int_bound 1000));
        (2, map (fun i -> Vset i) (int_bound 1000));
        (1, map (fun n -> Vtruncate n) (int_bound 40));
        (1, return Vclear);
        (1, return Vfilter_odd);
        (1, return Vsave_load);
      ])

let show_vec_op = function
  | Vpush x -> Printf.sprintf "push %d" x
  | Vset i -> Printf.sprintf "set %d" i
  | Vtruncate n -> Printf.sprintf "truncate %d" n
  | Vclear -> "clear"
  | Vfilter_odd -> "filter_odd"
  | Vsave_load -> "save_load"

(* Apply one op to the vector and to the reference list in lockstep. *)
let vec_step v model op =
  match op with
  | Vpush x ->
      Vec.push v x;
      model @ [ x ]
  | Vset i ->
      let n = List.length model in
      if n = 0 then model
      else begin
        let i = i mod n in
        Vec.set v i 7777;
        List.mapi (fun j x -> if j = i then 7777 else x) model
      end
  | Vtruncate n ->
      Vec.truncate v n;
      List.filteri (fun j _ -> j < n) model
  | Vclear ->
      Vec.clear v;
      []
  | Vfilter_odd ->
      Vec.filter_in_place (fun x -> x land 1 = 1) v;
      List.filter (fun x -> x land 1 = 1) model
  | Vsave_load ->
      let a = Vec.to_array v in
      Vec.clear v;
      Vec.push v (-1);
      Vec.load v a;
      model

let vec_agrees v model =
  Vec.length v = List.length model
  && Vec.to_list v = model
  && Vec.is_empty v = (model = [])
  && Vec.fold_left (fun acc x -> acc + x) 0 v
     = List.fold_left (fun acc x -> acc + x) 0 model

let vec_differential =
  QCheck.Test.make ~count:500 ~name:"Vec behaves like a list"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_vec_op ops))
       QCheck.Gen.(list_size (int_range 0 80) vec_op_gen))
    (fun ops ->
      let v = Vec.create 0 in
      let final =
        List.fold_left
          (fun model op ->
            let model = vec_step v model op in
            if not (vec_agrees v model) then
              QCheck.Test.fail_reportf "diverged: vec=%s model=%s"
                (String.concat "," (List.map string_of_int (Vec.to_list v)))
                (String.concat "," (List.map string_of_int model));
            model)
          [] ops
      in
      vec_agrees v final)

(* --- Flat_table vs association list ------------------------------------- *)

type tbl_op =
  | Tput of int * int
  | Tfind of int
  | Ttruncate of int
  | Treset

let tbl_op_gen =
  (* Keys in a small range so puts collide with existing entries and
     the signature accumulates real false positives. *)
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun k v -> Tput (k, v)) (int_bound 50) (int_bound 1000));
        (3, map (fun k -> Tfind k) (int_bound 80));
        (1, map (fun n -> Ttruncate n) (int_bound 20));
        (1, return Treset);
      ])

let show_tbl_op = function
  | Tput (k, v) -> Printf.sprintf "put %d %d" k v
  | Tfind k -> Printf.sprintf "find %d" k
  | Ttruncate n -> Printf.sprintf "truncate %d" n
  | Treset -> "reset"

(* The model is an insertion-ordered (key, value) list without
   duplicate keys — exactly the table's dense-entry view. *)
let model_put model k v =
  if List.mem_assoc k model then
    List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) model
  else model @ [ (k, v) ]

(* The bindings in the order [Flat_table.ascending] lists them. *)
let ascending_bindings t =
  let order = Flat_table.ascending t in
  List.init (Flat_table.length t) (fun i ->
      let e = order.(i) in
      (Flat_table.key_at t e, Flat_table.value_at t e))

let tbl_agrees t model =
  Flat_table.length t = List.length model
  && Flat_table.is_empty t = (model = [])
  && List.for_all
       (fun (k, v) ->
         let e = Flat_table.find t k in
         e >= 0 && Flat_table.key_at t e = k && Flat_table.value_at t e = v
         && Flat_table.maybe_mem t k)
       model
  && (* insertion order *)
  (let got = ref [] in
   Flat_table.iter (fun k v -> got := (k, v) :: !got) t;
   List.rev !got = model)
  && (* ascending key order, no duplicates *)
  ascending_bindings t
  = List.sort (fun (a, _) (b, _) -> Int.compare a b) model

let tbl_step t model op =
  match op with
  | Tput (k, v) ->
      ignore (Flat_table.put t k v);
      model_put model k v
  | Tfind k ->
      let e = Flat_table.find t k in
      (match List.assoc_opt k model with
      | Some v ->
          if e < 0 || Flat_table.value_at t e <> v then
            QCheck.Test.fail_reportf "find %d: wrong entry" k
      | None -> if e >= 0 then QCheck.Test.fail_reportf "find %d: phantom" k);
      model
  | Ttruncate n ->
      Flat_table.truncate t n;
      List.filteri (fun j _ -> j < n) model
  | Treset ->
      Flat_table.reset t;
      []

let tbl_differential =
  QCheck.Test.make ~count:500 ~name:"Flat_table behaves like an assoc list"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_tbl_op ops))
       QCheck.Gen.(list_size (int_range 0 100) tbl_op_gen))
    (fun ops ->
      let t = Flat_table.create (-1) in
      let final =
        List.fold_left
          (fun model op ->
            let model = tbl_step t model op in
            if not (tbl_agrees t model) then
              QCheck.Test.fail_reportf "diverged after %s" (show_tbl_op op);
            model)
          [] ops
      in
      tbl_agrees t final)

let test_tbl_negative_key () =
  let t = Flat_table.create 0 in
  Alcotest.check_raises "negative key rejected"
    (Invalid_argument "Flat_table.put: negative key") (fun () ->
      ignore (Flat_table.put t (-3) 1))

let test_tbl_sparse_keys () =
  (* Large, widely spread keys: exercises the hash mixing and the
     quicksort path of [ascending] (> 8 entries). *)
  let t = Flat_table.create 0 in
  let keys = List.init 64 (fun i -> ((i * 7919) lxor (i lsl 13)) land 0xFFFFF) in
  List.iter (fun k -> ignore (Flat_table.put t k (k * 2))) keys;
  let sorted = List.sort_uniq Int.compare keys in
  Alcotest.(check (list int)) "ascending visit" sorted
    (List.map fst (ascending_bindings t));
  List.iter
    (fun k ->
      let e = Flat_table.find t k in
      Alcotest.(check int) "value" (k * 2) (Flat_table.value_at t e))
    keys

(* --- commit charge accounting ------------------------------------------- *)

(* Virtual cost of one [atomically] call running [f], measured on a
   single simulated thread (no contention, no retries). *)
let tx_cost ?gv f =
  let cost, _ =
    Sim.run (fun () ->
        let stm = S.create ?gv () in
        let v = S.tvar stm 0 in
        (* Burn the cold start: the first write commit moves the clock
           off its initial value. *)
        S.atomically stm (fun tx -> S.write tx v 1);
        let t0 = R.now () in
        S.atomically stm (fun tx -> f stm tx v);
        R.now () - t0)
  in
  cost

(* A read-only commit must not touch the global clock: its whole
   virtual cost is arming the descriptor (serial faa = 2, clock get =
   1) plus the one classic read (data get = 1, lock get = 1, read-set
   pause = 2).  A clock fetch-and-add at commit would add 2. *)
let test_ro_commit_no_clock_access () =
  let cost = tx_cost (fun _ tx v -> ignore (S.read tx v)) in
  Alcotest.(check int) "read-only commit adds no commit-phase charge" 7 cost

(* The same transaction with a write commits through the full path: on
   top of arming (3), the commit charges the serial-token check (1),
   active_commits faa in and out (2 + 2), lock get + cas (1 + 2), the
   kill check (1), the clock faa (2), and write-back data get + set
   plus lock release set (3) — 14 in all, 17 with arming.  The wv =
   rv + 1 fast path makes validation free here. *)
let test_write_commit_gv1_cost () =
  let cost = tx_cost (fun _ tx v -> S.write tx v 9) in
  Alcotest.(check int) "gv1 write commit charge" 17 cost

(* GV4's uncontended commit swaps the clock faa (2) for a get + cas
   (1 + 2): one charge more here, but the CAS can be absorbed by a
   concurrent committer where the faa never can. *)
let test_write_commit_gv4_cost () =
  let cost = tx_cost ~gv:`Gv4 (fun _ tx v -> S.write tx v 9) in
  Alcotest.(check int) "gv4 write commit charge" 18 cost

let test_ro_commit_counted () =
  let (), _ =
    Sim.run (fun () ->
        let stm = S.create () in
        let v = S.tvar stm 0 in
        S.atomically stm (fun tx -> S.write tx v 1);
        List.iter
          (fun sem -> S.atomically ~sem stm (fun tx -> ignore (S.read tx v)))
          [ Polytm.Semantics.Classic; Elastic; Snapshot ];
        let st = S.stats stm in
        Alcotest.(check int) "ro_commits" 3 st.S.ro_commits;
        Alcotest.(check int) "commits" 4 st.S.commits)
  in
  ()

(* GV4 under write contention: concurrent committers still serialise
   correctly (the adopting side validates), and the total is exact. *)
let test_gv4_concurrent_counter () =
  let total, _ =
    Sim.run ~policy:(Sim.Random_sched 21) (fun () ->
        let stm = S.create ~gv:`Gv4 () in
        let v = S.tvar stm 0 in
        let tids =
          List.init 8 (fun _ ->
              Sim.spawn (fun () ->
                  for _ = 1 to 50 do
                    S.atomically stm (fun tx -> S.write tx v (S.read tx v + 1))
                  done))
        in
        List.iter Sim.join tids;
        S.atomically stm (fun tx -> S.read tx v))
  in
  Alcotest.(check int) "all increments applied" 400 total

let test_gv_scheme_exposed () =
  Alcotest.(check bool) "default gv1" true (S.gv_scheme (S.create ()) = `Gv1);
  Alcotest.(check bool) "gv4 opt-in" true
    (S.gv_scheme (S.create ~gv:`Gv4 ()) = `Gv4)

let suite =
  ( "flat-structs",
    [
      Test_seed.to_alcotest vec_differential;
      Test_seed.to_alcotest tbl_differential;
      Alcotest.test_case "table rejects negative keys" `Quick
        test_tbl_negative_key;
      Alcotest.test_case "table sparse keys ascending" `Quick
        test_tbl_sparse_keys;
      Alcotest.test_case "read-only commit never touches clock" `Quick
        test_ro_commit_no_clock_access;
      Alcotest.test_case "gv1 write commit charge" `Quick
        test_write_commit_gv1_cost;
      Alcotest.test_case "gv4 write commit charge" `Quick
        test_write_commit_gv4_cost;
      Alcotest.test_case "ro_commits statistic" `Quick test_ro_commit_counted;
      Alcotest.test_case "gv4 concurrent increments" `Quick
        test_gv4_concurrent_counter;
      Alcotest.test_case "gv scheme exposed" `Quick test_gv_scheme_exposed;
    ] )
