(* Tests for the sharded store (DESIGN.md §S20): the shard router,
   sharded structures, and the cross-instance commit protocols.

   - Differential battery: any op sequence leaves a 1-shard and a
     16-shard store with identical committed contents and identical
     per-op answers (qcheck, against a Stdlib model as the third
     opinion).
   - Bank invariant: concurrent cross-shard MULTI transfers conserve
     the total balance, and every concurrent snapshot aggregate sees a
     conserved total (domains runtime — real parallelism).
   - Explore model check of the 2PC window: two cross-shard
     increments race, and no schedule may lose one.  The torn-read
     checks (a snapshot reader must never see one member's writes
     without the others') are [tmcheck explore]'s [shard-2pc]
     scenarios, which the explore suite runs.

   The concurrent cases run over TL2 and over NORec shards: the
   cross-instance commit seizes NORec's sequence lock where it locks
   TL2's locations, and both must hold up under real interleavings. *)

module Sim = Polytm_runtime.Sim
module Explore = Polytm_runtime.Explore
module Sem = Polytm.Semantics

(* ---- differential: 1 shard vs 16 shards (sim runtime) ------------------ *)

module S = Polytm.Stm.Make (Polytm_runtime.Sim_runtime)
module Shd = Polytm_structs.Sharded.Make (S)
module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

type op =
  | Madd of int * int
  | Mremove of int
  | Mfind of int
  | Sadd of int
  | Sremove of int
  | Scontains of int
  | Msize
  | Mlist
  | Ssize

let op_gen =
  QCheck.Gen.(
    let key = int_range 0 200 in
    frequency
      [
        (4, map2 (fun k v -> Madd (k, v)) key (int_range 0 1000));
        (2, map (fun k -> Mremove k) key);
        (2, map (fun k -> Mfind k) key);
        (3, map (fun k -> Sadd k) key);
        (1, map (fun k -> Sremove k) key);
        (1, map (fun k -> Scontains k) key);
        (1, return Msize);
        (1, return Mlist);
        (1, return Ssize);
      ])

let pp_op = function
  | Madd (k, v) -> Printf.sprintf "Madd(%d,%d)" k v
  | Mremove k -> Printf.sprintf "Mremove %d" k
  | Mfind k -> Printf.sprintf "Mfind %d" k
  | Sadd k -> Printf.sprintf "Sadd %d" k
  | Sremove k -> Printf.sprintf "Sremove %d" k
  | Scontains k -> Printf.sprintf "Scontains %d" k
  | Msize -> "Msize"
  | Mlist -> "Mlist"
  | Ssize -> "Ssize"

(* One store = a map and a hash set over a [k]-shard router.  Answers
   are reified so two stores can be compared op by op. *)
let mk_store shards =
  let router = Shd.Router.create ~shards (fun _ -> S.create ()) in
  let m = Shd.Map.create router in
  let s = Shd.Hash_set.create router in
  (m, s)

let apply (m, s) = function
  | Madd (k, v) -> `B (Shd.Map.add m k v)
  | Mremove k -> `B (Shd.Map.remove m k)
  | Mfind k -> `O (Shd.Map.find_opt m k)
  | Sadd k -> `B (Shd.Hash_set.add s k)
  | Sremove k -> `B (Shd.Hash_set.remove s k)
  | Scontains k -> `B (Shd.Hash_set.contains s k)
  | Msize -> `I (Shd.Map.size m)
  | Mlist -> `L (Shd.Map.to_list m)
  | Ssize -> `I (Shd.Hash_set.size s)

let apply_model (m, s) = function
  | Madd (k, v) ->
      let fresh = not (IMap.mem k !m) in
      m := IMap.add k v !m;
      `B fresh
  | Mremove k ->
      let had = IMap.mem k !m in
      m := IMap.remove k !m;
      `B had
  | Mfind k -> `O (IMap.find_opt k !m)
  | Sadd k ->
      let fresh = not (ISet.mem k !s) in
      s := ISet.add k !s;
      `B fresh
  | Sremove k ->
      let had = ISet.mem k !s in
      s := ISet.remove k !s;
      `B had
  | Scontains k -> `B (ISet.mem k !s)
  | Msize -> `I (IMap.cardinal !m)
  | Mlist -> `L (IMap.bindings !m)
  | Ssize -> `I (ISet.cardinal !s)

let differential_property =
  QCheck.Test.make ~count:80
    ~name:"1-shard and 16-shard stores answer and end identically"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 120) op_gen)
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops)))
    (fun ops ->
      let one = mk_store 1 and sixteen = mk_store 16 in
      let model = (ref IMap.empty, ref ISet.empty) in
      List.iter
        (fun op ->
          let a = apply one op and b = apply sixteen op in
          let c = apply_model model op in
          if a <> b then
            QCheck.Test.fail_reportf "1-shard and 16-shard diverge on %s"
              (pp_op op);
          if a <> c then
            QCheck.Test.fail_reportf "sharded store diverges from model on %s"
              (pp_op op))
        ops;
      let m1, s1 = one and m16, s16 = sixteen in
      Shd.Map.to_list m1 = Shd.Map.to_list m16
      && Shd.Hash_set.to_list s1 = Shd.Hash_set.to_list s16
      && Shd.Map.invariants_hold m1
      && Shd.Map.invariants_hold m16)

(* The placement function must be deterministic and total: every key
   owns exactly one shard, and the k-way merged iteration order is the
   global key order. *)
let test_placement_and_order () =
  let router = Shd.Router.create ~shards:7 (fun _ -> S.create ()) in
  let m = Shd.Map.create router in
  let keys = List.init 100 (fun i -> (i * 37) mod 101) in
  List.iter (fun k -> ignore (Shd.Map.add m k (k * 2))) keys;
  let sorted = List.sort_uniq compare keys in
  Alcotest.(check (list (pair int int)))
    "global key order across shards"
    (List.map (fun k -> (k, k * 2)) sorted)
    (Shd.Map.to_list m);
  Alcotest.(check int) "size aggregates all shards" (List.length sorted)
    (Shd.Map.size m);
  List.iter
    (fun k ->
      let i = Shd.Router.index_of_hash router k in
      Alcotest.(check bool) "stable owner" true
        (i = Shd.Router.index_of_hash router k
        && i >= 0
        && i < Shd.Router.count router))
    keys

(* ---- bank invariant under cross-shard MULTI (domains runtime) ---------- *)

module SD = Polytm.Stm.Make (Polytm_runtime.Domain_runtime)
module ShdD = Polytm_structs.Sharded.Make (SD)

let test_bank_conservation algo () =
  let accounts = 64 and initial = 100 in
  let total = accounts * initial in
  let router = ShdD.Router.create ~shards:16 (fun _ -> SD.create ~algo ()) in
  let m = ShdD.Map.create ~size_sem:Sem.Snapshot router in
  for a = 0 to accounts - 1 do
    ignore (ShdD.Map.add m a initial)
  done;
  let transfers = 400 in
  let stop = Atomic.make false and audited = Atomic.make false in
  (* A transfer between two accounts is one atomic transaction over
     exactly the owner shards of the two keys — the cross-shard 2PC
     when they differ, plain [atomically] when they collide.  The
     transfers start once the auditor has folded once, so it runs
     beside them however late its domain starts. *)
  let transfer_worker seed () =
    while not (Atomic.get audited) do
      Domain.cpu_relax ()
    done;
    let rng = Random.State.make [| seed |] in
    for _ = 1 to transfers do
      let a = Random.State.int rng accounts in
      let b = (a + 1 + Random.State.int rng (accounts - 1)) mod accounts in
      let amount = 1 + Random.State.int rng 5 in
      let members =
        let oa = ShdD.Map.owner m a and ob = ShdD.Map.owner m b in
        if oa == ob then [ oa ] else [ oa; ob ]
      in
      SD.atomically_multi ~label:"transfer" members (fun () ->
          let av = Option.value ~default:0 (ShdD.Map.find_opt m a) in
          let bv = Option.value ~default:0 (ShdD.Map.find_opt m b) in
          ignore (ShdD.Map.add m a (av - amount));
          ignore (ShdD.Map.add m b (bv + amount)))
    done
  in
  (* The auditor folds the whole store through the consistent bound
     vector; every cut it takes mid-flight must conserve the total. *)
  let auditor () =
    let audits = ref 0 in
    while not (Atomic.get stop) do
      let sum = ShdD.Map.fold m (fun acc _ v -> acc + v) 0 in
      Atomic.set audited true;
      incr audits;
      if sum <> total then
        Alcotest.failf "audit %d saw a torn total: %d (want %d)" !audits sum
          total
    done;
    !audits
  in
  let aud = Domain.spawn auditor in
  let workers = List.init 2 (fun i -> Domain.spawn (transfer_worker (i + 1))) in
  List.iter Domain.join workers;
  Atomic.set stop true;
  let audits = Domain.join aud in
  Alcotest.(check bool) "auditor ran" true (audits > 0);
  Alcotest.(check int) "final total conserved" total
    (ShdD.Map.fold m (fun acc _ v -> acc + v) 0);
  Alcotest.(check bool) "tree invariants hold on every shard" true
    (ShdD.Map.invariants_hold m)

(* Conflict exhaustion of a cross-shard transaction.  Every optimistic
   attempt reads [x] on shard 0 and then has a fresh domain commit to
   [x] (a thread with no live transaction of its own, so the write does
   not flatten into ours), which fails our validation.  Without a
   budget the transaction escalates after 16 rounds and commits under
   the tokens — where it no longer interferes, since the interfering
   commit would stall on the token we hold.  A caller's budget is a
   hard limit instead. *)
let test_multi_exhaustion () =
  let s0 = SD.create () and s1 = SD.create () in
  let x = SD.tvar s0 0 and y = SD.tvar s1 0 in
  let body () =
    let v = SD.atomically s0 (fun tx -> SD.read tx x) in
    if (SD.stats s0).SD.multi_escalations = 0 then
      Domain.join
        (Domain.spawn (fun () ->
             SD.atomically s0 (fun tx -> SD.write tx x (SD.read tx x + 1))));
    SD.atomically s1 (fun tx -> SD.write tx y v)
  in
  (match SD.try_atomically_multi ~budget:3 [ s0; s1 ] body with
  | SD.Exhausted { reason = SD.Read_invalid; attempts = 3 } -> ()
  | _ -> Alcotest.fail "expected Exhausted{Read_invalid; 3}");
  Alcotest.(check int) "budget is a hard limit: no escalation" 0
    (SD.stats s0).SD.multi_escalations;
  (match SD.try_atomically_multi [ s0; s1 ] body with
  | SD.Committed () -> ()
  | _ -> Alcotest.fail "expected the escalated attempt to commit");
  List.iter
    (fun stm ->
      let st = SD.stats stm in
      Alcotest.(check int) "escalated once" 1 st.SD.multi_escalations;
      Alcotest.(check int) "serial commit" 1 st.SD.serial_commits)
    [ s0; s1 ];
  Alcotest.(check int) "the 17th attempt read the 19th write" 19
    (SD.atomically s1 (fun tx -> SD.read tx y))

(* ---- Explore: the 2PC window (sim runtime) ----------------------------- *)

(* Two writers each increment [a] on shard 0 and [b] on shard 1 in one
   cross-shard transaction.  Whatever the interleaving of their
   intents, validations and write-backs, both increments land on both
   shards. *)
let lost_increment_program ~algo () =
  let s0 = S.create ~algo () and s1 = S.create ~algo () in
  let stms = [ s0; s1 ] in
  let a = S.tvar s0 0 and b = S.tvar s1 0 in
  let incr_both () =
    S.atomically_multi ~label:"span-incr" stms (fun () ->
        S.atomically s0 (fun tx -> S.write tx a (S.read tx a + 1));
        S.atomically s1 (fun tx -> S.write tx b (S.read tx b + 1)))
  in
  let t1 = Sim.spawn incr_both and t2 = Sim.spawn incr_both in
  Sim.join t1;
  Sim.join t2;
  assert (S.atomically s0 (fun tx -> S.read tx a) = 2);
  assert (S.atomically s1 (fun tx -> S.read tx b) = 2)

let test_2pc_no_lost_increment algo () =
  let outcome =
    Explore.check ~max_executions:20_000 ~max_depth:60 ~step_limit:2_000
      ~max_preemptions:2 (lost_increment_program ~algo)
  in
  Alcotest.(check bool)
    (Printf.sprintf "explored many schedules (%d)" outcome.Explore.executions)
    true
    (outcome.Explore.executions > 50)

(* A cross-shard commit [m] reads [x] and writes [y] on shard 0 (and
   [z] on shard 1) while a single-shard commit overwrites [x] and a
   single-shard snapshot reads [x] then [y].  If [m] read the old [x],
   the snapshot must not see the new [x] beside the old [y]: that
   orders [m] before the overwrite, the overwrite before the snapshot,
   and the snapshot before [m] — a cycle.  A member's write version is
   drawn before the member is validated, so a commit on a location [m]
   only read cannot slip in underneath it with a smaller version.
   Returns what [m] read and what the snapshot saw. *)
let read_member_cycle_program () =
  let s0 = S.create ~cm:Polytm.Contention.Suicide () in
  let s1 = S.create ~cm:Polytm.Contention.Suicide () in
  let x = S.tvar s0 0 and y = S.tvar s0 0 and z = S.tvar s1 0 in
  let seen_x = ref (-1) and snap = ref (-1, -1) in
  let m () =
    S.atomically_multi ~label:"span" [ s0; s1 ] (fun () ->
        seen_x :=
          S.atomically s0 (fun tx ->
              let v = S.read tx x in
              S.write tx y 1;
              v);
        S.atomically s1 (fun tx -> S.write tx z 1))
  in
  let overwrite () = S.atomically s0 (fun tx -> S.write tx x 1) in
  let reader () =
    snap :=
      S.atomically ~sem:Sem.Snapshot s0 (fun tx ->
          let xv = S.read tx x in
          (xv, S.read tx y))
  in
  let t1 = Sim.spawn m in
  let t2 = Sim.spawn overwrite in
  let t3 = Sim.spawn reader in
  Sim.join t1;
  Sim.join t2;
  Sim.join t3;
  (!seen_x, !snap)

(* The schedules are built directly rather than explored: the snapshot
   spins on [m]'s lock on [y], and the explorer's default continuation
   keeps a spinner running until the run is pruned as a livelock,
   together with the schedule that resumes [m].  So: preempt [m] at
   every decision where the overwrite (thread 2) could run instead, run
   the overwrite to completion, then the reader (thread 3) for [n]
   steps, then resume [m] (thread 1).  Against a commit that validates
   a member before drawing its version, some of these schedules
   produce the cycle. *)
let test_2pc_read_member_no_cycle () =
  let outcome = ref (-1, (-1, -1)) in
  let run prefix =
    match
      Sim.run ~policy:(Sim.Scripted prefix) ~record_trace:true
        ~step_limit:5_000 (fun () -> outcome := read_member_cycle_program ())
    with
    | (), info -> Some (Array.of_list info.Sim.trace)
    | exception Sim.Step_limit_exceeded -> None
  in
  let chosen tr = Array.map (fun (d : Sim.decision) -> d.Sim.chosen) tr in
  let ready (d : Sim.decision) t = List.mem t d.Sim.ready in
  let base = Option.get (run [||]) in
  let schedules = ref 0 in
  Array.iteri
    (fun i (d : Sim.decision) ->
      if d.Sim.chosen = 1 && ready d 2 then
        let p1 = Array.append (Array.sub (chosen base) 0 i) [| 2 |] in
        match run p1 with
        | None -> ()
        | Some tr -> (
            let rec after_overwrite j =
              if j >= Array.length tr then None
              else if (not (ready tr.(j) 2)) && ready tr.(j) 3 then Some j
              else after_overwrite (j + 1)
            in
            match after_overwrite (i + 1) with
            | None -> ()
            | Some j ->
                let p2 = Array.append (Array.sub (chosen tr) 0 j) [| 3 |] in
                for n = 0 to 20 do
                  if run (Array.concat [ p2; Array.make n 3; [| 1 |] ]) <> None
                  then begin
                    incr schedules;
                    let seen_x, snap = !outcome in
                    if seen_x = 0 && snap = (1, 0) then
                      Alcotest.failf
                        "serialization cycle: the cross-shard commit read \
                         x=0 but a snapshot saw x=1, y=0 (preempted at %d)"
                        i
                  end
                done))
    base;
  Alcotest.(check bool)
    (Printf.sprintf "ran many directed schedules (%d)" !schedules)
    true (!schedules > 100)

(* ---- flattening: sharded point ops inside a spanning transaction ------- *)

let test_point_ops_flatten_into_spanning_tx () =
  let router = Shd.Router.create ~shards:4 (fun _ -> S.create ()) in
  let m = Shd.Map.create router in
  (* A spanning transaction mixing point ops on several shards commits
     all of them atomically; an abort discards all of them. *)
  let wrote =
    Shd.Router.atomically_all ~label:"batch" router (fun () ->
        List.for_all (fun k -> Shd.Map.add m k (k * 10)) [ 0; 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check bool) "all point ops committed" true wrote;
  Alcotest.(check int) "visible after commit" 6 (Shd.Map.size m);
  (match
     Shd.Router.atomically_all ~label:"doomed" router (fun () ->
         ignore (Shd.Map.add m 99 990);
         raise Exit)
   with
  | () -> Alcotest.fail "doomed batch should have raised"
  | exception Exit -> ());
  Alcotest.(check (option int)) "aborted batch discarded everywhere" None
    (Shd.Map.find_opt m 99)

let suite =
  ( "sharded",
    [
      Test_seed.to_alcotest differential_property;
      Alcotest.test_case "placement and merged iteration order" `Quick
        test_placement_and_order;
      Alcotest.test_case "bank total conserved across cross-shard MULTI"
        `Quick (test_bank_conservation `Tl2);
      Alcotest.test_case "NORec bank total conserved across MULTI" `Quick
        (test_bank_conservation `Norec);
      Alcotest.test_case "cross-shard exhaustion: budget vs escalation"
        `Quick test_multi_exhaustion;
      Alcotest.test_case "2PC increments: none lost under any schedule"
        `Quick (test_2pc_no_lost_increment `Tl2);
      Alcotest.test_case "NORec 2PC increments: none lost" `Quick
        (test_2pc_no_lost_increment `Norec);
      Alcotest.test_case "2PC read-only location: no snapshot cycle" `Quick
        test_2pc_read_member_no_cycle;
      Alcotest.test_case "point ops flatten into a spanning tx" `Quick
        test_point_ops_flatten_into_spanning_tx;
    ] )
