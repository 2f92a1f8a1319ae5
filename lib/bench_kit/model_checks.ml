(** The model-checked scenarios, each defined once.

    A scenario is a small program over the simulator and the verdict
    the bounded exhaustive explorer ({!Polytm_runtime.Explore}) must
    reach on it: no schedule violates it ([Holds]), or, for a self-test
    of a deliberately broken store (a scenario named [*-broken]), some
    schedule does ([Violated]: the checker has teeth).  [tmcheck
    explore] runs the table at 100,000 schedules per scenario; the
    tier-1 suite runs one case per entry at 20,000, where a [Holds]
    must rest on at least 1,000 schedules or a complete exploration.

    The explorer's blind spot: a run that exceeds the step limit is
    pruned together with every schedule that would branch off it, and
    past its script the explorer keeps running the thread that yielded.
    So a thread that spins (a TL2 snapshot read of a location an
    in-flight commit has locked, a spin lock) hides every schedule in
    which it would be preempted mid-spin: a scenario that needs one
    must block the spinner instead ([Sim.join], as the TL2
    [snapshot-backup] reader does), or its self-test finds nothing.
    NOrec snapshot reads never spin. *)

module Sim = Polytm_runtime.Sim
module Explore = Polytm_runtime.Explore
module R = Polytm_runtime.Sim_runtime
module AM = Polytm_structs.Adapters.Make (Polytm_runtime.Sim_runtime)

(* Run [f] and [g] as threads 1 and 2, and wait for both. *)
let race f g =
  let t1 = Sim.spawn f in
  let t2 = Sim.spawn g in
  Sim.join t1;
  Sim.join t2

(* The lost-wakeup race (DESIGN.md §S18): a blocking dequeue parks in
   [retry] on an empty queue while a producer's commit races the window
   between its empty read and its wait's registration, which the
   simulator charges as a step of its own.  [fault] builds the store
   with [`Skip_wake_validation] for the self-test. *)
let lost_wakeup_program ~algo ?fault () =
  let stm = AM.S.create ~cm:Polytm.Contention.Suicide ~algo ?fault () in
  let q = AM.Queue.create stm in
  let got = ref None in
  race
    (fun () -> got := Some (AM.Queue.take q))
    (fun () -> AM.Queue.enqueue q 7);
  assert (!got = Some 7)

(* The registering wait (DESIGN.md §S19): a loop-like thread runs a
   blocking dequeue through [try_atomically_one ~wake].  When it gets
   a wait back it parks on its own parker, as an event loop blocks in
   [select], and the wake unparks it, as a post writes the loop's wake
   pipe; on waking it cancels the wait and re-runs.  A producer's
   commit races the window between the empty read and the
   registration. *)
let loop_wait_program ~algo ?fault () =
  let stm = AM.S.create ~cm:Polytm.Contention.Suicide ~algo ?fault () in
  let q = AM.Queue.create stm in
  let loop = R.parker () in
  let got = ref None in
  let rec serve () =
    match
      AM.S.try_atomically_one ~sem:Polytm.Semantics.Classic ~label:""
        ~wake:(fun () -> R.unpark loop)
        stm
        (fun () -> AM.S.atomically stm (fun tx -> AM.Queue.take_tx tx q))
    with
    | outcome -> got := Some outcome
    | exception AM.S.Waiting w ->
        ignore (R.park loop ~deadline:None);
        AM.S.cancel_wait w;
        serve ()
  in
  race serve (fun () -> AM.Queue.enqueue q 7);
  assert (!got = Some (AM.S.Committed 7));
  assert (AM.S.waiting stm = 0)

(* The cross-shard 2PC window (DESIGN.md §S20): one transaction writes
   [a] on shard 0 and [b] on shard 1; a spanning snapshot must observe
   the two writes atomically.  [stabilize:false] creates both shards
   with the [`No_stabilize] fault, which skips the bound vector's
   re-check pass, deliberately reintroducing the torn read for the
   self-test. *)
let shard_2pc_program ~algo ~stabilize () =
  let fault = if stabilize then None else Some `No_stabilize in
  let s0 = AM.S.create ~cm:Polytm.Contention.Suicide ~algo ?fault () in
  let s1 = AM.S.create ~cm:Polytm.Contention.Suicide ~algo ?fault () in
  let stms = [ s0; s1 ] in
  let a = AM.S.tvar s0 0 and b = AM.S.tvar s1 0 in
  let writer () =
    AM.S.atomically_multi ~label:"span-write" stms (fun () ->
        AM.S.atomically s0 (fun tx -> AM.S.write tx a 1);
        AM.S.atomically s1 (fun tx -> AM.S.write tx b 1))
  in
  let reader () =
    let av, bv =
      AM.S.atomically_multi ~sem:Polytm.Semantics.Snapshot ~label:"span-read"
        stms (fun () ->
          ( AM.S.atomically s0 (fun tx -> AM.S.read tx a),
            AM.S.atomically s1 (fun tx -> AM.S.read tx b) ))
    in
    assert (av = bv)
  in
  race writer reader;
  assert (AM.S.atomically s0 (fun tx -> AM.S.read tx a) = 1);
  assert (AM.S.atomically s1 (fun tx -> AM.S.read tx b) = 1)

(* Backups kept only while a snapshot runs (DESIGN.md §S23): one
   writer writes [a] and [b] once while a snapshot reads both with a
   preemption point between the reads.  The snapshot must read a
   consistent pair and never abort with [Snapshot_too_old]: a commit
   that saw no snapshot running and so kept no backup drew its version
   before any later snapshot drew its bound.  [early:true] builds the
   store with the [`Early_backup_check] fault, which reads the count
   before the version is drawn, for the self-test.

   The TL2 snapshot, once its bound is drawn, waits for the writer to
   finish before it reads (a read of a location the commit has locked
   would spin, the blind spot above): its registration and bound still
   land at every point of the writer's commit, which is where the
   ordering matters.  NOrec's reads interleave with the commit too. *)
let snapshot_backup_program ~algo ~early () =
  let fault = if early then Some `Early_backup_check else None in
  let stm = AM.S.create ~cm:Polytm.Contention.Suicide ~algo ?fault () in
  let a = AM.S.tvar stm 0 and b = AM.S.tvar stm 0 in
  let writer () =
    AM.S.atomically ~label:"write-both" stm (fun tx ->
        AM.S.write tx a 1;
        AM.S.write tx b 1)
  in
  let reader w () =
    let av, bv =
      AM.S.atomically ~sem:Polytm.Semantics.Snapshot ~label:"snap-read" stm
        (fun tx ->
          if algo = `Tl2 then Sim.join w;
          let av = AM.S.read tx a in
          R.yield ();
          (av, AM.S.read tx b))
    in
    assert (av = bv)
  in
  let t1 = Sim.spawn writer in
  let t2 = Sim.spawn (reader t1) in
  Sim.join t1;
  Sim.join t2;
  assert ((AM.S.stats stm).AM.S.snapshot_too_old = 0)

type verdict = Holds | Violated

type scenario = {
  name : string;
  doc : string;
  expect : verdict;
  program : unit -> unit;
}

let scenario name expect doc program = { name; doc; expect; program }

let scenarios =
  [
    scenario "stm-increments" Holds
      "two concurrent transactional increments never lose an update"
      (fun () ->
        let stm = AM.S.create ~cm:Polytm.Contention.Suicide () in
        let v = AM.S.tvar stm 0 in
        let incr () =
          AM.S.atomically stm (fun tx -> AM.S.write tx v (AM.S.read tx v + 1))
        in
        race incr incr;
        assert (AM.S.atomically stm (fun tx -> AM.S.read tx v) = 2));
    scenario "elastic-adjacent-removes" Holds
      "adjacent removes on the elastic list leave exactly the third element"
      (fun () ->
        let stm = AM.S.create ~cm:Polytm.Contention.Suicide () in
        let t = AM.List_set.create ~parse_sem:Polytm.Semantics.Elastic stm in
        List.iter (fun k -> ignore (AM.List_set.add t k)) [ 1; 2; 3 ];
        race
          (fun () -> ignore (AM.List_set.remove t 1))
          (fun () -> ignore (AM.List_set.remove t 2));
        assert (AM.List_set.to_list t = [ 3 ]));
    scenario "lockfree-add-remove" Holds
      "the Harris list stays correct under a concurrent add and remove"
      (fun () ->
        let t = AM.Lockfree.create () in
        List.iter (fun k -> ignore (AM.Lockfree.add t k)) [ 1; 2 ];
        race
          (fun () -> ignore (AM.Lockfree.remove t 1))
          (fun () -> ignore (AM.Lockfree.add t 3));
        assert (AM.Lockfree.to_list t = [ 2; 3 ]));
    scenario "retry-lost-wakeup" Holds
      "a blocking dequeue races a producer's commit into the \
       read-empty/park window and never misses the wakeup"
      (lost_wakeup_program ~algo:`Tl2);
    scenario "retry-lost-wakeup-broken" Violated
      "self-test: a waiter that skips the pre-park re-validation misses a \
       commit that lands before its registration and parks forever \
       (deadlock)"
      (lost_wakeup_program ~algo:`Tl2 ~fault:`Skip_wake_validation);
    scenario "retry-lost-wakeup-norec" Holds
      "retry-lost-wakeup over NORec, whose waits sit on one coarse list"
      (lost_wakeup_program ~algo:`Norec);
    scenario "retry-lost-wakeup-norec-broken" Violated
      "self-test: retry-lost-wakeup-broken over NORec"
      (lost_wakeup_program ~algo:`Norec ~fault:`Skip_wake_validation);
    scenario "retry-loop-wake" Holds
      "a loop-like waiter registers its retry wait instead of parking in \
       the STM, blocks on its own parker and re-runs on the wake; a \
       producer's commit races the register/revalidate window and the \
       wake is never lost"
      (loop_wait_program ~algo:`Tl2);
    scenario "retry-loop-wake-broken" Violated
      "self-test: retry-loop-wake on a store whose registration skips the \
       re-validation misses a commit that lands before it and blocks \
       forever (deadlock)"
      (loop_wait_program ~algo:`Tl2 ~fault:`Skip_wake_validation);
    scenario "retry-loop-wake-norec" Holds "retry-loop-wake over NORec"
      (loop_wait_program ~algo:`Norec);
    scenario "retry-loop-wake-norec-broken" Violated
      "self-test: retry-loop-wake-broken over NORec"
      (loop_wait_program ~algo:`Norec ~fault:`Skip_wake_validation);
    scenario "shard-2pc" Holds
      "a cross-shard transaction writing two shards is never read torn: a \
       concurrent spanning snapshot sees neither write or both, under \
       every schedule of the two-phase commit window"
      (shard_2pc_program ~algo:`Tl2 ~stabilize:true);
    scenario "shard-2pc-broken" Violated
      "self-test: a spanning snapshot that skips the bound vector's \
       re-check pass can collect one shard's clock before a cross-shard \
       commit and the other's after it, observing the torn intermediate \
       state"
      (shard_2pc_program ~algo:`Tl2 ~stabilize:false);
    scenario "shard-2pc-norec" Holds
      "shard-2pc over NORec shards: the commit seizes each shard's \
       sequence lock instead of locking locations"
      (shard_2pc_program ~algo:`Norec ~stabilize:true);
    scenario "shard-2pc-norec-broken" Violated
      "self-test: shard-2pc-broken over NORec shards"
      (shard_2pc_program ~algo:`Norec ~stabilize:false);
    scenario "snapshot-backup" Holds
      "a write commit that saw no snapshot running keeps no backup, yet a \
       snapshot reading both of its locations across a preemption point \
       reads a consistent pair and never aborts as too old"
      (snapshot_backup_program ~algo:`Tl2 ~early:false);
    scenario "snapshot-backup-broken" Violated
      "self-test: a writer that reads the snapshot count before its clock \
       fetch-and-add drops the backup a snapshot starting in between needs"
      (snapshot_backup_program ~algo:`Tl2 ~early:true);
    scenario "snapshot-backup-norec" Holds
      "snapshot-backup over NORec: the write version is fixed by the \
       sequence-lock CAS"
      (snapshot_backup_program ~algo:`Norec ~early:false);
    scenario "snapshot-backup-norec-broken" Violated
      "self-test: snapshot-backup-broken over NORec, the count read before \
       the sequence-lock CAS"
      (snapshot_backup_program ~algo:`Norec ~early:true);
  ]

let find name = List.find_opt (fun s -> s.name = name) scenarios

type result =
  | Explored of Explore.outcome  (** no schedule violated it *)
  | Violation of int array * exn
      (** the first schedule that violated it, and what that run raised *)

(* Every scenario runs at the same bounds: decisions past depth 120 are
   not branched on, and a run past 2,000 charged steps is pruned as a
   livelock. *)
let run ~max_executions s =
  match
    Explore.check ~max_executions ~max_depth:120 ~step_limit:2_000 s.program
  with
  | outcome -> Explored outcome
  | exception Explore.Violation { schedule; exn } -> Violation (schedule, exn)
