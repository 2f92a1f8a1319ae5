(** Cross-runtime conformance stress harness.

    The benchmark harness measures {e how fast} the collections run;
    this module checks {e that they are collections at all}: every
    implementation — STM structures under the paper's mixed-semantics
    profiles, the boosted set, the lock-based and lock-free baselines —
    is driven by seeded randomized concurrent workloads through the
    recording adapters ({!Polytm_structs.Adapters.Make.record_set}) and
    the resulting operation histories are fed to the structure-level
    checker ({!Polytm_history.Linearizability}).

    Rounds alternate between a {e mixed} workload (the paper's
    contains/add/remove/size mix, scaled down so histories stay
    checkable) and a {e churn} workload engineered to expose non-atomic
    [size]: movers migrate elements from low to high keys while a
    reader keeps asking for the cardinality, so a traversal count can
    observe an element at both its old and its new position — a value
    no instantaneous state ever had, which interval consistency
    rejects.  The genuinely non-atomic sizes (lazy and lock-free
    lists, whose traversals are unsynchronised and can be overtaken)
    are exercised without [size] operations; the pseudo-implementation
    ["buggy-lazy-size"] deliberately claims the lazy list's traversal
    count is atomic and must be rejected — the standing self-test that
    the checker has teeth.

    A finding the harness itself produced: the hand-over-hand list's
    [size], despite being a traversal count, {e is} linearizable.
    Every operation first takes the head sentinel's lock, and lock
    coupling prevents any traversal from overtaking another, so
    operations drain through the list in head-acquisition order — the
    count equals the cardinality at the instant the sweep left the
    head.  It is therefore checked with [size] enabled, churn rounds
    included.  The folklore “traversal counts are not atomic” needs
    traversals that can be overtaken.

    Every failure reproduces from its printed seed: the same
    [(impl, seed, iteration)] triple regenerates both the workload and
    (under the simulator's [Random_sched]) the exact interleaving. *)

module Lin = Polytm_history.Linearizability
module Ad = Polytm_structs.Adapters
module Rng = Polytm_util.Rng

let default_impls =
  [
    "stm-list";
    "stm-hash";
    "stm-skiplist";
    "sharded-map";
    "sharded-hash";
    "sharded-queue";
    "boosted-set";
    "coarse-lock-list";
    "cow-array-set";
    "hand-over-hand-list";
    "lazy-list";
    "lock-free-list";
    "stm-queue";
    "stm-queue-blocking";
    "stm-stack";
    "treiber-stack";
  ]

let all_impls = default_impls @ [ "buggy-lazy-size"; "buggy-norec-validation" ]

let algo_name = function `Tl2 -> "tl2" | `Norec -> "norec"

(* Churn-round geometry: [churn_keys] elements migrate one way from a
   low band (k) to a high band (k + churn_band), across a static
   middle band of [churn_middle] untouched keys that stretches the
   traversal window between the two.  A traversal-count size that sees
   a key at its low position, then sees its migrated copy at the high
   position, reports a cardinality no instant ever had: the migration
   is one-way, so at every instant at most [churn_keys] of the 2 *
   [churn_keys] band slots can possibly be occupied. *)
let churn_keys = 8

let churn_middle = 24

let churn_band = 100

type outcome = Pass of int  (** rounds run *) | Fail of string

module Make (R : Polytm_runtime.Runtime_intf.RUNTIME) = struct
  module AM = Polytm_structs.Adapters.Make (R)

  type made =
    | Set_impl of Ad.set * bool  (** size claimed atomic *)
    | Queue_impl of
        Ad.queue * (unit -> (Lin.queue_op, Lin.queue_res) Lin.event list)
    | Stack_impl of
        Ad.stack * (unit -> (Lin.stack_op, Lin.stack_res) Lin.event list)

  (* [cm] parameterizes the STM-backed structures' contention manager:
     the liveness stress rounds re-run the same workloads under
     [Contention.default_adaptive] (kills, escalations, serial
     fallbacks) and must still produce linearizable histories.
     [algo] selects the ownership/validation policy backing the STM
     structures, so every structure × runtime cell of the matrix runs
     under both TL2 and NOrec.  Baseline structures have neither and
     ignore both. *)
  let build ?cm ?algo name =
    let set ?(atomic_size = true) s = Set_impl (s, atomic_size) in
    let stm () = AM.S.create ?cm ?algo () in
    match name with
    | "stm-list" -> set (AM.stm_list ~profile:Ad.mixed_profile (stm ()))
    | "stm-hash" -> set (AM.stm_hash ~profile:Ad.mixed_profile (stm ()))
    | "stm-skiplist" ->
        set (AM.stm_skiplist ~profile:Ad.mixed_profile (stm ()))
    | "sharded-map" ->
        (* Keyspace partitioned across 8 per-shard instances: point
           ops route to owners, [size] is a cross-shard snapshot — the
           churn rounds hammer exactly the bound-vector protocol. *)
        set
          (AM.sharded_map ~profile:Ad.mixed_profile ~shards:8 (fun _ ->
               stm ()))
    | "sharded-hash" ->
        set
          (AM.sharded_hash ~profile:Ad.mixed_profile ~shards:8 (fun _ ->
               stm ()))
    | "boosted-set" -> set (AM.boosted (stm ()))
    | "coarse-lock-list" -> set (AM.coarse ())
    | "cow-array-set" -> set (AM.cow ())
    | "hand-over-hand-list" ->
        (* Lock-coupled size is a traversal count yet linearizable:
           every op serialises on the head sentinel's lock and can
           never be overtaken, so the count is the cardinality at the
           instant the sweep left the head. *)
        set (AM.hand_over_hand ())
    | "lazy-list" -> set ~atomic_size:false (AM.lazy_list ())
    | "lock-free-list" -> set ~atomic_size:false (AM.lockfree ())
    | "buggy-norec-validation" ->
        (* The second standing self-test, this one aimed at the STM
           layer itself: a NOrec backend whose revalidation skips the
           value comparison.  A transaction whose commit CAS loses
           adopts the new timestamp without checking its reads, then
           commits values computed from state another transaction
           already overwrote — classic lost updates.  The harness must
           reject it with a minimal counterexample, proving the
           differential battery would catch a broken validation. *)
        set
          (AM.stm_list ~profile:Ad.mixed_profile
             (AM.S.create ?cm ~algo:`Norec ~fault:`Skip_validation ()))
    | "buggy-lazy-size" ->
        (* The deliberate bug: the lazy list's unsynchronised traversal
           count passed off as an atomic size.  Unlike hand-over-hand,
           lazy traversals hold no locks and updates overtake them
           freely, so a churning element really can be counted at both
           its old and its new position. *)
        set ~atomic_size:true (AM.lazy_list ())
    | "stm-queue" ->
        let q, events = AM.record_queue (AM.stm_queue (stm ())) in
        Queue_impl (q, events)
    | "sharded-queue" ->
        (* Pinned whole to its key's owner shard: FIFO order cannot be
           hash-partitioned, so the history must be indistinguishable
           from a single-instance queue's.  Each op runs elastic, as a
           client's hint runs it. *)
        let q, events =
          AM.record_queue
            (AM.sharded_queue ~profile:Ad.mixed_profile ~shards:8 (fun _ ->
                 stm ()))
        in
        Queue_impl (q, events)
    | "stm-queue-blocking" ->
        (* Consumers park on empty instead of returning [None]
           immediately; the deadline (virtual ticks under the
           simulator, nanoseconds under domains) turns an
           unreplenished queue into a [None] rather than a hang, so
           drained workloads terminate.  The histories must be
           indistinguishable from the spinning queue's. *)
        let deadline_delta = if R.name = "sim" then 2_000 else 20_000_000 in
        let q, events =
          AM.record_queue (AM.stm_queue_blocking ~deadline_delta (stm ()))
        in
        Queue_impl (q, events)
    | "stm-stack" ->
        let s, events = AM.record_stack (AM.stm_stack (stm ())) in
        Stack_impl (s, events)
    | "treiber-stack" ->
        let s, events = AM.record_stack (AM.treiber ()) in
        Stack_impl (s, events)
    | other ->
        invalid_arg
          (Printf.sprintf "unknown implementation %S; known: %s" other
             (String.concat ", " all_impls))

  (* An operation abandoned because its transaction exhausted its retry
     budget had no effect and produced no response: skip it. *)
  let attempt f = try f () with AM.S.Too_many_attempts _ -> ()

  let set_spec_small atomic_size =
    {
      Workload.initial_size = 8;
      key_range = 16;
      update_pct = 40;
      size_pct = (if atomic_size then 10 else 0);
    }

  let mixed_set_workers ~threads ~ops ~seed ~atomic_size (set : Ad.set) =
    let spec = set_spec_small atomic_size in
    List.init threads (fun t () ->
        let rng = Rng.create ((seed * 31) + t + 1) in
        for _ = 1 to ops do
          attempt (fun () ->
              match Workload.next_op spec rng with
              | Workload.Contains k -> ignore (set.Ad.contains k)
              | Workload.Add k -> ignore (set.Ad.add k)
              | Workload.Remove k -> ignore (set.Ad.remove k)
              | Workload.Size -> ignore (set.Ad.size ()))
        done)

  (* The migration is strictly one-way (low key [i] dies, high key
     [churn_band + i] is born, never the reverse), so at every instant
     each (low, high) pair contributes at most one possible member.  A
     traversal that counts some pair at both positions therefore
     exceeds the possible cardinality of every instant — had the
     movers restored keys afterwards, the re-added low keys would be
     possibly-present again late in the size interval and mask the
     inflation. *)
  let churn_set_workers ~seed:_ (set : Ad.set) =
    let sizer () =
      for _ = 1 to 6 do
        attempt (fun () -> ignore (set.Ad.size ()))
      done
    in
    let mover parity () =
      for i = 0 to churn_keys - 1 do
        if i mod 2 = parity then begin
          attempt (fun () -> ignore (set.Ad.remove i));
          attempt (fun () -> ignore (set.Ad.add (churn_band + i)))
        end
      done
    in
    [ sizer; mover 0; mover 1 ]

  let render_generic pp events =
    Format.asprintf "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf e ->
           Format.fprintf ppf "    %a" pp e))
      events

  let check_generic spec pp events =
    match Lin.witness spec events with
    | Some _ -> Ok ()
    | None ->
        let still_fails evs = Lin.witness spec evs = None in
        let minimal =
          Lin.shrink ~keep:(fun _ -> false) ~still_fails events
        in
        Error
          (Printf.sprintf
             "NOT linearizable: no valid linearization\n\
             \  minimal counterexample history:\n%s"
             (render_generic pp minimal))

  let queue_workers ~threads ~ops ~seed (q : Ad.queue) =
    List.init threads (fun t () ->
        let rng = Rng.create ((seed * 37) + t + 1) in
        for i = 1 to ops do
          attempt (fun () ->
              if Rng.int rng 100 < 55 then q.Ad.enq ((t * 1000) + i)
              else ignore (q.Ad.deq ()))
        done)

  let stack_workers ~threads ~ops ~seed (s : Ad.stack) =
    List.init threads (fun t () ->
        let rng = Rng.create ((seed * 41) + t + 1) in
        for i = 1 to ops do
          attempt (fun () ->
              if Rng.int rng 100 < 55 then s.Ad.push ((t * 1000) + i)
              else ignore (s.Ad.pop ()))
        done)

  (* One conformance round: build a fresh structure, prefill the raw
     structure (prefill is sequential, so it goes into the checker's
     [init] rather than the recorded history — histories stay small and
     counterexamples only show the concurrent phase), wrap it in the
     recording adapter, run the workers (under [wrap], which the
     simulator driver uses to pin the scheduling seed), and check the
     recorded history. *)
  let run_round ?cm ?algo ~wrap ~name ~threads ~ops ~seed ~round () =
    match build ?cm ?algo name with
    | Set_impl (raw, atomic_size) ->
        let churn = atomic_size && round mod 2 = 1 in
        let prefill =
          if churn then
            (* Low band plus static middle-band ballast: the ballast
               lengthens the stretch of list a traversal crosses after
               the low keys and before the high keys, widening the
               window in which a migration can be double-counted. *)
            List.init churn_keys Fun.id
            @ List.init churn_middle (fun k -> churn_keys + k)
          else Workload.prefill_keys (set_spec_small atomic_size)
        in
        List.iter (fun k -> ignore (raw.Ad.add k)) prefill;
        let set, events = AM.record_set raw in
        if churn then wrap (fun () -> R.parallel (churn_set_workers ~seed set))
        else
          wrap (fun () ->
              R.parallel (mixed_set_workers ~threads ~ops ~seed ~atomic_size set));
        (match Lin.check_set ~init:prefill (events ()) with
        | Lin.Linearizable -> Ok ()
        | Lin.Violation _ as v -> Error (Format.asprintf "%a" Lin.pp_verdict v))
    | Queue_impl (q, events) ->
        for i = 1 to 2 do
          q.Ad.enq (-i)
        done;
        wrap (fun () -> R.parallel (queue_workers ~threads ~ops ~seed q));
        check_generic Lin.queue_spec Lin.pp_queue_event (events ())
    | Stack_impl (s, events) ->
        for i = 1 to 2 do
          s.Ad.push (-i)
        done;
        wrap (fun () -> R.parallel (stack_workers ~threads ~ops ~seed s));
        check_generic Lin.stack_spec Lin.pp_stack_event (events ())

  let run_impl ?(threads = 3) ?(ops = 10) ?(wrap = fun _seed f -> f ()) ?cm
      ?(algo = `Tl2) ~name ~seed ~iters () =
    let rec loop i =
      if i >= iters then Pass i
      else begin
        let round_seed = seed + (997 * i) in
        match
          run_round ?cm ~algo ~wrap:(wrap round_seed) ~name ~threads ~ops
            ~seed:round_seed ~round:i ()
        with
        | Ok () -> loop (i + 1)
        | Error msg ->
            Fail
              (Printf.sprintf
                 "conformance failure: impl %s, algo %s, iteration %d, seed %d\n\
                  reproduce: tmcheck conformance --impl %s --algo %s --seed \
                  %d --iters %d\n\
                  %s"
                 name (algo_name algo) i round_seed name (algo_name algo) seed
                 (i + 1) msg)
      end
    in
    loop 0
end

(** Prebuilt drivers for the two runtimes. *)

module Sim_conf = Make (Polytm_runtime.Sim_runtime)
module Domain_conf = Make (Polytm_runtime.Domain_runtime)

let sim_wrap seed f =
  ignore
    (Polytm_runtime.Sim.run ~policy:(Polytm_runtime.Sim.Random_sched seed) f)

let run_sim ?threads ?ops ?cm ?algo ~name ~seed ~iters () =
  Sim_conf.run_impl ?threads ?ops ~wrap:sim_wrap ?cm ?algo ~name ~seed ~iters ()

let run_domains ?threads ?ops ?cm ?algo ~name ~seed ~iters () =
  Domain_conf.run_impl ?threads ?ops ?cm ?algo ~name ~seed ~iters ()
