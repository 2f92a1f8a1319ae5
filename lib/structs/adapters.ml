(** First-class adapters: every set implementation behind one record of
    closures, so the correctness tests and the benchmark harness can
    sweep over implementations uniformly.

    [Make (R)] instantiates the whole zoo — the STM structures over an
    [Stm.Make (R)] instance and all baselines — for one runtime. *)

open Polytm
module Lin = Polytm_history.Linearizability

type set = {
  name : string;
  add : int -> bool;
  remove : int -> bool;
  contains : int -> bool;
  size : unit -> int;
  to_list : unit -> int list;
}

(** Queue and stack counterparts of {!set}, for the conformance
    harness's FIFO/LIFO workloads. *)
type queue = { q_name : string; enq : int -> unit; deq : unit -> int option }

type stack = { s_name : string; push : int -> unit; pop : unit -> int option }

(** Per-operation semantics assignment for the STM structures: the
    three configurations of the paper's evaluation. *)
type profile = {
  profile_name : string;
  parse_sem : Semantics.t;
  size_sem : Semantics.t;
}

let classic_profile =
  { profile_name = "classic"; parse_sem = Classic; size_sem = Classic }

(** Figure 7's configuration: elastic parses, classic size. *)
let elastic_classic_profile =
  { profile_name = "elastic+classic"; parse_sem = Elastic; size_sem = Classic }

(** Figure 9's configuration: elastic parses, snapshot size. *)
let mixed_profile =
  { profile_name = "elastic+snapshot"; parse_sem = Elastic; size_sem = Snapshot }

module Make (R : Polytm_runtime.Runtime_intf.RUNTIME) = struct
  module S = Stm.Make (R)
  module Sharded = Sharded.Make (S)
  module List_set = Stm_list_set.Make (S)
  module Hash_set = Stm_hash_set.Make (S)
  module Skiplist = Stm_skiplist.Make (S)
  module Queue = Stm_queue.Make (S)
  module Stack = Stm_stack.Make (S)
  module Boosted = Boosted_set.Make (R) (S)
  module Treiber = Treiber_stack.Make (R)
  module Seq = Seq_list.Make (R)
  module Coarse = Coarse_list.Make (R)
  module Hoh = Hoh_list.Make (R)
  module Lazy_l = Lazy_list.Make (R)
  module Lockfree = Lockfree_list.Make (R)
  module Cow = Cow_set.Make (R)

  let seq () =
    let t = Seq.create () in
    {
      name = "seq-list";
      add = Seq.add t;
      remove = Seq.remove t;
      contains = Seq.contains t;
      size = (fun () -> Seq.size t);
      to_list = (fun () -> Seq.to_list t);
    }

  let coarse () =
    let t = Coarse.create () in
    {
      name = "coarse-lock-list";
      add = Coarse.add t;
      remove = Coarse.remove t;
      contains = Coarse.contains t;
      size = (fun () -> Coarse.size t);
      to_list = (fun () -> Coarse.to_list t);
    }

  let hand_over_hand () =
    let t = Hoh.create () in
    {
      name = "hand-over-hand-list";
      add = Hoh.add t;
      remove = Hoh.remove t;
      contains = Hoh.contains t;
      size = (fun () -> Hoh.size t);
      to_list = (fun () -> Hoh.to_list t);
    }

  let lazy_list () =
    let t = Lazy_l.create () in
    {
      name = "lazy-list";
      add = Lazy_l.add t;
      remove = Lazy_l.remove t;
      contains = Lazy_l.contains t;
      size = (fun () -> Lazy_l.size t);
      to_list = (fun () -> Lazy_l.to_list t);
    }

  let lockfree () =
    let t = Lockfree.create () in
    {
      name = "lock-free-list";
      add = Lockfree.add t;
      remove = Lockfree.remove t;
      contains = Lockfree.contains t;
      size = (fun () -> Lockfree.size t);
      to_list = (fun () -> Lockfree.to_list t);
    }

  let cow () =
    let t = Cow.create () in
    {
      name = "cow-array-set";
      add = Cow.add t;
      remove = Cow.remove t;
      contains = Cow.contains t;
      size = (fun () -> Cow.size t);
      to_list = (fun () -> Cow.to_list t);
    }

  let stm_list ?(profile = classic_profile) stm =
    let t =
      List_set.create ~parse_sem:profile.parse_sem ~size_sem:profile.size_sem
        stm
    in
    {
      name = "stm-list(" ^ profile.profile_name ^ ")";
      add = List_set.add t;
      remove = List_set.remove t;
      contains = List_set.contains t;
      size = (fun () -> List_set.size t);
      to_list = (fun () -> List_set.to_list t);
    }

  let stm_hash ?(profile = classic_profile) ?buckets stm =
    let t =
      Hash_set.create ~parse_sem:profile.parse_sem ~size_sem:profile.size_sem
        ?buckets stm
    in
    {
      name = "stm-hash(" ^ profile.profile_name ^ ")";
      add = Hash_set.add t;
      remove = Hash_set.remove t;
      contains = Hash_set.contains t;
      size = (fun () -> Hash_set.size t);
      to_list = (fun () -> Hash_set.to_list t);
    }

  let stm_skiplist ?(profile = classic_profile) stm =
    let t =
      Skiplist.create ~parse_sem:profile.parse_sem ~size_sem:profile.size_sem
        stm
    in
    {
      name = "stm-skiplist(" ^ profile.profile_name ^ ")";
      add = Skiplist.add t;
      remove = Skiplist.remove t;
      contains = Skiplist.contains t;
      size = (fun () -> Skiplist.size t);
      to_list = (fun () -> Skiplist.to_list t);
    }

  (* Sharded variants: the same structure APIs, key ranges partitioned
     across a shard router (one STM instance per shard, point ops
     routed to the owner, aggregates through the cross-instance
     protocols).  [mk] creates each shard's instance, so callers pin
     the contention manager and algorithm per shard. *)

  let sharded_map ?(profile = classic_profile) ?(shards = 4) mk =
    let router = Sharded.Router.create ~shards mk in
    let t = Sharded.Map.create ~size_sem:profile.size_sem router in
    (* A point op runs in the profile's parse semantics on its key's
       owner instance, as the server runs a request under a client's
       hint: the map's own transaction flattens into it. *)
    let hinted op k =
      S.atomically ~sem:profile.parse_sem (Sharded.Map.owner t k) (fun _ ->
          op t k)
    in
    {
      name = Printf.sprintf "sharded-map(%s,%d)" profile.profile_name shards;
      add = hinted (fun t k -> Sharded.Map.add t k ());
      remove = hinted Sharded.Map.remove;
      contains = hinted Sharded.Map.mem;
      size = (fun () -> Sharded.Map.size t);
      to_list = (fun () -> List.map fst (Sharded.Map.to_list t));
    }

  let sharded_hash ?(profile = classic_profile) ?(shards = 4) ?buckets mk =
    let router = Sharded.Router.create ~shards mk in
    let t =
      Sharded.Hash_set.create ~parse_sem:profile.parse_sem
        ~size_sem:profile.size_sem ?buckets router
    in
    {
      name = Printf.sprintf "sharded-hash(%s,%d)" profile.profile_name shards;
      add = Sharded.Hash_set.add t;
      remove = Sharded.Hash_set.remove t;
      contains = Sharded.Hash_set.contains t;
      size = (fun () -> Sharded.Hash_set.size t);
      to_list = (fun () -> Sharded.Hash_set.to_list t);
    }

  (* A sharded queue is pinned whole to its key's owner shard (FIFO
     cannot be hash-partitioned element-wise); the adapter's point is
     that the pinned queue behaves exactly like a single-instance
     one.  Each op runs in the profile's parse semantics on that shard,
     as the server runs a hinted ENQ or DEQ: the queue's own
     transaction flattens into it. *)
  let sharded_queue ?(profile = classic_profile) ?(shards = 4) mk =
    let router = Sharded.Router.create ~shards mk in
    let home = Sharded.Router.owner router "conformance-queue" in
    let t = Sharded.Queue_part.create home in
    let hinted f = S.atomically ~sem:profile.parse_sem home (fun _ -> f ()) in
    {
      q_name = Printf.sprintf "sharded-queue(%s,%d)" profile.profile_name shards;
      enq = (fun v -> hinted (fun () -> Sharded.Queue_part.enqueue t v));
      deq = (fun () -> hinted (fun () -> Sharded.Queue_part.dequeue_opt t));
    }

  let boosted ?buckets stm =
    let t = Boosted.create ?buckets () in
    {
      name = "boosted-set";
      add =
        (fun k -> S.atomically ~label:"add" stm (fun tx -> Boosted.add tx t k));
      remove =
        (fun k ->
          S.atomically ~label:"remove" stm (fun tx -> Boosted.remove tx t k));
      contains =
        (fun k ->
          S.atomically ~label:"contains" stm (fun tx -> Boosted.contains tx t k));
      size =
        (fun () -> S.atomically ~label:"size" stm (fun tx -> Boosted.size tx t));
      to_list = (fun () -> Boosted.to_list t);
    }

  let stm_queue stm =
    let t = Queue.create stm in
    {
      q_name = "stm-queue";
      enq = Queue.enqueue t;
      deq = (fun () -> Queue.dequeue_opt t);
    }

  (* Same queue, but consumers *block*: an empty dequeue parks via
     [retry] until a producer's commit wakes it, bounded by
     [deadline_delta] (runtime clock units) so a workload that drains
     the queue ends with [None] instead of a deadlock.  Exists so the
     conformance matrix can check that parking consumers observe
     exactly the histories spinning ones do. *)
  let stm_queue_blocking ~deadline_delta stm =
    let t = Queue.create stm in
    {
      q_name = "stm-queue-blocking";
      enq = Queue.enqueue t;
      deq =
        (fun () ->
          match
            S.try_atomically ~label:"take"
              ~deadline:(R.now () + deadline_delta)
              stm
              (fun tx -> Queue.take_tx tx t)
          with
          | S.Committed v -> Some v
          | S.Exhausted _ | S.Deadline_exceeded _ -> None);
    }

  let stm_stack stm =
    let t = Stack.create stm in
    {
      s_name = "stm-stack";
      push = Stack.push t;
      pop = (fun () -> Stack.pop t);
    }

  let treiber () =
    let t = Treiber.create () in
    {
      s_name = "treiber-stack";
      push = Treiber.push t;
      pop = (fun () -> Treiber.pop t);
    }

  (* ---- operation-history recording -------------------------------------

     [record_set s] (and the queue/stack variants) wraps an adapter so
     every call is logged as a timed {!Lin.event} the linearizability
     checker consumes.  Timestamps come from a shared completion
     counter, not from clocks: an operation's [inv] is the number of
     completions it observed before starting, its [ret] the index its
     own completion received.  [ret_a < inv_b] then certifies that [a]'s
     effect landed before [b] began — sound under the simulator with
     {e any} scheduling policy (per-thread virtual clocks drift apart
     under [Random_sched]) and under real domains alike, and the
     deliberately widened intervals can only make the checker more
     permissive, never trigger a false alarm. *)

  type 'e log = { cells : 'e list R.atomic; completions : int R.atomic }

  let make_log () = { cells = R.atomic []; completions = R.atomic 0 }

  let timed log mk f =
    let thread = R.self_id () in
    let inv = R.get log.completions in
    let r = f () in
    let ret = R.fetch_and_add log.completions 1 in
    let e = mk ~thread ~inv ~ret r in
    let rec push () =
      let cur = R.get log.cells in
      if not (R.cas log.cells cur (e :: cur)) then push ()
    in
    push ();
    r

  let recorded log =
    List.sort
      (fun a b -> compare (a.Lin.inv, a.Lin.ret) (b.Lin.inv, b.Lin.ret))
      (R.get log.cells)

  let record_set (s : set) =
    let log = make_log () in
    let ev op result ~thread ~inv ~ret = { Lin.thread; op; result; inv; ret } in
    ( {
        s with
        add =
          (fun k ->
            timed log
              (fun ~thread ~inv ~ret r -> ev (Lin.Add k) (Lin.Bool r) ~thread ~inv ~ret)
              (fun () -> s.add k));
        remove =
          (fun k ->
            timed log
              (fun ~thread ~inv ~ret r ->
                ev (Lin.Remove k) (Lin.Bool r) ~thread ~inv ~ret)
              (fun () -> s.remove k));
        contains =
          (fun k ->
            timed log
              (fun ~thread ~inv ~ret r ->
                ev (Lin.Contains k) (Lin.Bool r) ~thread ~inv ~ret)
              (fun () -> s.contains k));
        size =
          (fun () ->
            timed log
              (fun ~thread ~inv ~ret r -> ev Lin.Size (Lin.Int r) ~thread ~inv ~ret)
              s.size);
      },
      fun () -> recorded log )

  let record_queue (q : queue) =
    let log = make_log () in
    ( {
        q with
        enq =
          (fun v ->
            timed log
              (fun ~thread ~inv ~ret () ->
                { Lin.thread; op = Lin.Enqueue v; result = Lin.Enqueued; inv; ret })
              (fun () -> q.enq v));
        deq =
          (fun () ->
            timed log
              (fun ~thread ~inv ~ret r ->
                { Lin.thread; op = Lin.Dequeue; result = Lin.Dequeued r; inv; ret })
              q.deq);
      },
      fun () -> recorded log )

  let record_stack (s : stack) =
    let log = make_log () in
    ( {
        s with
        push =
          (fun v ->
            timed log
              (fun ~thread ~inv ~ret () ->
                { Lin.thread; op = Lin.Push v; result = Lin.Pushed; inv; ret })
              (fun () -> s.push v));
        pop =
          (fun () ->
            timed log
              (fun ~thread ~inv ~ret r ->
                { Lin.thread; op = Lin.Pop; result = Lin.Popped r; inv; ret })
              s.pop);
      },
      fun () -> recorded log )
end
