(** Sharded transactional structures: key ranges partitioned across a
    {!Polytm.Shard} router's instances, behind the existing structure
    APIs.

    Each shard holds an ordinary single-instance structure (an
    {!Stm_map} part, an {!Stm_hash_set} part) on that shard's own STM
    instance.  Point operations hash-route to the owner part and run
    exactly the one-shot single-instance transaction they always did —
    no cross-shard cost.  Whole-structure aggregates ([size], [fold],
    [to_list]) run as one {!Polytm.Stm_intf.S.atomically_multi} of the
    structure's [size_sem] over every shard — a consistent bound vector
    for [Snapshot], a cross-shard atomic transaction otherwise — so the
    polymorphic-semantics story survives sharding unchanged.  A
    [MULTI]-style batch touching several shards wraps its point
    operations in the same call; the nested calls flatten into the
    members exactly as they flatten into a single instance.

    With a 1-shard router every operation degenerates to the
    single-instance code path, which is what the differential battery
    checks: any op sequence must leave a 1-shard and a 16-shard store
    with identical committed contents. *)

open Polytm

module Make (S : Stm_intf.S) = struct
  module Router = Shard.Make (S)
  module Map_part = Stm_map.Make (S)
  module Hash_part = Stm_hash_set.Make (S)
  module Queue_part = Stm_queue.Make (S)

  module Map = struct
    type 'v t = {
      router : Router.t;
      parts : 'v Map_part.t array;
      size_sem : Semantics.t;
    }

    let create ?(size_sem = Semantics.Classic) router =
      {
        router;
        parts =
          Array.init (Router.count router) (fun i ->
              Map_part.create ~size_sem (Router.shard router i));
        size_sem;
      }

    let part t k = t.parts.(Router.index_of_hash t.router k)

    (* Placement introspection, for callers (the server session) that
       must open their outer transaction on the key's owner instance
       so the routed point operation flattens into it. *)
    let owner t k = Router.owner_of_hash t.router k
    let instances t = Router.all t.router
    let shard_count t = Router.count t.router

    (* Point operations: the owner part's ordinary one-shot path. *)
    let add t k v = Map_part.add (part t k) k v
    let remove t k = Map_part.remove (part t k) k
    let find_opt t k = Map_part.find_opt (part t k) k
    let mem t k = Map_part.mem (part t k) k

    let size t =
      Router.atomically_all ~sem:t.size_sem ~label:"size" t.router
        (fun () ->
          Array.fold_left (fun acc m -> acc + Map_part.size m) 0 t.parts)

    (* Each part folds in ascending key order; a k-way merge keeps the
       global order without re-sorting. *)
    let to_list t =
      Router.atomically_all ~sem:t.size_sem ~label:"to-list" t.router
        (fun () ->
          Array.fold_left
            (fun acc m ->
              List.merge
                (fun (a, _) (b, _) -> compare a b)
                acc (Map_part.to_list m))
            [] t.parts)

    let fold t f init =
      List.fold_left (fun acc (k, v) -> f acc k v) init (to_list t)

    let invariants_hold t = Array.for_all Map_part.invariants_hold t.parts
  end

  module Hash_set = struct
    type t = {
      router : Router.t;
      parts : Hash_part.t array;
      size_sem : Semantics.t;
    }

    let create ?(parse_sem = Semantics.Classic)
        ?(size_sem = Semantics.Classic) ?buckets router =
      {
        router;
        parts =
          Array.init (Router.count router) (fun i ->
              Hash_part.create ~parse_sem ~size_sem ?buckets
                (Router.shard router i));
        size_sem;
      }

    let part t v = t.parts.(Router.index_of_hash t.router v)
    let owner t v = Router.owner_of_hash t.router v
    let instances t = Router.all t.router
    let shard_count t = Router.count t.router
    let add t v = Hash_part.add (part t v) v
    let remove t v = Hash_part.remove (part t v) v
    let contains t v = Hash_part.contains (part t v) v

    let size t =
      Router.atomically_all ~sem:t.size_sem ~label:"size" t.router
        (fun () ->
          Array.fold_left (fun acc s -> acc + Hash_part.size s) 0 t.parts)

    let to_list t =
      Router.atomically_all ~sem:t.size_sem ~label:"to-list" t.router
        (fun () ->
          List.sort compare
            (Array.fold_left
               (fun acc s -> List.rev_append (Hash_part.to_list s) acc)
               [] t.parts))
  end

  (* FIFO order cannot be hash-partitioned element-wise, so a
     "sharded" queue is pinned whole to the shard owning its key:
     distinct queues land on distinct shards and stop contending with
     each other (and with the maps' keyspace), while each queue keeps
     the plain single-instance code — including parked [retry]
     consumers, which wait on the owner instance's queue. *)
  let queue_on router key = Queue_part.create (Router.owner router key)
end
