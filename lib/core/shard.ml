(** Shard router: [K] independent STM instances behind one store.

    Everything in a single instance funnels through one clock word
    (TL2's version clock, NOrec's sequence lock), one wait queue and
    one contention manager; under multi-domain load those words are
    the scalability ceiling.  The router owns [K] instances — each
    with its own clock, waiter registry and contention manager, TL2 or
    NOrec per shard — and hash-routes keys to their {e owner} shard,
    so single-key operations touch exactly one instance and proceed
    lock-free with respect to every other shard.

    Operations that genuinely span shards (cross-shard [MULTI]
    batches, whole-store aggregates) run as one STM transaction over
    several member instances: {!Stm_intf.S.atomically_multi}, whose
    commit is a two-phase commit over the member shard clocks (and,
    for a snapshot, whose bound is a consistent vector of them).  The
    router's job is purely {e placement}: deciding which instances are
    involved and keeping that decision deterministic.  With [K = 1]
    every routed call lands on the single instance, the member list
    has one entry, and the transaction is the ordinary single-instance
    one, so a 1-shard router is behaviourally identical to no router
    at all.

    Patterned after the per-locale descriptor tables of the Chapel
    distributed-object exemplars: a fixed array of homes plus a pure
    placement function, never a global lock. *)

module Make (S : Stm_intf.S) = struct
  type t = { shards : S.t array }

  let create ?(shards = 1) mk =
    if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
    { shards = Array.init shards mk }

  let count t = Array.length t.shards
  let shard t i = t.shards.(i)

  (* Canonical member list, creation order — the same order
     [atomically_multi] acquires intents in. *)
  let all t = Array.to_list t.shards

  (* Placement.  Integer keys get a Fibonacci mix (consecutive keys
     spread across shards, so range-partitioned workloads still
     balance); strings get FNV-1a.  Both are deterministic across
     runs and processes — a client may precompute its key's shard. *)
  let index_of_hash t h =
    let h = h * 0x9E3779B1 in
    let h = h lxor (h lsr 16) in
    (h land max_int) mod Array.length t.shards

  let hash_string s =
    let h = ref 0x811c9dc5 in
    String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193) s;
    !h land max_int

  let index_of_key t key = index_of_hash t (hash_string key)
  let owner_of_hash t h = t.shards.(index_of_hash t h)
  let owner t key = t.shards.(index_of_key t key)

  (* A whole-store transaction spanning every shard — an atomic update,
     or a consistent cut for [sem:Snapshot].  With one shard it is
     exactly [atomically]. *)
  let atomically_all ?sem ?label ?budget t f =
    S.atomically_multi ?sem ?label ?budget (all t) f
end
