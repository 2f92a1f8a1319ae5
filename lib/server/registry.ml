(** Named transactional structures hosted by the server, plus the
    translation from wire commands to STM operations.

    One registry owns two {e shard routers} over the domains runtime —
    one per algorithm, TL2 and NORec — each holding [shards]
    independent STM instances (own clock, wait queue, contention
    manager; DESIGN.md §S20).  Structures are sharded: a map or set
    partitions its key range across the owner router's instances
    behind the unchanged structure API, and a queue (whose FIFO order
    cannot be hash-partitioned) is pinned whole to the shard owning
    its name.  Each structure is pinned at creation to one algorithm;
    the session runs the per-request transaction over the instance(s)
    the operation touches — the owner shard for a point operation, the
    whole router for a cross-shard aggregate — which is what lets
    nested structure operations flatten into it.  With [shards = 1]
    (the default) every member list has one entry, and the transaction
    is the single-instance one the pre-sharding server ran.  The name
    table itself is a persistent association list behind an [Atomic]:
    lookups on the request hot path are a single atomic load, and the
    rare creations CAS a new list in.  The {e contents} of every structure are
    transactional — the registry only maps names to roots.  On a
    durable server the registry also holds the server's op log
    ({!Polytm_persist.Oplog}), which the session and {!ensure} call
    directly.

    Command execution is split in two phases on purpose:

    - {!resolve} runs {e outside} any transaction: it checks the
      structure exists and the operation matches its kind, returning
      either an error response or a {!resolved} record naming the
      {!site} (which instances are involved) and the thunk.  Blocking
      pops resolve like every other command: their thunk calls
      [S.retry] on an empty queue, and the session runs it with a
      [wake] ([S.try_atomically_one ~wake] on one instance), which
      registers the wait with a wake that posts the session's resume
      to its own loop.  Ending a wait (a wake, a timeout, a hang-up,
      the session's drain) is the session's job too; the registry
      keeps no shutdown state.  Counting a request in INFO's [ops] is
      the session's job, not [resolve]'s: replay resolves every logged
      record too.
    - the thunk runs {e inside} the session's transaction, one
      [try_atomically_one] on a {!Single} site and one
      [try_atomically_multi] over a {!Spanning} site's instances; the
      structure operations it calls open nested transactions that
      flatten into it.

    Pre-resolving keeps failures atomic: a [MULTI] batch either
    resolves completely or executes not at all, so no partial batch is
    ever visible.  Whole-structure reads — SNAPSHOT-ITER's reply tree
    and stream, and the checkpoint writer — share one per-kind read,
    {!contents}. *)

module S = Polytm.Stm.Make (Polytm_runtime.Domain_runtime)
module Shd = Polytm_structs.Sharded.Make (S)
module Router = Shd.Router
module Squeue = Shd.Queue_part

type entry =
  | Emap of string Shd.Map.t
  | Eset of Shd.Hash_set.t
  | Equeue of string Squeue.t * int
      (** the queue and the index of the shard it is pinned to *)

type algo = [ `Tl2 | `Norec ]

(* A structure is pinned to the algorithm (and router) it was created
   on.  [dirty] and [watchers] drive WATCH push subscriptions: every
   dirty flag, whatever the structure's algorithm, lives on the TL2
   router's {e control shard} (shard 0), so one watch wait covers a
   session's watches on both algorithms.  The session marks the flag
   after a mutation's commit, as a transaction of its own (the
   mutation's owner shard cannot host a transaction over the control
   shard's tvar, and marking {e before} the data commit could let a
   watcher consume the notification, re-read stale data, and never
   hear about the actual change).  A watching session's wait
   transaction reads (and clears) the flags, registering its wait via
   [S.retry] until the next mark's commit wakes it. *)
type slot = {
  entry : entry;
  algo : algo;
  dirty : bool S.tvar;
  watchers : int Atomic.t;
  ops : int Atomic.t;
      (** client requests resolved against this slot, for [INFO]: the
          session counts each once when it resolves, whether or not
          its transaction later succeeds; replay never counts *)
}

type t = {
  tl2 : Router.t;
  norec : Router.t;
  default_algo : algo;  (** applied to wire [NEW] (no algo on the wire) *)
  entries : (string * slot) list Atomic.t;
  waiters : int Atomic.t;
      (** registered blocking pops, server-wide: one budget across
          every instance of both routers (see {!reserve_waiter}) *)
  fd_refused : int Atomic.t;
      (** connections closed on arrival because their fd was at or
          above {!Limits.fd_limit}, for [INFO] *)
  handler_errors : int Atomic.t;
      (** connections closed because a handler of theirs raised, for
          [INFO] *)
  started_at : float;  (** wall-clock creation time, for [INFO] uptime *)
  mutable persist : Wire.cmd Polytm_persist.Oplog.t option;
      (** this server's op log: the session arms it and waits on it,
          {!ensure} logs creations to it, INFO reads it.  Set once,
          after recovery and before the listeners open; [None] while
          recovering and on non-persistent servers *)
}

let create ?(shards = 1) ?stm ?stm_norec ?(default_algo = `Tl2) () =
  if shards < 1 then invalid_arg "Registry: shards must be >= 1";
  (match stm with
  | Some s when S.algo s <> `Tl2 ->
      invalid_arg "Registry: stm must be a TL2 instance"
  | _ -> ());
  (match stm_norec with
  | Some s when S.algo s <> `Norec ->
      invalid_arg "Registry: stm_norec must be a NORec instance"
  | _ -> ());
  (* An injected instance (tests pin instances for determinism)
     becomes shard 0; further shards are fresh siblings. *)
  let tl2 =
    Router.create ~shards (fun i ->
        match (i, stm) with 0, Some s -> s | _ -> S.create ())
  in
  let norec =
    Router.create ~shards (fun i ->
        match (i, stm_norec) with
        | 0, Some s -> s
        | _ -> S.create ~algo:`Norec ())
  in
  {
    tl2;
    norec;
    default_algo;
    entries = Atomic.make [];
    waiters = Atomic.make 0;
    fd_refused = Atomic.make 0;
    handler_errors = Atomic.make 0;
    started_at = Unix.gettimeofday ();
    persist = None;
  }

let router_for t = function `Tl2 -> t.tl2 | `Norec -> t.norec
let shard_count t = Router.count t.tl2

(* The control shard: shard 0 of a router.  The TL2 one holds every
   WATCH dirty flag.  With one shard it {e is} the instance, so these
   accessors keep their pre-sharding meaning. *)
let stm t = Router.shard t.tl2 0
let stm_for t algo = Router.shard (router_for t algo) 0
let instances t algo = Router.all (router_for t algo)
let default_algo t = t.default_algo

(* ---- the server-wide waiter budget ------------------------------------- *)

(* One atomic budget for every registered blocking pop on the server,
   whatever instance it waits on.  The pre-sharding admission check
   compared [S.waiting] of the {e one} instance the op targeted
   against the cap, which (a) let TL2 and NORec waiters each fill a
   whole cap — and K shards fill K caps — and (b) raced: two sessions
   could both pass the check and both park past the limit.  Reserving
   a slot when the pop first registers (and releasing it when the pop
   replies, times out or its session closes) closes both holes: the
   CAS admits at most [limit] reservations no matter how many
   instances exist or how the checks interleave. *)
let reserve_waiter t ~limit =
  let rec go () =
    let n = Atomic.get t.waiters in
    if n >= limit then false
    else if Atomic.compare_and_set t.waiters n (n + 1) then true
    else go ()
  in
  go ()

let release_waiter t = Atomic.decr t.waiters
let waiting t = Atomic.get t.waiters
let algo_name = function `Tl2 -> "tl2" | `Norec -> "norec"

let algo_of_name = function
  | "tl2" -> Some `Tl2
  | "norec" -> Some `Norec
  | _ -> None

(* The slot named [name] in a name table: one [String.equal]
   per entry, where [List.assoc_opt] calls the polymorphic [compare].
   Every lookup by name goes through here. *)
let rec find_slot name = function
  | [] -> None
  | (n, s) :: rest -> if String.equal n name then Some s else find_slot name rest

let lookup t name = find_slot name (Atomic.get t.entries)
let algo_of t name = Option.map (fun s -> s.algo) (lookup t name)

let kind_of_entry = function
  | Emap _ -> Wire.Kmap
  | Eset _ -> Wire.Kset
  | Equeue _ -> Wire.Kqueue

(* Idempotent creation: NEW of an existing name succeeds when the kind
   matches (so clients can ensure their structures without
   coordination) and is a typed error when it does not.  The algorithm
   is fixed at first creation — the wire carries no algo, so an
   ensure of an existing name never migrates it between instances.

   First-touch race audit: two sessions racing to create ["map:x"]
   both build a fresh slot, but the CAS linearises them — exactly one
   swaps its slot in; the loser re-runs [go], finds the winner's slot
   under the name, and converges on it ([Ok `Existed]).  The loser's
   orphan structure was never published and is collected.  A lookup
   racing the creation either sees the old list (NOSTRUCT — the
   structure did not exist yet at its linearisation point) or the new
   one; it can never see a half-initialised slot because the slot is
   fully built before the CAS publishes it.  The socketpair e2e test
   hammers this with racing first-touch creation from four
   connections. *)
let ensure ?algo t kind name =
  let algo = Option.value algo ~default:t.default_algo in
  let router = router_for t algo in
  let fresh () =
    let entry =
      match kind with
      | Wire.Kmap -> Emap (Shd.Map.create router)
      | Wire.Kset -> Eset (Shd.Hash_set.create router)
      | Wire.Kqueue ->
          let home = Router.index_of_key router name in
          Equeue (Squeue.create (Router.shard router home), home)
    in
    {
      entry;
      algo;
      dirty = S.tvar (stm t) false;
      watchers = Atomic.make 0;
      ops = Atomic.make 0;
    }
  in
  let rec go () =
    let cur = Atomic.get t.entries in
    match find_slot name cur with
    | Some s ->
        if kind_of_entry s.entry = kind then Ok `Existed
        else
          (* [%S]: an error line may not hold the name's raw bytes *)
          Error
            (Wire.Error
               ( Wire.Bad_op,
                 Printf.sprintf "%S exists with kind %s" name
                   (Wire.kind_to_string (kind_of_entry s.entry)) ))
    | None ->
        (* Log the creation {e before} the CAS publishes the name: a
           racing session can only reach the structure (and append op
           records for it) after the CAS, so the NEW record always
           precedes the ops that need it.  A CAS loser's duplicate NEW
           replays as an idempotent ensure.  A NEW record the log
           could not append raises here, before anything is
           published. *)
        (match t.persist with
        | Some log ->
            Polytm_persist.Oplog.log_new log ~algo [ Wire.New (kind, name) ]
        | None -> ());
        if Atomic.compare_and_set t.entries cur ((name, fresh ()) :: cur) then
          Ok `Created
        else go ()
  in
  go ()

(* ---- command resolution ------------------------------------------------ *)

let err code fmt = Printf.ksprintf (fun m -> Wire.Error (code, m)) fmt
let no_struct name = Error (err Wire.No_struct "no structure named %S" name)

let bool_resp b = Wire.Int (if b then 1 else 0)

let mismatch cmd entry =
  err Wire.Bad_op "%s does not apply to a %s" (Wire.cmd_name cmd)
    (Wire.kind_to_string (kind_of_entry entry))

(* Where a resolved command's transaction must run: one owner instance
   (point operations, anything on a pinned queue, every operation of a
   1-shard server) or the set of instances a cross-shard aggregate
   spans.  Consumers only ask for the {!members}: the session runs one
   transaction over them, and the thunk flattens into it. *)
type site = Single of S.t | Spanning of S.t list

let members = function Single s -> [ s ] | Spanning l -> l

type resolved = {
  algo : algo;
  site : site;
  slot : slot;
  mutates : bool;
      (** a mutating command: mark [slot] dirty once the transaction
          committed *)
  run : unit -> Wire.response;
}

(* Mark a mutated slot changed.  The session calls it after the
   mutation's commit, as its own small transaction on the control
   shard.  Watch-free structures pay one atomic load and no
   transactional write — enabling subscriptions costs nothing until
   someone subscribes. *)
let touch t r =
  if r.mutates && Atomic.get r.slot.watchers > 0 then
    S.atomically ~label:"mark-dirty" (stm t) (fun tx ->
        S.write tx r.slot.dirty true)

let home_of t (s : slot) home = Router.shard (router_for t s.algo) home

(* The aggregate site of a sharded structure: its whole router, unless
   the server runs one shard (then the aggregate is an ordinary
   single-instance transaction — exactly the pre-sharding path). *)
let span insts = match insts with [ s ] -> Single s | l -> Spanning l

(* The site of a whole-structure read: a map's or set's aggregate
   site, or a queue's home shard. *)
let whole t s =
  match s.entry with
  | Emap m -> span (Shd.Map.instances m)
  | Eset hs -> span (Shd.Hash_set.instances hs)
  | Equeue (_, home) -> Single (home_of t s home)

type contents =
  | Pairs of (int * string) list  (** a map's bindings, ascending keys *)
  | Keys of int list  (** a set's members, ascending *)
  | Values of string list  (** a queue's elements, front first *)

(* The one per-kind read of a structure's whole contents, in wire
   order: a sharded map or set reads in global key order, whatever the
   shard count.  It runs inside the caller's transaction over
   {!whole}'s members (or a wider one: the checkpoint's snapshot spans
   every shard). *)
let contents s =
  match s.entry with
  | Emap m -> Pairs (Shd.Map.to_list m)
  | Eset hs -> Keys (Shd.Hash_set.to_list hs)
  | Equeue (q, _) -> Values (Squeue.to_list q)

let ok (s : slot) site run =
  Ok { algo = s.algo; site; slot = s; mutates = false; run }

let mutating (s : slot) site run =
  Ok { algo = s.algo; site; slot = s; mutates = true; run }

let resolve t cmd : (resolved, Wire.response) result =
  match cmd with
  | Wire.Get (name, _) | Wire.Put (name, _, _) | Wire.Del (name, _)
  | Wire.Contains (name, _) | Wire.Add (name, _) | Wire.Remove (name, _)
  | Wire.Size name | Wire.Snapshot_iter name | Wire.Enq (name, _)
  | Wire.Deq name | Wire.Blpop (name, _) | Wire.Btake (name, _) -> (
      match lookup t name with
      | None -> no_struct name
      | Some s -> (
          match (cmd, s.entry) with
          | Wire.Get (_, key), Emap m ->
              ok s
                (Single (Shd.Map.owner m key))
                (fun () ->
                  match Shd.Map.find_opt m key with
                  | Some v -> Wire.Bulk v
                  | None -> Wire.Nil)
          | Wire.Put (_, key, v), Emap m ->
              mutating s
                (Single (Shd.Map.owner m key))
                (fun () -> bool_resp (Shd.Map.add m key v))
          | Wire.Del (_, key), Emap m ->
              mutating s
                (Single (Shd.Map.owner m key))
                (fun () -> bool_resp (Shd.Map.remove m key))
          | Wire.Contains (_, key), Emap m ->
              ok s
                (Single (Shd.Map.owner m key))
                (fun () -> bool_resp (Shd.Map.mem m key))
          | Wire.Contains (_, key), Eset hs ->
              ok s
                (Single (Shd.Hash_set.owner hs key))
                (fun () -> bool_resp (Shd.Hash_set.contains hs key))
          | Wire.Add (_, key), Eset hs ->
              mutating s
                (Single (Shd.Hash_set.owner hs key))
                (fun () -> bool_resp (Shd.Hash_set.add hs key))
          | Wire.Remove (_, key), Eset hs ->
              mutating s
                (Single (Shd.Hash_set.owner hs key))
                (fun () -> bool_resp (Shd.Hash_set.remove hs key))
          | Wire.Size _, e ->
              ok s (whole t s) (fun () ->
                  Wire.Int
                    (match e with
                    | Emap m -> Shd.Map.size m
                    | Eset hs -> Shd.Hash_set.size hs
                    | Equeue (q, _) -> Squeue.length q))
          | Wire.Snapshot_iter _, _ ->
              ok s (whole t s) (fun () ->
                  Wire.Array
                    (match contents s with
                    | Pairs l ->
                        List.map
                          (fun (k, v) -> Wire.Array [ Wire.Int k; Wire.Bulk v ])
                          l
                    | Keys l -> List.map (fun k -> Wire.Int k) l
                    | Values l -> List.map (fun v -> Wire.Bulk v) l))
          | Wire.Enq (_, v), Equeue (q, home) ->
              mutating s
                (Single (home_of t s home))
                (fun () ->
                  Squeue.enqueue q v;
                  Wire.ok)
          | Wire.Deq _, Equeue (q, home) ->
              mutating s
                (Single (home_of t s home))
                (fun () ->
                  match Squeue.dequeue_opt q with
                  | Some v -> Wire.Bulk v
                  | None -> Wire.Nil)
          | (Wire.Blpop _ | Wire.Btake _), Equeue (q, home) ->
              (* A blocking pop: [retry] on an empty queue.  The
                 session registers the wait and ends it, by the wake,
                 the pop's timeout, its client's hang-up or the
                 session's drain. *)
              let stm = home_of t s home in
              mutating s (Single stm) (fun () ->
                  S.atomically stm (fun tx ->
                      match (Squeue.dequeue_opt_tx tx q, cmd) with
                      | None, _ -> S.retry tx
                      | Some v, Wire.Btake _ -> Wire.Bulk v
                      | Some v, _ ->
                          Wire.Array [ Wire.Bulk name; Wire.Bulk v ]))
          | _, e -> Error (mismatch cmd e)))
  | Wire.Ping | Wire.New _ | Wire.Multi | Wire.Multi_end | Wire.Debug_abort _
  | Wire.Watch _ | Wire.Unwatch _ | Wire.Info | Wire.Bgsave | Wire.Lastsave ->
      Error
        (err Wire.Bad_op "%s is not a structure operation" (Wire.cmd_name cmd))

(* ---- streaming snapshot fast path -------------------------------------- *)

(* Resolve SNAPSHOT-ITER into an encoder thunk that runs inside the
   session's transaction and writes each element of {!contents}
   straight into the caller's scratch {!Wire.Obuf} — never
   materialising the [Wire.Array] response tree.  The emitted bytes,
   once wrapped by [Wire.write_framed_array] with the returned element
   count, are byte-identical to [Wire.write_response_obuf] of the tree
   {!resolve} builds.  The thunk clears the scratch first so an
   aborted attempt's partial output never leaks into the retry. *)
let stream s (items : Wire.Obuf.t) () =
  Wire.Obuf.clear items;
  let each f l = List.fold_left (fun n x -> f x; n + 1) 0 l in
  match contents s with
  | Pairs l ->
      each
        (fun (k, v) ->
          Wire.obuf_add_array_header items 2;
          Wire.obuf_add_int_item items k;
          Wire.obuf_add_bulk items v)
        l
  | Keys l -> each (Wire.obuf_add_int_item items) l
  | Values l -> each (Wire.obuf_add_bulk items) l

let snapshot_stream t name items :
    (site * (unit -> int), Wire.response) result =
  match lookup t name with
  | None -> no_struct name
  | Some s -> Ok (whole t s, stream s items)

(* ---- subscriptions ----------------------------------------------------- *)

type watch = { wslot : slot; wname : string }

(* A push frame carries the name on one line, so a name holding a
   newline cannot be watched; NEW still accepts it, because recovery
   replays every NEW record a log holds. *)
let watch t name =
  match lookup t name with
  | None -> no_struct name
  | Some _ when String.contains name '\n' ->
      Error (err Wire.Bad_op "cannot watch %S: a push frame is one line" name)
  | Some s ->
      Atomic.incr s.watchers;
      Ok { wslot = s; wname = name }

let unwatch _t w = Atomic.decr w.wslot.watchers
let watch_name w = w.wname

(* The watch body: the names of the watched structures that changed
   since the last take, their dirty flags cleared.  Every dirty flag
   lives on the TL2 control shard, so it runs as one transaction
   there ({!stm}), whatever algorithms the watched structures run on.
   When nothing changed it calls [S.retry] on the dirty flags, so a
   session that registers it is woken by the next mark's commit. *)
let take_dirty t ws () =
  S.atomically ~label:"watch-wait" (stm t) (fun tx ->
      match
        List.filter_map
          (fun w ->
            if S.read tx w.wslot.dirty then begin
              S.write tx w.wslot.dirty false;
              Some w.wname
            end
            else None)
          ws
      with
      | [] -> S.retry tx
      | names -> names)

(* Default transaction semantics when the request carries no hint: the
   paper's novice default, except consistent iteration which is the
   snapshot showcase. *)
let default_sem = function
  | Wire.Snapshot_iter _ -> Polytm.Semantics.Snapshot
  | _ -> Polytm.Semantics.Classic

(* ---- introspection ----------------------------------------------------- *)

(* Stable name order, for INFO output and the checkpoint writer (a
   deterministic checkpoint file for a given state makes the recovery
   differential tests byte-comparable). *)
let slots t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Atomic.get t.entries)

let info t =
  let base =
    [
      ( "uptime_sec",
        string_of_int
          (int_of_float (Unix.gettimeofday () -. t.started_at)) );
      ("shards", string_of_int (shard_count t));
      ("default_algo", algo_name t.default_algo);
      ("structures", string_of_int (List.length (Atomic.get t.entries)));
      ("waiting", string_of_int (waiting t));
      ("fd_limit", string_of_int Limits.fd_limit);
      ("fd_refused", string_of_int (Atomic.get t.fd_refused));
      ("handler_errors", string_of_int (Atomic.get t.handler_errors));
    ]
  in
  (* [%S]: a quoted name can neither end its line nor start a key *)
  let per_struct =
    List.map
      (fun (name, s) ->
        ( Printf.sprintf "struct_%S" name,
          Printf.sprintf "kind=%s,algo=%s,ops=%d"
            (Wire.kind_to_string (kind_of_entry s.entry))
            (algo_name s.algo) (Atomic.get s.ops) ))
      (slots t)
  in
  let persist =
    match t.persist with
    | None -> [ ("persist", "off") ]
    | Some log -> ("persist", "on") :: Polytm_persist.Oplog.info log
  in
  base @ per_struct @ persist

(* INFO's wire shape: one [Bulk] of "key:value" lines, so a probe can
   split on newlines without a response-tree walk. *)
let info_response t =
  let b = Buffer.create 512 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b ':';
      Buffer.add_string b v;
      Buffer.add_char b '\n')
    (info t);
  Wire.Bulk (Buffer.contents b)
