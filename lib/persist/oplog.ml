(* The live op log of one durable server.  See oplog.mli for the
   arming protocol and who calls what; this file keeps the mechanics. *)

module Tls = Polytm_runtime.Domain_runtime

type span = { name : string; ts_us : int; dur_us : int }

module Obuf = Polytm_util.Obuf

(* One thread's arming state for one log: the commands its next write
   commit appends, and the ticket that append leaves ([seq = 0]: none).
   Only its own thread reads or writes it. *)
type 'c slot = {
  mutable armed : bool;
  mutable cmds : 'c list;
  mutable aof : Aof.t;  (** the writer of the ticket's record *)
  mutable seq : int;
}

(* Spans kept for the trace lane; older ones are overwritten. *)
let ring_cap = 4096

type 'c t = {
  dir : string;
  policy : Aof.policy;
  encode : Obuf.t -> 'c list -> unit;  (** writes a record's payload *)
  log_mu : Mutex.t;
      (** guards [aof]/[active_gen], and is every writer's append lock:
          held across the (buffer-only) append so a rotation never
          strands a record in a closed log *)
  mutable aof : Aof.t;
  mutable gen : int;  (** published (manifest) generation *)
  mutable active_gen : int;  (** generation of the log [aof] writes *)
  slots : 'c slot Tls.tls;  (** per-systhread arming slots of this log *)
  ckpt_mu : Mutex.t;  (** one checkpoint at a time *)
  mutable last_save : float;  (** unix time of last published checkpoint *)
  replayed : int;  (** records recovery applied before this log opened *)
  recover_ms : float;
  tear : string;  (** "none", or where recovery cut the log *)
  (* totals carried across log rotations (the per-[Aof] counters die
     with their file) *)
  mutable retired_appends : int;
  mutable retired_syncs : int;
  mutable retired_bytes : int;
  mutable checkpoints : int;
      (** checkpoints published; one writer at a time ([ckpt_mu], or
          activation before serving) *)
  hook_errors : int Atomic.t;
      (** exceptions swallowed by the commit hook and {!log_new} *)
  sync_errors : int Atomic.t;  (** failed syncs of {!tick} *)
  spans : span option array;  (** overwrite ring of [ring_cap] spans *)
  span_next : int Atomic.t;
}

let create ~dir ~policy ~encode ~gen ~replayed ~recover_ms ~tear =
  let log_mu = Mutex.create () in
  let aof = Aof.open_log ~mu:log_mu (Layout.log_path ~dir gen) in
  {
    dir;
    policy;
    encode;
    log_mu;
    aof;
    gen;
    active_gen = gen;
    slots = Tls.tls (fun () -> { armed = false; cmds = []; aof; seq = 0 });
    ckpt_mu = Mutex.create ();
    last_save = 0.0;
    replayed;
    recover_ms;
    tear;
    retired_appends = 0;
    retired_syncs = 0;
    retired_bytes = 0;
    checkpoints = 0;
    hook_errors = Atomic.make 0;
    sync_errors = Atomic.make 0;
    spans = Array.make ring_cap None;
    span_next = Atomic.make 0;
  }

let dir t = t.dir
let policy t = t.policy
let gen t = t.gen
let last_save t = t.last_save
let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* ---- the trace lane ----------------------------------------------------- *)

(* Lock-free: the commit path's waiters record from every loop
   thread. *)
let span t ~name ~ts_us ~dur_us =
  let i = Atomic.fetch_and_add t.span_next 1 in
  t.spans.(i mod ring_cap) <- Some { name; ts_us; dur_us }

let spans t =
  List.sort
    (fun a b -> compare a.ts_us b.ts_us)
    (List.filter_map Fun.id (Array.to_list t.spans))

(* ---- arming protocol --------------------------------------------------- *)

let arm t cmds =
  let s = Tls.tls_get t.slots in
  s.armed <- true;
  s.cmds <- cmds;
  s.seq <- 0

let finish t =
  let s = Tls.tls_get t.slots in
  s.armed <- false;
  s.cmds <- [];
  s.seq > 0

let ticket t =
  let s = Tls.tls_get t.slots in
  (s.aof, s.seq)

(* An append takes one lock, [log_mu], which is also its writer's
   append lock; the writer is read under it, so the ticket names the
   log the record went to.  An encoder that raises leaves no partial
   record behind ({!Frame.add}). *)
let hook t ~algo ~shard stamp =
  let s = Tls.tls_get t.slots in
  if s.armed then begin
    s.armed <- false;
    Mutex.lock t.log_mu;
    let aof = t.aof in
    match
      Aof.append_locked aof ~rtype:Frame.rt_op ~algo ~shard ~stamp t.encode
        s.cmds
    with
    | seq ->
        Mutex.unlock t.log_mu;
        s.seq <- seq;
        s.aof <- aof;
        s.cmds <- []
    | exception _ ->
        Mutex.unlock t.log_mu;
        Atomic.incr t.hook_errors
  end

let log_new t ~algo cmds =
  try
    Mutex.protect t.log_mu (fun () ->
        ignore
          (Aof.append_locked t.aof ~rtype:Frame.rt_new
             ~algo:(Frame.algo_code algo) ~shard:0 ~stamp:0 t.encode cmds))
  with _ -> Atomic.incr t.hook_errors

(* Waits long enough to matter show on the trace lane. *)
let wait_durable t aof seq =
  let t0 = now_us () in
  Aof.wait_durable aof seq;
  let dur = now_us () - t0 in
  if dur > 50 then span t ~name:"fsync-wait" ~ts_us:t0 ~dur_us:dur

let current t =
  Mutex.lock t.log_mu;
  let aof = t.aof in
  Mutex.unlock t.log_mu;
  aof

(* Syncing a just-rotated-out log is a harmless no-op (rotation's
   close already synced it).  A failed sync keeps its bytes buffered
   ({!Aof.sync}), so counting it and returning lets the next tick
   retry. *)
let tick t =
  let aof = current t in
  let t0 = now_us () in
  let before = Aof.synced_seq aof in
  match Aof.sync aof with
  | () ->
      if Aof.synced_seq aof > before then
        span t ~name:"fsync" ~ts_us:t0 ~dur_us:(now_us () - t0)
  | exception Unix.Unix_error _ -> Atomic.incr t.sync_errors

let close t = Aof.close (current t)

(* ---- checkpoints -------------------------------------------------------- *)

let checkpointing t f =
  if not (Mutex.try_lock t.ckpt_mu) then None
  else Some (Fun.protect ~finally:(fun () -> Mutex.unlock t.ckpt_mu) f)

(* Only checkpoints rotate, one at a time, so [active_gen] is read
   here without [log_mu]. *)
let rotate t ~gen =
  if t.active_gen <> gen then begin
    let fresh = Aof.open_log ~mu:t.log_mu (Layout.log_path ~dir:t.dir gen) in
    Mutex.lock t.log_mu;
    let old = t.aof in
    t.aof <- fresh;
    t.active_gen <- gen;
    Mutex.unlock t.log_mu;
    t.retired_appends <- t.retired_appends + Aof.seq old;
    t.retired_bytes <- t.retired_bytes + Aof.bytes old;
    Aof.close old;
    t.retired_syncs <- t.retired_syncs + Aof.syncs old
  end

let published t ~gen =
  t.gen <- gen;
  t.last_save <- Unix.gettimeofday ();
  t.checkpoints <- t.checkpoints + 1

(* ---- what INFO, --stats-json and the trace read ------------------------- *)

let appends t = t.retired_appends + Aof.seq t.aof
let syncs t = t.retired_syncs + Aof.syncs t.aof
let bytes t = t.retired_bytes + Aof.bytes t.aof

let counters t =
  [
    ("appends", appends t);
    ("append_bytes", bytes t);
    ("fsyncs", syncs t);
    ("replayed", t.replayed);
    ("checkpoints", t.checkpoints);
    ("hook_errors", Atomic.get t.hook_errors);
    ("sync_errors", Atomic.get t.sync_errors);
  ]

let info t =
  [
    ("persist_dir", t.dir);
    ("persist_fsync", Aof.policy_to_string t.policy);
    ("persist_gen", string_of_int t.gen);
    ("persist_appends", string_of_int (appends t));
    ("persist_bytes", string_of_int (bytes t));
    ("persist_fsyncs", string_of_int (syncs t));
    ("persist_synced_seq", string_of_int (Aof.synced_seq t.aof));
    ("persist_last_save", string_of_int (int_of_float t.last_save));
    ("persist_replayed", string_of_int t.replayed);
    ("persist_recover_ms", Printf.sprintf "%.1f" t.recover_ms);
    ("persist_tear", t.tear);
    ("persist_hook_errors", string_of_int (Atomic.get t.hook_errors));
    ("persist_sync_errors", string_of_int (Atomic.get t.sync_errors));
  ]
