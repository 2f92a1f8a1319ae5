(* The live op log of one durable server.  See oplog.mli for the
   arming protocol and who calls what; this file keeps the mechanics. *)

module Tls = Polytm_runtime.Domain_runtime

type span = { name : string; ts_us : int; dur_us : int }

module Obuf = Polytm_util.Obuf

(* One thread's arming state for one log: the commands its next write
   commit appends, and the ticket that append leaves: its record's
   sequence number, 0 for none.  Only its own thread reads or writes
   it. *)
type 'c slot = {
  mutable armed : bool;
  mutable cmds : 'c list;
  mutable seq : int;
}

(* Spans kept for the trace lane; older ones are overwritten. *)
let ring_cap = 4096

type 'c t = {
  dir : string;
  policy : Aof.policy;
  encode : Obuf.t -> 'c list -> unit;  (** writes a record's payload *)
  aof : Aof.t;  (** the one writer, switched from file to file *)
  mutable gen : int;  (** published (manifest) generation *)
  mutable active_gen : int;
      (** generation of the file [aof] writes; only checkpoints, one at
          a time, read or write it *)
  slots : 'c slot Tls.tls;  (** per-systhread arming slots of this log *)
  ckpt_mu : Mutex.t;  (** one checkpoint at a time *)
  mutable last_save : float;  (** unix time of last published checkpoint *)
  replayed : int;  (** records recovery applied before this log opened *)
  recover_ms : float;
  tear : string;  (** "none", or where recovery cut the log *)
  mutable checkpoints : int;
      (** checkpoints published; one writer at a time ([ckpt_mu], or
          activation before serving) *)
  mutable checkpoint_errors : int;  (** checkpoints failed, under [ckpt_mu] *)
  hook_errors : int Atomic.t;
      (** exceptions swallowed by the commit hook and {!log_new} *)
  sync_errors : int Atomic.t;  (** failed syncs of {!tick} *)
  spans : span option array;  (** overwrite ring of [ring_cap] spans *)
  span_next : int Atomic.t;
}

let create ~dir ~policy ~encode ~gen ~replayed ~recover_ms ~tear =
  {
    dir;
    policy;
    encode;
    aof = Aof.open_log (Layout.log_path ~dir gen);
    gen;
    active_gen = gen;
    slots = Tls.tls (fun () -> { armed = false; cmds = []; seq = 0 });
    ckpt_mu = Mutex.create ();
    last_save = 0.0;
    replayed;
    recover_ms;
    tear;
    checkpoints = 0;
    checkpoint_errors = 0;
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
  s.seq

(* An encoder that raises leaves no partial record behind
   ({!Aof.append_with}). *)
let hook t ~algo ~shard stamp =
  let s = Tls.tls_get t.slots in
  if s.armed then begin
    s.armed <- false;
    match
      Aof.append_with t.aof ~rtype:Frame.rt_op ~algo ~shard ~stamp t.encode
        s.cmds
    with
    | seq ->
        s.seq <- seq;
        s.cmds <- []
    | exception _ -> Atomic.incr t.hook_errors
  end

let log_new t ~algo cmds =
  try
    ignore
      (Aof.append_with t.aof ~rtype:Frame.rt_new ~algo:(Frame.algo_code algo)
         ~shard:0 ~stamp:0 t.encode cmds)
  with _ -> Atomic.incr t.hook_errors

(* Waits long enough to matter show on the trace lane. *)
let wait_durable t seq =
  let t0 = now_us () in
  Aof.wait_durable t.aof seq;
  let dur = now_us () - t0 in
  if dur > 50 then span t ~name:"fsync-wait" ~ts_us:t0 ~dur_us:dur

(* A failed sync raises ({!Aof.sync}); counting it and returning keeps
   the housekeeper alive, and the next tick tries again: it writes a
   failed write's buffered bytes first, and raises again after a
   failed fsync. *)
let tick t =
  let t0 = now_us () in
  let before = Aof.synced_seq t.aof in
  match Aof.sync t.aof with
  | () ->
      if Aof.synced_seq t.aof > before then
        span t ~name:"fsync" ~ts_us:t0 ~dur_us:(now_us () - t0)
  | exception Unix.Unix_error _ -> Atomic.incr t.sync_errors

let close t = Aof.close t.aof
let writer t = t.aof

(* ---- checkpoints -------------------------------------------------------- *)

let checkpointing t f =
  if not (Mutex.try_lock t.ckpt_mu) then None
  else Some (Fun.protect ~finally:(fun () -> Mutex.unlock t.ckpt_mu) f)

let rotate t ~gen =
  if t.active_gen <> gen then begin
    Aof.switch t.aof (Layout.log_path ~dir:t.dir gen);
    t.active_gen <- gen
  end

let published t ~gen =
  t.gen <- gen;
  t.last_save <- Unix.gettimeofday ();
  t.checkpoints <- t.checkpoints + 1

let checkpoint_failed t = t.checkpoint_errors <- t.checkpoint_errors + 1

(* ---- what INFO, --stats-json and the trace read ------------------------- *)

let counters t =
  [
    ("appends", Aof.seq t.aof);
    ("bytes", Aof.bytes t.aof);
    ("fsyncs", Aof.syncs t.aof);
    ("synced_seq", Aof.synced_seq t.aof);
    ("replayed", t.replayed);
    ("checkpoints", t.checkpoints);
    ("checkpoint_errors", t.checkpoint_errors);
    ("hook_errors", Atomic.get t.hook_errors);
    ("sync_errors", Atomic.get t.sync_errors);
  ]

let info t =
  [
    ("persist_dir", t.dir);
    ("persist_fsync", Aof.policy_to_string t.policy);
    ("persist_gen", string_of_int t.gen);
  ]
  @ List.map (fun (k, v) -> ("persist_" ^ k, string_of_int v)) (counters t)
  @ [
      ("persist_last_save", string_of_int (int_of_float t.last_save));
      ("persist_recover_ms", Printf.sprintf "%.1f" t.recover_ms);
      ("persist_tear", t.tear);
    ]
