(* The live op log of one durable server.  See oplog.mli for the
   arming protocol and who calls what; this file keeps the mechanics. *)

type span = { name : string; ts_us : int; dur_us : int }

(* Spans kept for the trace lane; older ones are overwritten. *)
let ring_cap = 4096

type t = {
  dir : string;
  policy : Aof.policy;
  log_mu : Mutex.t;
      (** guards [aof]/[active_gen]; held across the (buffer-only)
          append so a rotation never strands a record in a closed log *)
  mutable aof : Aof.t;
  mutable gen : int;  (** published (manifest) generation *)
  mutable active_gen : int;  (** generation of the log [aof] writes *)
  pending_mu : Mutex.t;
  pending : (int * int, string) Hashtbl.t;
      (** per-thread armed payloads, keyed by (domain id, thread id) *)
  appended : (int * int, Aof.t * int) Hashtbl.t;
      (** per-thread append tickets, same key *)
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
  spans : span option array;  (** overwrite ring of [ring_cap] spans *)
  span_next : int Atomic.t;
}

let create ~dir ~policy ~gen ~replayed ~recover_ms ~tear =
  {
    dir;
    policy;
    log_mu = Mutex.create ();
    aof = Aof.open_log (Layout.log_path ~dir gen);
    gen;
    active_gen = gen;
    pending_mu = Mutex.create ();
    pending = Hashtbl.create 64;
    appended = Hashtbl.create 64;
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

let thread_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let arm t payload =
  let key = thread_key () in
  Mutex.lock t.pending_mu;
  Hashtbl.replace t.pending key payload;
  Hashtbl.remove t.appended key;
  Mutex.unlock t.pending_mu

let finish t =
  let key = thread_key () in
  Mutex.lock t.pending_mu;
  Hashtbl.remove t.pending key;
  let ticket = Hashtbl.find_opt t.appended key in
  if ticket <> None then Hashtbl.remove t.appended key;
  Mutex.unlock t.pending_mu;
  ticket

let hook t ~algo ~shard stamp =
  try
    let key = thread_key () in
    Mutex.lock t.pending_mu;
    match Hashtbl.find_opt t.pending key with
    | None -> Mutex.unlock t.pending_mu
    | Some payload ->
        Hashtbl.remove t.pending key;
        Mutex.unlock t.pending_mu;
        Mutex.lock t.log_mu;
        let aof = t.aof in
        let seq =
          Aof.append aof { Frame.rtype = Frame.rt_op; algo; shard; stamp }
            ~payload
        in
        Mutex.unlock t.log_mu;
        Mutex.lock t.pending_mu;
        Hashtbl.replace t.appended key (aof, seq);
        Mutex.unlock t.pending_mu
  with _ -> Atomic.incr t.hook_errors

let log_new t ~algo payload =
  try
    Mutex.lock t.log_mu;
    ignore
      (Aof.append t.aof
         { Frame.rtype = Frame.rt_new; algo = Frame.algo_code algo; shard = 0;
           stamp = 0 }
         ~payload);
    Mutex.unlock t.log_mu
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
   close already synced it). *)
let tick t =
  let aof = current t in
  let t0 = now_us () in
  let before = Aof.synced_seq aof in
  Aof.sync aof;
  if Aof.synced_seq aof > before then
    span t ~name:"fsync" ~ts_us:t0 ~dur_us:(now_us () - t0)

let close t = Aof.close (current t)

(* ---- checkpoints -------------------------------------------------------- *)

let checkpointing t f =
  if not (Mutex.try_lock t.ckpt_mu) then None
  else Some (Fun.protect ~finally:(fun () -> Mutex.unlock t.ckpt_mu) f)

(* Only checkpoints rotate, one at a time, so [active_gen] is read
   here without [log_mu]. *)
let rotate t ~gen =
  if t.active_gen <> gen then begin
    let fresh = Aof.open_log (Layout.log_path ~dir:t.dir gen) in
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
  ]
