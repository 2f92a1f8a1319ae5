(** The durability glue between the payload-agnostic [lib/persist]
    writers and the server: wire-encoded payloads, the commit-hook
    arming protocol, snapshot checkpoints, and crash recovery.

    {2 The op log}

    Every acknowledged mutation becomes one log record whose payload
    is the mutation's {e wire frame} — the same bytes the client sent,
    re-encoded through {!Wire.write_request} — so replay is simply
    "parse the frame, resolve it against the registry, run the
    transaction", one code path shared by log replay and checkpoint
    loading, exercised by the same codec fuzzers as the live server.

    Append order must equal commit (serialization) order or replay
    diverges, and no post-commit scheme can guarantee that: two
    sessions can commit dependent transactions and reach their append
    calls in the opposite order.  So the append happens {e inside} the
    STM commit, via {!Registry.S.set_commit_hook}, while the commit
    still holds its locks (TL2) or sequence lock (NOrec): no dependent
    commit can start until the record is buffered, so the log is a
    linear extension of the store's serialization order.  The hook
    only learns the commit stamp; {e what} to log is armed per thread
    beforehand ([p_arm]) and collected after ([p_finish]) — a
    transaction that never write-commits (a [DEL] of an absent key, a
    failed op) leaves its armed payload unconsumed and nothing is
    logged, which is exactly right because nothing changed.

    {2 Checkpoints}

    A checkpoint folds every registered structure inside {e one}
    snapshot transaction spanning every shard of both routers.  Writers
    stay live throughout — snapshots never impede updaters — and the
    captured bound vector is an {e exact} cut: the STM's snapshot
    reads wait out in-flight write-backs, and the [multi_inflight]
    fence keeps cross-shard commits atomic with respect to the bound
    draw (this is the privatization argument of DESIGN §S21: the
    checkpointer observes memory only through transactional reads, so
    a half-committed transaction can never leak into the file).  Log
    compaction is then stamp-based: a log record is replayed iff its
    stamp exceeds the checkpoint's bound for its (algo, shard).

    {2 Generations}

    See {!Polytm_persist.Layout}.  On startup, recovery loads the
    manifest generation's checkpoint, replays its log then (if a
    checkpoint was interrupted) the next generation's log, and then
    {e always} publishes a fresh generation before serving — which
    collapses every crash interleaving into the one invariant the
    runtime needs: while serving, the active log's generation equals
    the manifest's. *)

module P = Polytm_persist
module S = Registry.S
module T = Polytm_telemetry

type t = {
  dir : string;
  policy : P.Aof.policy;
  reg : Registry.t;
  log_mu : Mutex.t;
      (** guards [aof]/[active_gen]; held across the (buffer-only)
          append so a rotation never strands a record in a closed log *)
  mutable aof : P.Aof.t;
  mutable gen : int;  (** published (manifest) generation *)
  mutable active_gen : int;  (** generation of the log [aof] writes *)
  pending_mu : Mutex.t;
  pending : (int * int, string) Hashtbl.t;
      (** per-thread armed payloads, keyed by (domain id, thread id) *)
  appended : (int * int, P.Aof.t * int) Hashtbl.t;
      (** per-thread append tickets, same key *)
  ckpt_mu : Mutex.t;  (** one checkpoint at a time *)
  mutable last_save : float;  (** unix time of last published checkpoint *)
  mutable replayed : int;
  mutable recover_ms : float;
  mutable tear : string;  (** "none", or where recovery cut the log *)
  (* totals carried across log rotations (the per-[Aof] counters die
     with their file) *)
  mutable retired_appends : int;
  mutable retired_syncs : int;
  mutable retired_bytes : int;
}

let algo_code = function `Tl2 -> 0 | `Norec -> 1
let algo_of_code = function 0 -> Some `Tl2 | 1 -> Some `Norec | _ -> None

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let frame_of_cmds cmds =
  let b = Buffer.create 64 in
  List.iter (fun cmd -> Wire.write_request b { Wire.hint = None; cmd }) cmds;
  Buffer.contents b

let thread_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

(* ---- arming protocol --------------------------------------------------- *)

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

(* The commit hook for instance (algo, shard).  Runs inside the commit
   critical section: must be brief, must never raise, must not run
   transactions.  Unarmed threads (internal commits: dirty marks,
   drain flags, watch polls) pay one mutex + hashtable miss. *)
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
          P.Aof.append aof
            { P.Frame.rtype = P.Frame.rt_op; algo; shard; stamp }
            ~payload
        in
        Mutex.unlock t.log_mu;
        Atomic.incr T.Persist.appends;
        ignore
          (Atomic.fetch_and_add T.Persist.append_bytes
             (String.length payload));
        Mutex.lock t.pending_mu;
        Hashtbl.replace t.appended key (aof, seq);
        Mutex.unlock t.pending_mu
  with _ -> Atomic.incr T.Persist.hook_errors

(* Structure creations are registry CAS publications, not commits, so
   they are logged directly ({!Registry.ensure} calls this {e before}
   the CAS publishes the name — a racing session can only reach the
   structure after the CAS, so its op records always follow the NEW
   record; the CAS loser's duplicate NEW replays as an idempotent
   ensure). *)
let log_new t kind name algo =
  try
    Mutex.lock t.log_mu;
    ignore
      (P.Aof.append t.aof
         {
           P.Frame.rtype = P.Frame.rt_new;
           algo = algo_code algo;
           shard = 0;
           stamp = 0;
         }
         ~payload:(frame_of_cmds [ Wire.New (kind, name) ]));
    Mutex.unlock t.log_mu;
    Atomic.incr T.Persist.appends
  with _ -> Atomic.incr T.Persist.hook_errors

(* ---- checkpointing ----------------------------------------------------- *)

type contents =
  | Cmap of (int * string) list
  | Cset of int list
  | Cqueue of string list

(* One consistent cut of the whole store: every shard of both routers
   inside a single snapshot [atomically_multi].  The nested
   per-structure folds flatten into the live member transactions.  Only the in-memory
   collection happens inside the snapshot — file writing happens
   after, so an aborted attempt (bound redraw) re-collects instead of
   leaving a half-written file. *)
let collect t =
  let bounds = ref [] in
  let insts =
    Registry.instances t.reg `Tl2 @ Registry.instances t.reg `Norec
  in
  let state =
    S.atomically_multi ~sem:Polytm.Semantics.Snapshot ~label:"checkpoint"
      ~bounds insts (fun () ->
        List.map
          (fun (name, (slot : Registry.slot)) ->
            let c =
              match slot.entry with
              | Registry.Emap m -> Cmap (Registry.Shd.Map.to_list m)
              | Registry.Eset h -> Cset (Registry.Shd.Hash_set.to_list h)
              | Registry.Equeue (q, _) -> Cqueue (Registry.Squeue.to_list q)
            in
            (name, Registry.kind_of_entry slot.entry, slot.algo, c))
          (Registry.slots t.reg))
  in
  (state, !bounds)

(* Map a bound's instance back to its (algo code, shard index). *)
let locate t stm =
  let find algo =
    let rec idx i = function
      | [] -> None
      | s :: rest ->
          if s == stm then Some (algo_code algo, i) else idx (i + 1) rest
    in
    idx 0 (Registry.instances t.reg algo)
  in
  match find `Tl2 with Some x -> Some x | None -> find `Norec

let write_file_durably path contents =
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.unsafe_of_string contents in
      let pos = ref 0 in
      while !pos < Bytes.length b do
        pos := !pos + Unix.write fd b !pos (Bytes.length b - !pos)
      done;
      Unix.fsync fd)

let write_checkpoint t ~gen =
  let t0 = now_us () in
  let state, bounds = collect t in
  let bound_entries =
    List.filter_map
      (fun (stm, b) ->
        Option.map (fun (a, s) -> (a, s, b)) (locate t stm))
      bounds
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf P.Frame.ckpt_magic;
  let nrecords = ref 0 in
  let emit hdr payload =
    P.Frame.encode buf hdr ~payload;
    incr nrecords
  in
  let zero rtype = { P.Frame.rtype; algo = 0; shard = 0; stamp = 0 } in
  emit (zero P.Frame.rt_bounds) (P.Frame.encode_bounds bound_entries);
  List.iter
    (fun (name, kind, algo, c) ->
      emit
        {
          P.Frame.rtype = P.Frame.rt_new;
          algo = algo_code algo;
          shard = 0;
          stamp = 0;
        }
        (frame_of_cmds [ Wire.New (kind, name) ]);
      let ops =
        match c with
        | Cmap kvs -> List.map (fun (k, v) -> Wire.Put (name, k, v)) kvs
        | Cset ks -> List.map (fun k -> Wire.Add (name, k)) ks
        | Cqueue vs -> List.map (fun v -> Wire.Enq (name, v)) vs
      in
      List.iter (fun cmd -> emit (zero P.Frame.rt_op) (frame_of_cmds [ cmd ])) ops)
    state;
  let body_records = !nrecords in
  emit (zero P.Frame.rt_trailer) (P.Frame.encode_count body_records);
  write_file_durably (P.Layout.ckpt_path ~dir:t.dir gen) (Buffer.contents buf);
  Atomic.incr T.Persist.checkpoints;
  T.Persist.span ~name:"checkpoint" ~ts_us:t0 ~dur_us:(now_us () - t0)

let retire_log t old =
  t.retired_appends <- t.retired_appends + P.Aof.seq old;
  t.retired_syncs <- t.retired_syncs + P.Aof.syncs old;
  t.retired_bytes <- t.retired_bytes + P.Aof.bytes old;
  P.Aof.close old;
  t.retired_syncs <- t.retired_syncs + 1 (* the close's final fsync *)

(* Checkpoint + publish + compact.  Rotation happens first, so every
   commit from here on lands in the new generation's log; the ones
   that slip in before the snapshot's cut carry stamps within the
   bound vector and are filtered out on replay.  A failed attempt
   (e.g. disk full writing the checkpoint) leaves the manifest — and
   therefore recovery — on the old generation, with the old log intact
   and the already-rotated new log replayed after it; the next attempt
   reuses the rotated log rather than rotating again. *)
let bgsave t =
  if not (Mutex.try_lock t.ckpt_mu) then
    Wire.Error (Wire.Busy, "checkpoint already running")
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.ckpt_mu)
      (fun () ->
        try
          let g = t.gen in
          let g' = g + 1 in
          if t.active_gen = g then begin
            let fresh = P.Aof.open_log (P.Layout.log_path ~dir:t.dir g') in
            Mutex.lock t.log_mu;
            let old = t.aof in
            t.aof <- fresh;
            t.active_gen <- g';
            Mutex.unlock t.log_mu;
            retire_log t old
          end;
          write_checkpoint t ~gen:g';
          P.Layout.write_manifest ~dir:t.dir ~gen:g';
          P.Layout.remove_if_exists (P.Layout.ckpt_path ~dir:t.dir g);
          P.Layout.remove_if_exists (P.Layout.log_path ~dir:t.dir g);
          t.gen <- g';
          t.last_save <- Unix.gettimeofday ();
          Wire.ok
        with e ->
          Wire.Error
            (Wire.Proto, "checkpoint failed: " ^ Printexc.to_string e))

(* ---- recovery ---------------------------------------------------------- *)

exception Refuse of string

let refuse fmt = Printf.ksprintf (fun m -> raise (Refuse m)) fmt

(* Parse a record payload back into its wire request frames.  [dec] is
   the one decoder of this recovery: a payload that parses leaves it
   empty, and one that does not refuses the whole recovery, so no state
   carries from one record to the next. *)
let requests_of_payload dec payload =
  Wire.Decoder.feed_string dec payload;
  let rec loop acc =
    match Wire.Decoder.next_request dec with
    | `Await ->
        if Wire.Decoder.buffered dec > 0 then
          refuse "trailing bytes in record payload"
        else List.rev acc
    | `Ok req -> loop (req :: acc)
    | `Bad m | `Corrupt m -> refuse "bad frame in record payload: %s" m
  in
  loop []

(* Replay one mutation through the normal resolve-and-run path —
   single-threaded, so a MULTI batch record's frames can be applied
   one by one. *)
let apply_op reg (req : Wire.request) =
  match Registry.resolve reg req.cmd with
  | Error (Wire.Error (_, msg)) -> refuse "unreplayable record: %s" msg
  | Error _ -> refuse "unreplayable record"
  | Ok r ->
      ignore (S.atomically_multi ~label:"replay" (Registry.members r.site) r.run)

let apply_new reg ~algo (req : Wire.request) =
  match req.cmd with
  | Wire.New (kind, name) ->
      (* Best-effort: [Error] here means a CAS-losing NEW whose
         runtime ensure also failed — its op records never existed. *)
      ignore (Registry.ensure ?algo reg kind name)
  | _ -> refuse "structure record without NEW frame"

let apply_record reg dec ~bounds (r : P.Frame.record) =
  if r.hdr.rtype = P.Frame.rt_new then begin
    List.iter
      (apply_new reg ~algo:(algo_of_code r.hdr.algo))
      (requests_of_payload dec r.payload);
    true
  end
  else if r.hdr.rtype = P.Frame.rt_op then begin
    let bound =
      match Hashtbl.find_opt bounds (r.hdr.algo, r.hdr.shard) with
      | Some b -> b
      | None -> -1
    in
    if r.hdr.stamp > bound then begin
      List.iter (apply_op reg) (requests_of_payload dec r.payload);
      true
    end
    else false
  end
  else refuse "unexpected record type %d in log" r.hdr.rtype

(* A checkpoint file is all-or-nothing: validated end to end (clean
   scan, bounds first, matching trailer) before any record is
   applied.  An invalid named checkpoint refuses service — unlike a
   log tail, there is no "longest valid prefix" story for a file that
   claims to be a complete state. *)
let load_checkpoint reg dec ~path =
  let records = ref [] in
  let scan =
    try
      P.Frame.scan_file ~magic:P.Frame.ckpt_magic ~path ~f:(fun _ r ->
          records := r :: !records)
    with Sys_error m -> refuse "checkpoint unreadable: %s" m
  in
  (match scan.tear with
  | Some tear ->
      refuse "checkpoint %s: %s" path
        (Format.asprintf "%a" P.Frame.pp_tear tear)
  | None -> ());
  let records = List.rev !records in
  match records with
  | { P.Frame.hdr = { rtype; _ }; payload } :: rest
    when rtype = P.Frame.rt_bounds -> (
      let bounds_list =
        match P.Frame.decode_bounds payload with
        | Some l -> l
        | None -> refuse "checkpoint bounds record malformed"
      in
      match List.rev rest with
      | { P.Frame.hdr = { rtype = tr; _ }; payload = tp } :: body_rev
        when tr = P.Frame.rt_trailer -> (
          match P.Frame.decode_count tp with
          | Some n when n = List.length body_rev + 1 ->
              List.iter
                (fun (r : P.Frame.record) ->
                  if r.hdr.rtype = P.Frame.rt_new then
                    List.iter
                      (apply_new reg ~algo:(algo_of_code r.hdr.algo))
                      (requests_of_payload dec r.payload)
                  else if r.hdr.rtype = P.Frame.rt_op then
                    List.iter (apply_op reg) (requests_of_payload dec r.payload)
                  else refuse "unexpected record type in checkpoint")
                (List.rev body_rev);
              let bounds = Hashtbl.create 16 in
              List.iter
                (fun (a, s, b) -> Hashtbl.replace bounds (a, s) b)
                bounds_list;
              (bounds, scan.records)
          | Some _ -> refuse "checkpoint trailer count mismatch"
          | None -> refuse "checkpoint trailer malformed")
      | _ -> refuse "checkpoint missing trailer")
  | _ -> refuse "checkpoint missing bounds record"

(* Replay a log file against the bound vector.  A missing file is an
   empty log.  Returns (records applied, tear description option). *)
let replay_log reg dec ~bounds ~path =
  let applied = ref 0 in
  match
    P.Frame.scan_file ~magic:P.Frame.log_magic ~path ~f:(fun _ r ->
        if apply_record reg dec ~bounds r then incr applied)
  with
  | scan ->
      let tear =
        Option.map
          (fun tr -> Format.asprintf "%s: %a" (Filename.basename path) P.Frame.pp_tear tr)
          scan.tear
      in
      (!applied, tear)
  | exception Sys_error _ -> (0, None)

type recovered = {
  r_replayed : int;  (** records applied (checkpoint + log tail) *)
  r_tear : string option;  (** where the log tail was cut, if it was *)
  r_ms : float;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* Phase 1 of startup: rebuild the registry's contents from the data
   directory.  No hooks are installed yet, so nothing replayed is
   re-logged.  Run this on a {e fresh} registry, before pre-created
   structures are ensured (recovered structures win ties). *)
let recover ~dir reg =
  let t0 = Unix.gettimeofday () in
  mkdir_p dir;
  try
    let result =
      match P.Layout.read_manifest ~dir with
      | None -> { r_replayed = 0; r_tear = None; r_ms = 0.0 }
      | Some gen ->
          let dec = Wire.Decoder.create () in
          let bounds, ckpt_records =
            load_checkpoint reg dec ~path:(P.Layout.ckpt_path ~dir gen)
          in
          let n1, tear1 =
            replay_log reg dec ~bounds ~path:(P.Layout.log_path ~dir gen)
          in
          (* The next generation's log exists only when a checkpoint
             was interrupted; its records strictly follow the old
             log's.  A tear in the {e old} log means that file was cut
             short of what the new log depends on, so the new log must
             not be replayed past it. *)
          let n2, tear2 =
            match tear1 with
            | Some _ -> (0, None)
            | None ->
                replay_log reg dec ~bounds
                  ~path:(P.Layout.log_path ~dir (gen + 1))
          in
          {
            r_replayed = ckpt_records + n1 + n2;
            r_tear = (match tear1 with Some _ -> tear1 | None -> tear2);
            r_ms = 0.0;
          }
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    ignore (Atomic.fetch_and_add T.Persist.replayed result.r_replayed);
    T.Persist.span ~name:"recovery" ~ts_us:(int_of_float (t0 *. 1e6))
      ~dur_us:(int_of_float (ms *. 1000.));
    Ok { result with r_ms = ms }
  with
  | Refuse m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

(* ---- activation -------------------------------------------------------- *)

let existing_gens dir =
  let parse name prefix suffix =
    if
      String.length name > String.length prefix + String.length suffix
      && String.sub name 0 (String.length prefix) = prefix
      && Filename.check_suffix name suffix
    then
      int_of_string_opt
        (String.sub name (String.length prefix)
           (String.length name - String.length prefix - String.length suffix))
    else None
  in
  Array.fold_left
    (fun acc name ->
      match parse name "log-" ".ptmlog" with
      | Some g -> g :: acc
      | None -> (
          match parse name "checkpoint-" ".ptmckp" with
          | Some g -> g :: acc
          | None -> acc))
    []
    (try Sys.readdir dir with Sys_error _ -> [||])

let install_hooks t =
  List.iter
    (fun algo ->
      List.iteri
        (fun shard stm ->
          let algo = algo_code algo in
          S.set_commit_hook stm (Some (fun stamp -> hook t ~algo ~shard stamp)))
        (Registry.instances t.reg algo))
    [ `Tl2; `Norec ]

let uninstall_hooks t =
  List.iter
    (fun algo ->
      List.iter
        (fun stm -> S.set_commit_hook stm None)
        (Registry.instances t.reg algo))
    [ `Tl2; `Norec ]

let total_appends t = t.retired_appends + P.Aof.seq t.aof
let total_syncs t = t.retired_syncs + P.Aof.syncs t.aof
let total_bytes t = t.retired_bytes + P.Aof.bytes t.aof

let info t =
  (* Mirror the rolled-up totals into the telemetry counters so one
     source of truth feeds INFO, --stats-json and the trace lane. *)
  Atomic.set T.Persist.fsyncs (total_syncs t);
  [
    ("persist_dir", t.dir);
    ("persist_fsync", P.Aof.policy_to_string t.policy);
    ("persist_gen", string_of_int t.gen);
    ("persist_appends", string_of_int (total_appends t));
    ("persist_bytes", string_of_int (total_bytes t));
    ("persist_fsyncs", string_of_int (total_syncs t));
    ("persist_synced_seq", string_of_int (P.Aof.synced_seq t.aof));
    ("persist_last_save", string_of_int (int_of_float t.last_save));
    ("persist_replayed", string_of_int t.replayed);
    ("persist_recover_ms", Printf.sprintf "%.1f" t.recover_ms);
    ("persist_tear", t.tear);
    ( "persist_hook_errors",
      string_of_int (Atomic.get T.Persist.hook_errors) );
  ]

(* Phase 2 of startup: publish a fresh generation (checkpoint of the
   recovered + pre-created state), open its log, install the commit
   hooks, and hand the registry its closure record.  Always starting a
   fresh generation collapses every crash interleaving recovery can
   leave behind — stale logs, orphan checkpoints from failed BGSAVEs —
   into one invariant: while serving, active log gen = manifest gen. *)
let activate ~dir ~policy reg (recovered : recovered) =
  try
    let gens = existing_gens dir in
    let manifest_gen =
      match P.Layout.read_manifest ~dir with Some g -> g | None -> 0
    in
    let g' = 1 + List.fold_left max manifest_gen gens in
    P.Layout.remove_if_exists (P.Layout.log_path ~dir g');
    let t =
      {
        dir;
        policy;
        reg;
        log_mu = Mutex.create ();
        aof = P.Aof.open_log (P.Layout.log_path ~dir g');
        gen = g';
        active_gen = g';
        pending_mu = Mutex.create ();
        pending = Hashtbl.create 64;
        appended = Hashtbl.create 64;
        ckpt_mu = Mutex.create ();
        last_save = 0.0;
        replayed = recovered.r_replayed;
        recover_ms = recovered.r_ms;
        tear =
          (match recovered.r_tear with None -> "none" | Some m -> m);
        retired_appends = 0;
        retired_syncs = 0;
        retired_bytes = 0;
      }
    in
    write_checkpoint t ~gen:g';
    P.Layout.write_manifest ~dir ~gen:g';
    List.iter
      (fun g ->
        if g <> g' then begin
          P.Layout.remove_if_exists (P.Layout.log_path ~dir g);
          P.Layout.remove_if_exists (P.Layout.ckpt_path ~dir g)
        end)
      (List.sort_uniq compare (manifest_gen :: gens));
    t.last_save <- Unix.gettimeofday ();
    install_hooks t;
    reg.Registry.persist <-
      Some
        {
          Registry.p_arm = arm t;
          p_finish = (fun () -> finish t);
          p_wait_durable =
            (fun aof seq ->
              let t0 = now_us () in
              P.Aof.wait_durable aof seq;
              let dur = now_us () - t0 in
              if dur > 50 then
                T.Persist.span ~name:"fsync-wait" ~ts_us:t0 ~dur_us:dur);
          p_always = (policy = `Always);
          p_log_new = log_new t;
          p_bgsave = (fun () -> bgsave t);
          p_lastsave =
            (fun () -> Wire.Int (int_of_float t.last_save));
          p_info = (fun () -> info t);
        };
    Ok t
  with
  | Refuse m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))
  | Sys_error m -> Error m

(* The once-a-second group sync behind [`Everysec]: called from the
   server's background thread.  Syncing a just-rotated-out log is a
   harmless no-op (rotation's close already synced it). *)
let tick t =
  Mutex.lock t.log_mu;
  let aof = t.aof in
  Mutex.unlock t.log_mu;
  let t0 = now_us () in
  let before = P.Aof.synced_seq aof in
  P.Aof.sync aof;
  if P.Aof.synced_seq aof > before then
    T.Persist.span ~name:"fsync" ~ts_us:t0 ~dur_us:(now_us () - t0)

(* Shutdown: flush and sync whatever the final acks left buffered,
   then drop the hooks (late internal commits on the drain path would
   otherwise probe freed state). *)
let stop t =
  uninstall_hooks t;
  t.reg.Registry.persist <- None;
  Mutex.lock t.log_mu;
  let aof = t.aof in
  Mutex.unlock t.log_mu;
  P.Aof.close aof
