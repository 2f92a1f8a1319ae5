(** Checkpoints, crash recovery and activation: the durability code
    that needs the registry.  The live log itself — its one writer,
    the commit-hook arming protocol, the counters and trace spans — is
    {!Polytm_persist.Oplog}, one value per server, held by the registry
    and called directly by the registry and the session.

    {2 Records}

    Every op-log and checkpoint record's payload is hint-free wire
    request frames ({!Wire.write_cmds}), framed in place into the
    writer that carries them ({!Polytm_persist.Frame.add}) and parsed
    where they lie in the scanner's window by the live server's parser,
    which the same codec fuzzers exercise.  A frame is replayed through
    the live path: resolved against the registry and run by the thunk a
    request runs, consecutive frames on one instance sharing one
    transaction.  A log's map and set point mutations are blind writes,
    so they are folded by key and each key's last one alone is replayed,
    once, after the last log file; [NEW] records, queue frames and
    checkpoint bodies replay in log order.
    The encoder writes integers straight into its buffer; the wire
    tests pin its bytes per command and hold it to a [string_of_int]
    reference, because a change to those bytes is a change to every
    log and checkpoint on disk.

    {2 Checkpoints}

    A checkpoint folds every registered structure inside {e one}
    snapshot transaction spanning every shard of both routers, whose
    body also reads each shard's bound ({!S.snapshot_bound}).  Writers
    stay live throughout — snapshots never impede updaters — and that
    bound vector is an {e exact} cut: the STM's snapshot
    reads wait out in-flight write-backs, and the [multi_inflight]
    fence keeps cross-shard commits atomic with respect to the bound
    draw (this is the privatization argument of DESIGN §S21: the
    checkpointer observes memory only through transactional reads, so
    a half-committed transaction can never leak into the file).  Log
    compaction is then stamp-based: a log record is replayed iff its
    stamp exceeds the checkpoint's bound for its (algo, shard).

    {2 Generations}

    See {!Polytm_persist.Layout}.  A checkpoint switches the log's one
    writer to the next generation's file first ({!Oplog.rotate}): the
    writer syncs what it buffers to the old file, then swaps in the new
    one, so its sequence runs on.  On startup, recovery loads the
    manifest generation's checkpoint, replays its log then (if a
    checkpoint was interrupted) the next generation's log, and then
    {e always} publishes a fresh generation before serving — which
    collapses every crash interleaving into the one invariant the
    runtime needs: while serving, the active log's generation equals
    the manifest's.  A directory with no valid manifest is fresh only
    if it holds no log or checkpoint: otherwise recovery refuses, since
    publishing a fresh generation there would delete them. *)

module P = Polytm_persist
module Oplog = P.Oplog
module Obuf = Polytm_util.Obuf
module S = Registry.S

(* A durable server: its registry and the log the registry holds. *)
type t = { reg : Registry.t; log : Wire.cmd Oplog.t }

(* ---- checkpointing ----------------------------------------------------- *)

(* One consistent cut of the whole store: every shard of both routers
   inside a single snapshot [atomically_multi], which reads each
   shard's bound (algo code, shard index, bound) and every structure's
   contents.  The nested per-structure reads ({!Registry.contents})
   flatten into the live member transactions.  Only the in-memory
   collection happens inside the snapshot — file writing happens
   after, so an aborted attempt (bound redraw) re-collects instead of
   leaving a half-written file. *)
let collect reg =
  let members =
    List.concat_map
      (fun algo ->
        List.mapi
          (fun shard stm -> (P.Frame.algo_code algo, shard, stm))
          (Registry.instances reg algo))
      [ `Tl2; `Norec ]
  in
  S.atomically_multi ~sem:Polytm.Semantics.Snapshot ~label:"checkpoint"
    (List.map (fun (_, _, stm) -> stm) members)
    (fun () ->
      ( List.map (fun (a, s, stm) -> (a, s, S.snapshot_bound stm)) members,
        List.map
          (fun (name, slot) -> (name, slot, Registry.contents slot))
          (Registry.slots reg) ))

(* The whole store framed in place as a checkpoint, in one writer. *)
let frame_checkpoint reg =
  let bounds, state = collect reg in
  let ob = Obuf.create ~initial:65536 () in
  Obuf.add_string ob P.Frame.ckpt_magic;
  let nrecords = ref 0 in
  let emit rtype ~algo write x =
    P.Frame.add ob ~rtype ~algo ~shard:0 ~stamp:0 write x;
    incr nrecords
  in
  let op cmd = emit P.Frame.rt_op ~algo:0 Wire.write_cmds [ cmd ] in
  emit P.Frame.rt_bounds ~algo:0 Obuf.add_string
    (P.Frame.encode_bounds bounds);
  List.iter
    (fun (name, (slot : Registry.slot), c) ->
      emit P.Frame.rt_new ~algo:(P.Frame.algo_code slot.algo) Wire.write_cmds
        [ Wire.New (Registry.kind_of_entry slot.entry, name) ];
      match c with
      | Registry.Pairs kvs ->
          List.iter (fun (k, v) -> op (Wire.Put (name, k, v))) kvs
      | Registry.Keys ks -> List.iter (fun k -> op (Wire.Add (name, k))) ks
      | Registry.Values vs -> List.iter (fun v -> op (Wire.Enq (name, v))) vs)
    state;
  emit P.Frame.rt_trailer ~algo:0 Obuf.add_string
    (P.Frame.encode_count !nrecords);
  ob

(* The file is opened before the store is folded, so a checkpoint that
   cannot open it folds nothing. *)
let write_checkpoint reg log ~gen =
  let t0 = Oplog.now_us () in
  let fd =
    Unix.openfile
      (P.Layout.ckpt_path ~dir:(Oplog.dir log) gen)
      [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      P.Aof.write_all fd (frame_checkpoint reg);
      Unix.fsync fd);
  Oplog.span log ~name:"checkpoint" ~ts_us:t0 ~dur_us:(Oplog.now_us () - t0)

(* Checkpoint + publish + compact.  Rotation happens first, so every
   record not yet synced to the old log lands in the new generation's
   log; the ones that slip in before the snapshot's cut carry stamps
   within the bound vector and are filtered out on replay.  A failed attempt
   (e.g. disk full writing the checkpoint) counts in
   [checkpoint_errors] and leaves the manifest — and therefore
   recovery — on the old generation, with the old log intact and the
   already-rotated new log replayed after it; the next attempt reuses
   the rotated log rather than rotating again. *)
let bgsave reg log =
  let dir = Oplog.dir log in
  let save () =
    try
      let g = Oplog.gen log in
      let g' = g + 1 in
      Oplog.rotate log ~gen:g';
      write_checkpoint reg log ~gen:g';
      P.Layout.write_manifest ~dir ~gen:g';
      P.Layout.remove_if_exists (P.Layout.ckpt_path ~dir g);
      P.Layout.remove_if_exists (P.Layout.log_path ~dir g);
      Oplog.published log ~gen:g';
      Wire.ok
    with e ->
      Oplog.checkpoint_failed log;
      Wire.Error (Wire.Proto, "checkpoint failed: " ^ Printexc.to_string e)
  in
  match Oplog.checkpointing log save with
  | Some resp -> resp
  | None -> Wire.Error (Wire.Busy, "checkpoint already running")

(* ---- recovery ---------------------------------------------------------- *)

exception Refuse of string

let refuse fmt = Printf.ksprintf (fun m -> raise (Refuse m)) fmt

(* Replay runs single-threaded before any client connects, and STM
   instances share no tvars, so consecutive frames on one instance
   replay as one transaction of at most [batch_cap] frames, each
   resolved and run by the same [Registry.resolve] thunk a live
   request runs.  The pending batch is flushed before a frame on
   another instance or spanning several, before a [NEW] record, at
   the cap and at the end of each file. *)
let batch_cap = 256

(* The fold's key hash, in OCaml: [Hashtbl.hash] is a C call on every
   fold insert.  Murmur3's 64-bit finaliser, its constants cut to fit
   a 63-bit int, carries every key bit into the low bits the table
   masks with.  [Flat_table.hash] does not: clients choose map keys,
   negative ones included, and keys that differ only in high bits
   would share a bucket under it. *)
let key_hash k =
  let h = (k lxor (k lsr 33)) * 0x3f51afd7ed558ccd in
  let h = (h lxor (h lsr 33)) * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 33)

module Keys = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = key_hash
end)

(* A map's or set's point mutations in the log tail, folded by key
   (see [fold_op]): each key's last state, a map key's value, [present]
   for a set's key, or [removed].  [removed] is told apart by physical
   equality, since a parsed value is always a fresh string; a box per
   value would be promoted with it by every minor collection. *)
type fold = { name : string; slot : Registry.slot; last : string Keys.t }

let present = "present"
let removed = "removed"

type replay = {
  reg : Registry.t;
  runs : (unit -> Wire.response) array;  (** the pending batch, in log order *)
  mutable pending : int;
  mutable on : S.t;  (** the instance of the pending batch *)
  mutable folds : fold list;
}

let replay_state reg =
  {
    reg;
    runs = Array.make batch_cap (fun () -> Wire.ok);
    pending = 0;
    on = Registry.stm reg;
    folds = [];
  }

let flush rp =
  let n = rp.pending in
  if n > 0 then begin
    rp.pending <- 0;
    S.atomically ~label:"replay" rp.on (fun _ ->
        for i = 0 to n - 1 do
          ignore (rp.runs.(i) () : Wire.response)
        done)
  end

(* Replay one mutation frame through the normal resolve-and-run path. *)
let replay_op rp (req : Wire.request) =
  match Registry.resolve rp.reg req.cmd with
  | Error (Wire.Error (_, msg)) -> refuse "unreplayable record: %s" msg
  | Error _ -> refuse "unreplayable record"
  | Ok { site = Registry.Single stm; run; _ } ->
      if rp.pending > 0 && rp.on != stm then flush rp;
      rp.on <- stm;
      rp.runs.(rp.pending) <- run;
      rp.pending <- rp.pending + 1;
      if rp.pending = batch_cap then flush rp
  | Ok { site = Registry.Spanning insts; run; _ } ->
      flush rp;
      ignore (S.atomically_multi ~label:"replay" insts run : Wire.response)

(* A log frame that sets one key of a map or set is a blind write: the
   key's last one alone decides its state, and structures share no
   state, so the log tail's are folded by key and applied once, after
   the last log file ([apply_folds]).  Each is checked where it lies,
   as [Registry.resolve] checks it, and one it would refuse replays,
   to be refused in the same words.  Queue frames, whose order
   matters, replay in log order. *)
let fold_key rp req kind name k last =
  match Registry.lookup rp.reg name with
  | Some slot when Registry.kind_of_entry slot.entry = kind ->
      let f =
        match List.find_opt (fun f -> f.slot == slot) rp.folds with
        | Some f -> f
        | None ->
            let f = { name; slot; last = Keys.create 256 } in
            rp.folds <- f :: rp.folds;
            f
      in
      Keys.replace f.last k last
  | Some _ | None -> replay_op rp req

let fold_op rp (req : Wire.request) =
  match req.cmd with
  | Wire.Put (name, k, v) -> fold_key rp req Wire.Kmap name k v
  | Wire.Del (name, k) -> fold_key rp req Wire.Kmap name k removed
  | Wire.Add (name, k) -> fold_key rp req Wire.Kset name k present
  | Wire.Remove (name, k) -> fold_key rp req Wire.Kset name k removed
  | _ -> replay_op rp req

(* Each folded key's one command, through [replay_op], the keys of one
   owner instance after another so they share its batches, each in key
   order: neighbouring keys share a map's leaves, so a batch of them
   copies and commits few. *)
let apply_folds rp =
  let apply { slot; last; _ } owner cmd =
    let keys = Array.make (Keys.length last) 0 and n = ref 0 in
    Keys.iter (fun k _ -> keys.(!n) <- k; incr n) last;
    Array.sort Int.compare keys;
    List.iter
      (fun inst ->
        Array.iter
          (fun k ->
            if owner k == inst then
              replay_op rp { Wire.hint = None; cmd = cmd k (Keys.find last k) })
          keys)
      (Registry.instances rp.reg slot.algo)
  in
  List.iter
    (fun f ->
      match f.slot.entry with
      | Registry.Emap m ->
          apply f (Registry.Shd.Map.owner m) (fun k v ->
              if v == removed then Wire.Del (f.name, k) else Wire.Put (f.name, k, v))
      | Registry.Eset hs ->
          apply f (Registry.Shd.Hash_set.owner hs) (fun k v ->
              if v == removed then Wire.Remove (f.name, k) else Wire.Add (f.name, k))
      | Registry.Equeue _ -> (* never folded *) ())
    rp.folds;
  flush rp

let replay_new rp ~algo (req : Wire.request) =
  match req.cmd with
  | Wire.New (kind, name) ->
      (* Best-effort: [Error] here means a CAS-losing NEW whose
         runtime ensure also failed — its op records never existed. *)
      ignore (Registry.ensure ?algo rp.reg kind name)
  | _ -> refuse "structure record without NEW frame"

let frames f buf off len =
  match Wire.iter_requests f buf off len with
  | `Ok -> ()
  | `Partial -> refuse "trailing bytes in record payload"
  | `Bad m -> refuse "bad frame in record payload: %s" m

(* A checkpoint's bound vector by algo code (a byte) and shard, -1
   where it holds none: a record's bound is two array reads. *)
let bound_table entries =
  let width = List.fold_left (fun w (_, s, _) -> max w (s + 1)) 0 entries in
  let t = Array.make 256 [||] in
  List.iter
    (fun (a, s, b) ->
      if Array.length t.(a) = 0 then t.(a) <- Array.make width (-1);
      t.(a).(s) <- b)
    entries;
  t

let bound t algo shard =
  let row = t.(algo) in
  if shard < Array.length row then row.(shard) else -1

(* Replay one record; [false] when its stamp is within the bound
   vector, so the checkpoint already holds it. *)
let replay_record rp ~op ~bounds (h : P.Frame.header) buf off len =
  if h.rtype = P.Frame.rt_new then begin
    flush rp;
    frames (replay_new rp ~algo:(P.Frame.algo_of_code h.algo)) buf off len;
    true
  end
  else if h.rtype = P.Frame.rt_op then begin
    let fresh = h.stamp > bound bounds h.algo h.shard in
    if fresh then frames op buf off len;
    fresh
  end
  else refuse "unexpected record type %d" h.rtype

(* A checkpoint file is all-or-nothing: a first pass validates it end
   to end (clean scan, bounds first, matching trailer) and applies
   nothing, and only then does a second pass apply its body records.
   An invalid named checkpoint refuses service — unlike a log tail,
   there is no "longest valid prefix" story for a file that claims to
   be a complete state. *)
let load_checkpoint rp ~path =
  let scan f =
    match P.Frame.scan ~magic:P.Frame.ckpt_magic ~path ~f with
    | { tear = Some tear; _ } ->
        refuse "checkpoint %s: %s" path (Format.asprintf "%a" P.Frame.pp_tear tear)
    | { records; _ } -> records
    | exception Sys_error m -> refuse "checkpoint unreadable: %s" m
  in
  let first = ref (-1) and bounds = ref "" in
  let last = ref (-1) and trailer = ref "" in
  let records =
    scan (fun h buf off len ->
        if !first < 0 then begin
          first := h.rtype;
          if h.rtype = P.Frame.rt_bounds then bounds := Bytes.sub_string buf off len
        end;
        last := h.rtype;
        if h.rtype = P.Frame.rt_trailer then trailer := Bytes.sub_string buf off len)
  in
  if !first <> P.Frame.rt_bounds then refuse "checkpoint missing bounds record";
  let entries =
    match P.Frame.decode_bounds !bounds with
    | Some l -> l
    | None -> refuse "checkpoint bounds record malformed"
  in
  if !last <> P.Frame.rt_trailer then refuse "checkpoint missing trailer";
  (match P.Frame.decode_count !trailer with
  | Some n when n = records - 1 -> ()
  | Some _ -> refuse "checkpoint trailer count mismatch"
  | None -> refuse "checkpoint trailer malformed");
  (* no bounds: every body record (stamp 0) applies *)
  let none = bound_table [] and op = replay_op rp in
  let i = ref 0 in
  ignore
    (scan (fun h buf off len ->
         if !i > 0 && !i < records - 1 then
           ignore (replay_record rp ~op ~bounds:none h buf off len : bool);
         incr i));
  flush rp;
  (bound_table entries, records)

(* Replay a log file against the bound vector.  A missing file is an
   empty log.  Returns (records applied, tear description option). *)
let replay_log rp ~bounds ~path =
  let applied = ref 0 and op = fold_op rp in
  let scan =
    try
      P.Frame.scan ~magic:P.Frame.log_magic ~path ~f:(fun h buf off len ->
          if replay_record rp ~op ~bounds h buf off len then incr applied)
    with Sys_error _ -> { P.Frame.records = 0; valid_bytes = 0; tear = None }
  in
  flush rp;
  ( !applied,
    Option.map
      (fun tr ->
        Format.asprintf "%s: %a" (Filename.basename path) P.Frame.pp_tear tr)
      scan.tear )

type recovered = {
  r_replayed : int;  (** records applied (checkpoint + log tail) *)
  r_tear : string option;  (** where the log tail was cut, if it was *)
  r_ms : float;
  r_at_us : int;  (** when recovery started (unix µs), for the trace *)
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* Without a valid MANIFEST a directory is fresh only if it holds no
   generation files.  Otherwise the MANIFEST was lost or torn, or the
   directory's first start crashed before writing it; starting empty
   would let [activate] delete those files, so recovery refuses and
   names them. *)
let refuse_without_manifest ~dir =
  match P.Layout.gen_files ~dir with
  | [] -> ()
  | files ->
      refuse
        "%s has %s MANIFEST but holds %s; refusing to start, which would \
         discard them.  Restore its MANIFEST, or, if the directory's first \
         start crashed before writing one, remove those files"
        dir
        (if Sys.file_exists (Filename.concat dir P.Layout.manifest_name) then
           "an unreadable"
         else "no")
        (String.concat ", " files)

(* Phase 1 of startup: rebuild the registry's contents from the data
   directory.  No hooks are installed yet, so nothing replayed is
   re-logged.  Run this on a {e fresh} registry, before pre-created
   structures are ensured (recovered structures win ties). *)
let recover ~dir reg =
  let t0 = Unix.gettimeofday () in
  mkdir_p dir;
  try
    let replayed, tear =
      match P.Layout.read_manifest ~dir with
      | None ->
          refuse_without_manifest ~dir;
          (0, None)
      | Some gen ->
          let rp = replay_state reg in
          let bounds, ckpt_records =
            load_checkpoint rp ~path:(P.Layout.ckpt_path ~dir gen)
          in
          let n1, tear1 =
            replay_log rp ~bounds ~path:(P.Layout.log_path ~dir gen)
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
                replay_log rp ~bounds
                  ~path:(P.Layout.log_path ~dir (gen + 1))
          in
          apply_folds rp;
          ( ckpt_records + n1 + n2,
            match tear1 with Some _ -> tear1 | None -> tear2 )
    in
    Ok
      {
        r_replayed = replayed;
        r_tear = tear;
        r_ms = (Unix.gettimeofday () -. t0) *. 1000.;
        r_at_us = int_of_float (t0 *. 1e6);
      }
  with
  | Refuse m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

(* ---- activation -------------------------------------------------------- *)

(* Point every instance's commit hook at [log], or drop the hooks. *)
let set_hooks reg log =
  List.iter
    (fun algo ->
      List.iteri
        (fun shard stm ->
          S.set_commit_hook stm
            (Option.map
               (fun log -> Oplog.hook log ~algo:(P.Frame.algo_code algo) ~shard)
               log))
        (Registry.instances reg algo))
    [ `Tl2; `Norec ]

(* Phase 2 of startup: publish a fresh generation (checkpoint of the
   recovered + pre-created state), open its log, install the commit
   hooks, and hand the registry the log.  Always starting a fresh
   generation collapses every crash interleaving recovery can leave
   behind — stale logs, orphan checkpoints from failed BGSAVEs — into
   one invariant: while serving, active log gen = manifest gen. *)
let activate ~dir ~policy reg (recovered : recovered) =
  try
    let gens = P.Layout.gens ~dir in
    let manifest_gen =
      match P.Layout.read_manifest ~dir with Some g -> g | None -> 0
    in
    let g' = 1 + List.fold_left max manifest_gen gens in
    P.Layout.remove_if_exists (P.Layout.log_path ~dir g');
    let log =
      Oplog.create ~dir ~policy ~encode:Wire.write_cmds ~gen:g'
        ~replayed:recovered.r_replayed
        ~recover_ms:recovered.r_ms
        ~tear:(match recovered.r_tear with None -> "none" | Some m -> m)
    in
    Oplog.span log ~name:"recovery" ~ts_us:recovered.r_at_us
      ~dur_us:(int_of_float (recovered.r_ms *. 1000.));
    write_checkpoint reg log ~gen:g';
    P.Layout.write_manifest ~dir ~gen:g';
    List.iter
      (fun g ->
        if g <> g' then begin
          P.Layout.remove_if_exists (P.Layout.log_path ~dir g);
          P.Layout.remove_if_exists (P.Layout.ckpt_path ~dir g)
        end)
      (List.sort_uniq compare (manifest_gen :: gens));
    Oplog.published log ~gen:g';
    set_hooks reg (Some log);
    reg.Registry.persist <- Some log;
    Ok { reg; log }
  with
  | Refuse m -> Error m
  | Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))
  | Sys_error m -> Error m

(* Shutdown: drop the hooks (late internal commits on the drain path
   would otherwise probe a closed log), then sync whatever the final
   acks left buffered and close. *)
let stop { reg; log } =
  set_hooks reg None;
  reg.Registry.persist <- None;
  Oplog.close log
