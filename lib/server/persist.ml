(** Checkpoints, crash recovery and activation: the durability code
    that needs the registry.  The live log itself — its writer, the
    commit-hook arming protocol, the counters and trace spans — is
    {!Polytm_persist.Oplog}, one value per server, held by the registry
    and called directly by the registry and the session.

    {2 Records}

    Every op-log and checkpoint record's payload is wire request frames
    ({!Wire.encode_cmds}), the same bytes a client sends, so replay is
    simply "parse the frame, resolve it against the registry, run the
    transaction", one code path shared by log replay and checkpoint
    loading, exercised by the same codec fuzzers as the live server.
    The encoder writes integers straight into its buffer; the wire
    tests pin its bytes per command and hold it to a [string_of_int]
    reference, because a change to those bytes is a change to every
    log and checkpoint on disk.

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
module Oplog = P.Oplog
module S = Registry.S

(* A durable server: its registry and the log the registry holds. *)
type t = { reg : Registry.t; log : Oplog.t }

(* ---- checkpointing ----------------------------------------------------- *)

(* One consistent cut of the whole store: every shard of both routers
   inside a single snapshot [atomically_multi].  The nested
   per-structure reads ({!Registry.contents}) flatten into the live
   member transactions.  Only the in-memory collection happens inside
   the snapshot — file writing happens after, so an aborted attempt
   (bound redraw) re-collects instead of leaving a half-written
   file. *)
let collect reg =
  let bounds = ref [] in
  let insts = Registry.instances reg `Tl2 @ Registry.instances reg `Norec in
  let state =
    S.atomically_multi ~sem:Polytm.Semantics.Snapshot ~label:"checkpoint"
      ~bounds insts (fun () ->
        List.map
          (fun (name, slot) -> (name, slot, Registry.contents slot))
          (Registry.slots reg))
  in
  (state, !bounds)

(* Map a bound's instance back to its (algo code, shard index). *)
let locate reg stm =
  let find algo =
    let rec idx i = function
      | [] -> None
      | s :: rest ->
          if s == stm then Some (P.Frame.algo_code algo, i)
          else idx (i + 1) rest
    in
    idx 0 (Registry.instances reg algo)
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

let write_checkpoint reg log ~gen =
  let t0 = Oplog.now_us () in
  let state, bounds = collect reg in
  let bound_entries =
    List.filter_map
      (fun (stm, b) ->
        Option.map (fun (a, s) -> (a, s, b)) (locate reg stm))
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
    (fun (name, (slot : Registry.slot), c) ->
      emit
        { (zero P.Frame.rt_new) with algo = P.Frame.algo_code slot.algo }
        (Wire.encode_cmds
           [ Wire.New (Registry.kind_of_entry slot.entry, name) ]);
      let ops =
        match c with
        | Registry.Pairs kvs ->
            List.map (fun (k, v) -> Wire.Put (name, k, v)) kvs
        | Registry.Keys ks -> List.map (fun k -> Wire.Add (name, k)) ks
        | Registry.Values vs -> List.map (fun v -> Wire.Enq (name, v)) vs
      in
      List.iter
        (fun cmd -> emit (zero P.Frame.rt_op) (Wire.encode_cmds [ cmd ]))
        ops)
    state;
  let body_records = !nrecords in
  emit (zero P.Frame.rt_trailer) (P.Frame.encode_count body_records);
  write_file_durably
    (P.Layout.ckpt_path ~dir:(Oplog.dir log) gen)
    (Buffer.contents buf);
  Oplog.span log ~name:"checkpoint" ~ts_us:t0 ~dur_us:(Oplog.now_us () - t0)

(* Checkpoint + publish + compact.  Rotation happens first, so every
   commit from here on lands in the new generation's log; the ones
   that slip in before the snapshot's cut carry stamps within the
   bound vector and are filtered out on replay.  A failed attempt
   (e.g. disk full writing the checkpoint) leaves the manifest — and
   therefore recovery — on the old generation, with the old log intact
   and the already-rotated new log replayed after it; the next attempt
   reuses the rotated log rather than rotating again. *)
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
      Wire.Error (Wire.Proto, "checkpoint failed: " ^ Printexc.to_string e)
  in
  match Oplog.checkpointing log save with
  | Some resp -> resp
  | None -> Wire.Error (Wire.Busy, "checkpoint already running")

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
      (apply_new reg ~algo:(P.Frame.algo_of_code r.hdr.algo))
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
  else refuse "unexpected record type %d" r.hdr.rtype

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
              (* no bounds: every body record (stamp 0) applies *)
              let unbounded = Hashtbl.create 0 in
              List.iter
                (fun r -> ignore (apply_record reg dec ~bounds:unbounded r))
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
  r_at_us : int;  (** when recovery started (unix µs), for the trace *)
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
    let replayed, tear =
      match P.Layout.read_manifest ~dir with
      | None -> (0, None)
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
      Oplog.create ~dir ~policy ~gen:g' ~replayed:recovered.r_replayed
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
