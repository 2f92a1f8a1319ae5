(** Directory layout and the generation manifest.

    A data directory holds numbered generations:

    {v
      MANIFEST                   current generation G (text)
      checkpoint-<G>.ptmckp      state as of G's bound vector (G >= 1)
      log-<G>.ptmlog             ops committed after that cut
      log-<G+1>.ptmlog           present only mid-checkpoint
    v}

    A checkpoint run writes [checkpoint-<G+1>] (from a snapshot), logs
    new commits to [log-<G+1>] (rotated at the start of the run), then
    atomically publishes by rewriting MANIFEST to [G+1] (tmp + rename
    + directory fsync) and deleting generation [G]'s files.  A crash
    at any point leaves either generation fully recoverable: recovery
    loads MANIFEST's checkpoint, then replays [log-<G>] {e then}
    [log-<G+1>] (stamp filtering against the checkpoint's bound vector
    makes the overlap harmless — see DESIGN §S21).  A directory whose
    MANIFEST is missing or unreadable but that holds generation files
    is refused by recovery, never taken for a fresh one. *)

let manifest_name = "MANIFEST"
let manifest_magic = "PTMMANIFEST1"
let log_name gen = Printf.sprintf "log-%08d.ptmlog" gen
let ckpt_name gen = Printf.sprintf "checkpoint-%08d.ptmckp" gen
let log_path ~dir gen = Filename.concat dir (log_name gen)
let ckpt_path ~dir gen = Filename.concat dir (ckpt_name gen)

(* The generation of a log or checkpoint file name, if it is one. *)
let gen_of_name name =
  match Scanf.sscanf_opt name "log-%u.ptmlog%!" Fun.id with
  | Some g -> Some g
  | None -> Scanf.sscanf_opt name "checkpoint-%u.ptmckp%!" Fun.id

(* The log and checkpoint file names in [dir], sorted. *)
let gen_files ~dir =
  List.sort compare
    (List.filter
       (fun name -> Option.is_some (gen_of_name name))
       (Array.to_list (try Sys.readdir dir with Sys_error _ -> [||])))

(* The generations that have a log or a checkpoint file in [dir]. *)
let gens ~dir = List.filter_map gen_of_name (gen_files ~dir)

(* Make a rename in [dir] durable.  A failed fsync raises: the caller
   must not delete what the rename replaced while the rename itself may
   not be on disk. *)
let fsync_dir dir =
  match Unix.openfile dir [ O_RDONLY ] 0 with
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try Unix.fsync fd
          with Unix.Unix_error (e, fn, _) -> raise (Unix.Unix_error (e, fn, dir)))
  | exception Unix.Unix_error _ ->
      (* Some filesystems refuse O_RDONLY on directories; the rename
         is still atomic, we just lose the durability of the rename
         itself — acceptable on such systems. *)
      ()

(* MANIFEST contents: two lines, magic then "gen <G>". *)
let read_manifest ~dir =
  let path = Filename.concat dir manifest_name in
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (* the two reads must be sequenced lets: a tuple literal
             would evaluate them right to left *)
          match
            let magic = input_line ic in
            let gen_line = input_line ic in
            (magic, gen_line)
          with
          | magic, gen_line when String.equal magic manifest_magic -> (
              match String.split_on_char ' ' gen_line with
              | [ "gen"; g ] -> int_of_string_opt g
              | _ -> None)
          | _ -> None
          | exception End_of_file -> None)

(* A failed write or fsync of the temporary file raises before the
   rename, so the old MANIFEST stands: renaming an unsynced file over
   it could leave an empty MANIFEST after a crash.  A failed fsync of
   the directory raises after it, so no caller deletes the previous
   generation's files while the rename may not be on disk. *)
let write_manifest ~dir ~gen =
  let path = Filename.concat dir manifest_name in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Printf.fprintf oc "%s\ngen %d\n" manifest_magic gen;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  fsync_dir dir

let remove_if_exists path = try Sys.remove path with Sys_error _ -> ()
