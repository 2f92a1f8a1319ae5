(* Durability tests (DESIGN.md §S21): the record format, the op log +
   checkpoint + recovery pipeline, and the server glue.

   - Frame fuzz (qcheck): a file cut at a random byte, or with a
     random byte flipped, scans as {e exactly} the longest valid
     prefix of its records plus a typed tear — never an exception,
     never a short or long prefix.
   - Deterministic recovery differential: a seeded mixed workload
     (pipelined ops, a MULTI batch, a mid-run BGSAVE) against a live
     server under [`Always], then a simulated crash (no shutdown, no
     final sync); recovery into a fresh registry must reproduce the
     live store byte for byte — for both algorithms and both 1- and
     8-shard routers.
   - Torn-tail cut exactness on a {e real} crash log: truncating the
     log mid-record recovers the same state as truncating at the
     preceding record boundary, and the boundary states are exactly
     the write prefixes — also on an 8-shard log long enough that
     replay closes batches at its cap, cut on both sides of each.
   - A checkpoint that is not whole refuses recovery and applies
     nothing.
   - BGSAVE concurrency: the server keeps answering writes while a
     checkpoint folds, and the checkpoint truncates the log
     (generation bump, old files deleted).
   - INFO: uptime/struct/persist lines, and the persistence-off
     server's typed refusals for BGSAVE/LASTSAVE. *)

module Wire = Polytm_server.Wire
module Limits = Polytm_server.Limits
module Registry = Polytm_server.Registry
module Session = Polytm_server.Session
module Evloop = Polytm_server.Evloop
module Persist = Polytm_server.Persist
module Server = Polytm_server.Server
module P = Polytm_persist
module S = Registry.S
module Sem = Polytm.Semantics

let req ?hint cmd = { Wire.hint; cmd }

let prop = Test_seed.to_alcotest

(* ---- plumbing ---------------------------------------------------------- *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let frames cmds =
  let b = Buffer.create 256 in
  List.iter (fun cmd -> Wire.write_request b { Wire.hint = None; cmd }) cmds;
  Buffer.contents b

let send fd cmds = write_all fd (frames cmds)

let recv_n fd n =
  let dec = Wire.Decoder.create () in
  let buf = Bytes.create 65536 in
  let out = ref [] in
  let got = ref 0 in
  while !got < n do
    (let rec pop () =
       if !got < n then
         match Wire.Decoder.next_response dec with
         | `Ok r ->
             out := r :: !out;
             incr got;
             pop ()
         | `Await -> ()
         | `Bad m -> Alcotest.failf "malformed reply: %s" m
         | `Corrupt m -> Alcotest.failf "corrupt reply stream: %s" m
     in
     pop ());
    if !got < n then
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.failf "server closed with %d/%d replies" !got n
      | len -> Wire.Decoder.feed dec buf 0 len
  done;
  List.rev !out

let roundtrip fd cmds =
  send fd cmds;
  recv_n fd (List.length cmds)

let rec resp_str = function
  | Wire.Simple s -> "+" ^ s
  | Wire.Int n -> ":" ^ string_of_int n
  | Wire.Bulk s -> "$" ^ s
  | Wire.Nil -> "_"
  | Wire.Error (c, m) -> "-" ^ Wire.err_code_to_string c ^ " " ^ m
  | Wire.Array l -> "[" ^ String.concat "," (List.map resp_str l) ^ "]"
  | Wire.Push s -> ">" ^ s

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir =
  let c = ref 0 in
  fun tag ->
    incr c;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "polytm-persist-%d-%s-%d" (Unix.getpid ()) tag !c)
    in
    rm_rf d;
    d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* Canonical whole-store dump via one consistent snapshot — the
   equality oracle for recovery (map/set entries sorted, queue order
   preserved). *)
let dump reg =
  let insts = Registry.instances reg `Tl2 @ Registry.instances reg `Norec in
  S.atomically_multi ~sem:Polytm.Semantics.Snapshot insts (fun () ->
      String.concat "\n"
        (List.map
           (fun (name, (slot : Registry.slot)) ->
             let body =
               match slot.Registry.entry with
               | Registry.Emap m ->
                   String.concat ";"
                     (List.map
                        (fun (k, v) -> Printf.sprintf "%d=%s" k v)
                        (List.sort compare (Registry.Shd.Map.to_list m)))
               | Registry.Eset h ->
                   String.concat ";"
                     (List.map string_of_int
                        (List.sort compare (Registry.Shd.Hash_set.to_list h)))
               | Registry.Equeue (q, _) ->
                   String.concat ";" (Registry.Squeue.to_list q)
             in
             name ^ "{" ^ body ^ "}")
           (Registry.slots reg)))

(* Each instance's commit count, TL2 shards then NORec shards. *)
let commits reg =
  List.map
    (fun stm -> (S.stats stm).S.commits)
    (Registry.instances reg `Tl2 @ Registry.instances reg `Norec)

(* Run [f client_fd registry persist] against one live session with
   durability active.  [graceful:false] simulates a crash: the session
   drains (so every acked reply is out) but [Persist.stop] — the final
   sync and close — never runs; under [`Always] everything acked is
   already on disk, which is exactly the durability contract. *)
let run_session ?(limits = Limits.default) ?(shards = 1) ?(algo = `Tl2)
    ?(graceful = false) ~dir ~policy f =
  let registry = Registry.create ~shards ~default_algo:algo () in
  let recovered =
    match Persist.recover ~dir registry with
    | Ok r -> r
    | Error m -> Alcotest.failf "recover: %s" m
  in
  let p =
    match Persist.activate ~dir ~policy registry recovered with
    | Ok p -> p
    | Error m -> Alcotest.failf "activate: %s" m
  in
  let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stop = Atomic.make false in
  let stats = Session.create_stats () in
  let dom =
    Domain.spawn (fun () ->
        Evloop.handle
          ~stop:(fun () -> Atomic.get stop)
          ~limits ~registry ~stats server_fd)
  in
  let finally () =
    (try Unix.shutdown client_fd Unix.SHUTDOWN_SEND with _ -> ());
    Domain.join dom;
    (try Unix.close client_fd with _ -> ());
    (try Unix.close server_fd with _ -> ());
    if graceful then Persist.stop p
  in
  match f client_fd registry p with
  | v ->
      finally ();
      v
  | exception e ->
      finally ();
      raise e

let recover_fresh ?(shards = 1) ?(algo = `Tl2) ~dir () =
  let reg = Registry.create ~shards ~default_algo:algo () in
  match Persist.recover ~dir reg with
  | Ok r -> (reg, r)
  | Error m -> Alcotest.failf "recover: %s" m

(* ---- frame-level fuzz --------------------------------------------------- *)

(* The record encoder as it was before records were framed in place:
   the body header in a 12-byte [Bytes], the CRC run over it and then
   over the payload string, and [Buffer] appends.  [Frame.add] must
   write exactly these bytes, and the tests below build their logs and
   checkpoints with it. *)
let reference_record buf (hdr : P.Frame.header) ~payload =
  let h = Bytes.create P.Frame.body_hdr_len in
  Bytes.set_uint8 h 0 hdr.rtype;
  Bytes.set_uint8 h 1 hdr.algo;
  Bytes.set_uint16_le h 2 hdr.shard;
  Bytes.set_int64_le h 4 (Int64.of_int hdr.stamp);
  let h = Bytes.unsafe_to_string h in
  let plen = String.length payload in
  let crc = P.Crc32.update (P.Crc32.string h) payload 0 plen in
  Buffer.add_int32_le buf (Int32.of_int (P.Frame.body_hdr_len + plen));
  Buffer.add_int32_le buf (Int32.of_int crc);
  Buffer.add_string buf h;
  Buffer.add_string buf payload

(* An op record's payload as the reference writes it: the hint-free
   frames of [cmds] from the wire tests' [string_of_int] encoder. *)
let reference_payload cmds =
  String.concat ""
    (List.map (fun cmd -> Test_wire.reference_request { Wire.hint = None; cmd }) cmds)

(* A record as the tests build and read them: its body header and a
   copy of its payload. *)
type record = { hdr : P.Frame.header; payload : string }

let gen_record =
  QCheck.Gen.(
    let* rtype = oneofl [ P.Frame.rt_op; P.Frame.rt_new ] in
    let* algo = int_range 0 1 in
    let* shard = int_range 0 64 in
    let* stamp = int_range 0 1_000_000 in
    let+ payload = string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 60) in
    { hdr = { P.Frame.rtype; algo; shard; stamp }; payload })

let encode_log records =
  let b = Buffer.create 1024 in
  Buffer.add_string b P.Frame.log_magic;
  let ends = ref [ Buffer.length b ] in
  List.iter
    (fun (r : record) ->
      reference_record b r.hdr ~payload:r.payload;
      ends := Buffer.length b :: !ends)
    records;
  (Buffer.contents b, List.rev !ends)

let scan_records path =
  let acc = ref [] in
  let scan =
    P.Frame.scan ~magic:P.Frame.log_magic ~path ~f:(fun hdr buf off len ->
        acc := { hdr; payload = Bytes.sub_string buf off len } :: !acc)
  in
  (List.rev !acc, scan)

let record_eq (a : record) (b : record) =
  a.hdr = b.hdr && String.equal a.payload b.payload

(* A file cut at byte [x] scans as exactly the records fully before
   [x], with a tear unless [x] is a record boundary. *)
let prop_torn_tail =
  QCheck.Test.make ~count:300 ~name:"scan of a cut log = longest valid prefix"
    QCheck.(
      make
        Gen.(
          let* records = list_size (int_range 1 15) gen_record in
          let+ cut = float_range 0. 1. in
          (records, cut)))
    (fun (records, cutf) ->
      let bytes, ends = encode_log records in
      let cut = int_of_float (cutf *. float_of_int (String.length bytes)) in
      let cut = min cut (String.length bytes) in
      let path = Filename.temp_file "polytm-cut" ".ptmlog" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          write_file path (String.sub bytes 0 cut);
          let got, scan = scan_records path in
          let expected =
            if cut < P.Frame.magic_len then []
            else
              List.filteri
                (fun i _ -> List.nth ends (i + 1) <= cut)
                records
          in
          let boundary = List.exists (fun e -> e = cut) ends in
          List.length got = List.length expected
          && List.for_all2 record_eq got expected
          && scan.P.Frame.tear = None = (boundary && cut >= P.Frame.magic_len)
          && scan.P.Frame.records = List.length expected))

(* Flipping one byte inside record [j]'s frame loses [j] and its
   suffix, never a record before it, and never raises. *)
let prop_bitflip =
  QCheck.Test.make ~count:300 ~name:"scan of a corrupted log stops at the flip"
    QCheck.(
      make
        Gen.(
          let* records = list_size (int_range 1 12) gen_record in
          let* posf = float_range 0. 1. in
          let+ delta = int_range 1 255 in
          (records, posf, delta)))
    (fun (records, posf, delta) ->
      let bytes, ends = encode_log records in
      let body_len = String.length bytes - P.Frame.magic_len in
      QCheck.assume (body_len > 0);
      let pos =
        P.Frame.magic_len
        + min (body_len - 1) (int_of_float (posf *. float_of_int body_len))
      in
      let flipped = Bytes.of_string bytes in
      Bytes.set flipped pos
        (Char.chr ((Char.code bytes.[pos] + delta) land 0xff));
      let path = Filename.temp_file "polytm-flip" ".ptmlog" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          write_file path (Bytes.to_string flipped);
          let got, scan = scan_records path in
          (* index of the record whose frame contains [pos] *)
          let j =
            let rec go i = function
              | e :: _ when pos < e -> i
              | _ :: rest -> go (i + 1) rest
              | [] -> i
            in
            go (-1) ends
          in
          let expected = List.filteri (fun i _ -> i < j) records in
          List.length got = List.length expected
          && List.for_all2 record_eq got expected
          && scan.P.Frame.tear <> None))

(* The scanner reads through a window of [P.Frame.window] bytes: records
   that straddle its end, or are several windows long, scan like any
   other.  A log of payloads from empty to three windows long, cut at
   each record boundary and one byte short of it, scans as exactly the
   records before the cut. *)
let test_scan_long_records () =
  let w = P.Frame.window in
  let sizes = [ 0; 100; w - 20; w; (3 * w) + 7; 5; 2 * w; 1; w - 1 ] in
  let records =
    List.mapi
      (fun i n ->
        {
          hdr = { P.Frame.rtype = P.Frame.rt_op; algo = i mod 2; shard = i; stamp = i };
          payload = String.init n (fun j -> Char.chr (((i * 31) + j) land 0xff));
        })
      sizes
  in
  let bytes, ends = encode_log records in
  let path = Filename.temp_file "polytm-long" ".ptmlog" in
  let scan_cut cut =
    write_file path (String.sub bytes 0 cut);
    scan_records path
  in
  let first k = List.filteri (fun i _ -> i < k) records in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iteri
        (fun k e ->
          let got, scan = scan_cut e in
          Alcotest.(check bool)
            (Printf.sprintf "cut after %d records: those records" k)
            true
            (List.length got = k && List.for_all2 record_eq got (first k));
          Alcotest.(check bool) "no tear" true (scan.P.Frame.tear = None);
          if k > 0 then begin
            let got, scan = scan_cut (e - 1) in
            Alcotest.(check bool)
              (Printf.sprintf "cut inside record %d: the records before it" (k - 1))
              true
              (List.length got = k - 1 && List.for_all2 record_eq got (first (k - 1)));
            Alcotest.(check int) "the tear is at the record's start"
              (List.nth ends (k - 1))
              (match scan.P.Frame.tear with Some t -> t.P.Frame.at | None -> -1)
          end)
        ends)

(* ---- records framed in place = the reference's bytes --------------------- *)

(* What the op log and checkpoints record: one mutation (a BLPOP or
   BTAKE is logged as the DEQ it performs), the mutations of a MULTI
   batch, or a creation; keys 0, negative, [min_int] and [max_int];
   values empty, short, or longer than a writer's initial 4 KB. *)
let gen_logged =
  QCheck.Gen.(
    let key =
      frequency
        [ (2, oneofl [ 0; -1; min_int; max_int ]); (3, small_signed_int); (1, int) ]
    in
    let blob n = string_size ~gen:(map Char.chr (0 -- 255)) n in
    let value =
      frequency [ (1, return ""); (4, blob (1 -- 20)); (1, blob (4_000 -- 9_000)) ]
    in
    let name = blob (0 -- 12) in
    let mutation =
      oneof
        [
          map3 (fun s k v -> Wire.Put (s, k, v)) name key value;
          map2 (fun s k -> Wire.Del (s, k)) name key;
          map2 (fun s k -> Wire.Add (s, k)) name key;
          map2 (fun s k -> Wire.Remove (s, k)) name key;
          map2 (fun s v -> Wire.Enq (s, v)) name value;
          map (fun s -> Wire.Deq s) name;
        ]
    in
    frequency
      [
        (4, map (fun c -> [ c ]) mutation);
        (2, list_size (2 -- 6) mutation);
        ( 1,
          map2
            (fun k s -> [ Wire.New (k, s) ])
            (oneofl [ Wire.Kmap; Wire.Kset; Wire.Kqueue ])
            name );
      ])

let gen_header =
  QCheck.Gen.(
    let* rtype = oneofl [ P.Frame.rt_op; P.Frame.rt_new ] in
    let* algo = int_range 0 1 in
    let* shard = int_range 0 65_535 in
    let+ stamp = oneof [ int_range 0 1_000_000; oneofl [ 0; max_int ]; int ] in
    { P.Frame.rtype; algo; shard; stamp })

(* Records framed one after another in one writer, each by [Frame.add]
   from the commands, equal the reference's bytes for the same headers
   and commands. *)
let prop_record_reference =
  QCheck.Test.make ~count:300 ~name:"a record framed in place = the reference record"
    QCheck.(make Gen.(list_size (1 -- 4) (pair gen_header gen_logged)))
    (fun records ->
      let ob = Wire.Obuf.create () and b = Buffer.create 256 in
      List.iter
        (fun ((hdr : P.Frame.header), cmds) ->
          P.Frame.add ob ~rtype:hdr.rtype ~algo:hdr.algo ~shard:hdr.shard
            ~stamp:hdr.stamp Wire.write_cmds cmds;
          reference_record b hdr ~payload:(reference_payload cmds))
        records;
      String.equal (Wire.Obuf.contents ob) (Buffer.contents b))

(* ---- CRC-32 against a reference ------------------------------------------ *)

(* Bit by bit, one byte at a time: the definition the tables of
   [Crc32] unroll, resumed from [crc] like [Crc32.update]. *)
let crc_reference crc s pos len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let gen_bytes = QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 80))

let test_crc_check_value () =
  Alcotest.(check int) "CRC-32 of \"123456789\"" 0xCBF43926
    (P.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (P.Crc32.string "");
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "update at %d for %d of 9 bytes" pos len)
        (Invalid_argument "Crc32.update")
        (fun () -> ignore (P.Crc32.update 0 "123456789" pos len)))
    [ (-1, 1); (0, -1); (5, 5); (10, 0); (0, max_int); (max_int, 1) ]

(* Random start accumulators (the CRC of a random prefix), strings,
   offsets and lengths: every alignment and every leftover count of
   the 4-byte loop. *)
let prop_crc_reference =
  QCheck.Test.make ~count:1000 ~name:"Crc32.update = the bitwise reference"
    QCheck.(
      make
        Gen.(
          let* prefix = gen_bytes in
          let* s = gen_bytes in
          let* pos = int_range 0 (String.length s) in
          let+ len = int_range 0 (String.length s - pos) in
          (prefix, s, pos, len)))
    (fun (prefix, s, pos, len) ->
      let start = P.Crc32.string prefix in
      start = crc_reference 0 prefix 0 (String.length prefix)
      && P.Crc32.update start s pos len = crc_reference start s pos len)

(* The reference record encoder runs the CRC over the body header and
   then the payload: feeding a string in two pieces must equal one
   call. *)
let prop_crc_pieces =
  QCheck.Test.make ~count:1000 ~name:"Crc32.update over two pieces = one call"
    QCheck.(
      make
        Gen.(
          let* s = gen_bytes in
          let+ cut = int_range 0 (String.length s) in
          (s, cut)))
    (fun (s, cut) ->
      let n = String.length s in
      P.Crc32.update (P.Crc32.update 0 s 0 cut) s cut (n - cut)
      = P.Crc32.string s)

(* ---- deterministic recovery differential -------------------------------- *)

let gen_ops st n =
  List.init n (fun i ->
      let k = Random.State.int st 50 in
      let v = Printf.sprintf "v%d-%d" i k in
      match Random.State.int st 8 with
      | 0 | 1 | 2 -> Wire.Put ("m", k, v)
      | 3 -> Wire.Del ("m", k)
      | 4 -> Wire.Add ("s", k)
      | 5 -> Wire.Remove ("s", k)
      | 6 -> Wire.Enq ("q", v)
      | _ -> Wire.Deq "q")

let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let test_recovery_differential ~algo ~shards () =
  let dir = fresh_dir "diff" in
  let st =
    Random.State.make
      [| Test_seed.seed; shards; (match algo with `Tl2 -> 1 | `Norec -> 2) |]
  in
  let live =
    run_session ~dir ~policy:`Always ~shards ~algo (fun fd reg _p ->
        let r =
          roundtrip fd
            [
              Wire.New (Wire.Kmap, "m");
              Wire.New (Wire.Kset, "s");
              Wire.New (Wire.Kqueue, "q");
            ]
        in
        List.iter
          (function Wire.Simple _ -> () | _ -> Alcotest.fail "NEW failed")
          r;
        List.iter
          (fun batch -> ignore (roundtrip fd batch))
          (chunks 32 (gen_ops st 150));
        (* mid-run checkpoint: log rotation + compaction while the
           session keeps going afterwards *)
        (match roundtrip fd [ Wire.Bgsave ] with
        | [ Wire.Simple "OK" ] -> ()
        | [ r ] ->
            Alcotest.failf "BGSAVE: %s"
              (resp_str r)
        | _ -> assert false);
        List.iter
          (fun batch -> ignore (roundtrip fd batch))
          (chunks 32 (gen_ops st 150));
        (* one cross-key MULTI batch: logged as one record *)
        let batch =
          [ Wire.Put ("m", 1001, "multi-a"); Wire.Add ("s", 1002);
            Wire.Enq ("q", "multi-c") ]
        in
        ignore
          (roundtrip fd
             ((Wire.Multi :: batch) @ [ Wire.Multi_end ]));
        dump reg)
  in
  (* crash: no Persist.stop ran.  Recover into a fresh registry. *)
  let reg2, r = recover_fresh ~shards ~algo ~dir () in
  Alcotest.(check (option string)) "clean tail" None r.Persist.r_tear;
  Alcotest.(check string) "recovered store = live store" live (dump reg2);
  rm_rf dir

(* ---- torn-tail cut exactness on a real crash log ------------------------ *)

let test_torn_tail_real () =
  let dir = fresh_dir "torn" in
  let n = 30 in
  run_session ~dir ~policy:`Always (fun fd _reg _p ->
      ignore (roundtrip fd [ Wire.New (Wire.Kmap, "m") ]);
      (* one op per roundtrip: commit order = key order, so the log is
         NEW, PUT 0, PUT 1, ... and a prefix of it is a known state *)
      for i = 0 to n - 1 do
        match roundtrip fd [ Wire.Put ("m", i, "v" ^ string_of_int i) ] with
        | [ Wire.Int _ ] -> ()
        | _ -> Alcotest.fail "PUT failed"
      done);
  let gen =
    match P.Layout.read_manifest ~dir with
    | Some g -> g
    | None -> Alcotest.fail "no manifest"
  in
  let path = P.Layout.log_path ~dir gen in
  let full = read_file path in
  (* record boundaries from the length prefixes *)
  let boundaries =
    let rec go off acc =
      if off >= String.length full then List.rev acc
      else
        let len = Int32.to_int (String.get_int32_le full off) in
        let e = off + 8 + len in
        go e (e :: acc)
    in
    go P.Frame.magic_len [ P.Frame.magic_len ]
  in
  Alcotest.(check int) "one NEW + n PUTs" (n + 2) (List.length boundaries);
  let state_at_cut cut ~expect_tear =
    write_file path (String.sub full 0 cut);
    let reg, r = recover_fresh ~dir () in
    (match (expect_tear, r.Persist.r_tear) with
    | true, None -> Alcotest.fail "expected a reported tear"
    | false, Some m -> Alcotest.failf "unexpected tear: %s" m
    | _ -> ());
    dump reg
  in
  let expected_at k =
    (* state after NEW + the first [k - 1] puts (record 0 is the NEW) *)
    if k = 0 then ""
    else
      "m{"
      ^ String.concat ";"
          (List.init (k - 1) (fun i -> Printf.sprintf "%d=v%d" i i))
      ^ "}"
  in
  List.iteri
    (fun k b ->
      let clean = state_at_cut b ~expect_tear:false in
      Alcotest.(check string)
        (Printf.sprintf "clean cut after %d records" k)
        (expected_at k) clean;
      (* a cut one byte short of the next boundary tears mid-record
         and must recover exactly the boundary state *)
      if k + 1 < List.length boundaries then begin
        let next = List.nth boundaries (k + 1) in
        let torn = state_at_cut (next - 1) ~expect_tear:true in
        Alcotest.(check string)
          (Printf.sprintf "torn cut inside record %d" k)
          clean torn
      end)
    boundaries;
  write_file path full;
  rm_rf dir

(* ---- recovery across batch boundaries ----------------------------------- *)

(* The store a log's records describe, by a model that reads each
   record's frames with a decoder of its own, printed as [dump] prints
   the store. *)
type model_value =
  | Mmap of (int * string) list
  | Mset of int list
  | Mqueue of string list

let model_after records =
  let tbl = Hashtbl.create 8 in
  let update name f =
    match Hashtbl.find_opt tbl name with
    | Some v -> Hashtbl.replace tbl name (f v)
    | None -> Alcotest.failf "an op on %S before its NEW" name
  in
  let wrong (req : Wire.request) =
    Alcotest.failf "%s on the wrong kind" (Wire.cmd_name req.cmd)
  in
  let apply (req : Wire.request) =
    match req.cmd with
    | Wire.New (kind, name) ->
        if not (Hashtbl.mem tbl name) then
          Hashtbl.replace tbl name
            (match kind with
            | Wire.Kmap -> Mmap []
            | Wire.Kset -> Mset []
            | Wire.Kqueue -> Mqueue [])
    | Wire.Put (name, k, v) ->
        update name (function
          | Mmap l -> Mmap ((k, v) :: List.remove_assoc k l)
          | _ -> wrong req)
    | Wire.Del (name, k) ->
        update name (function
          | Mmap l -> Mmap (List.remove_assoc k l)
          | _ -> wrong req)
    | Wire.Add (name, k) ->
        update name (function
          | Mset l -> Mset (k :: List.filter (( <> ) k) l)
          | _ -> wrong req)
    | Wire.Remove (name, k) ->
        update name (function
          | Mset l -> Mset (List.filter (( <> ) k) l)
          | _ -> wrong req)
    | Wire.Enq (name, v) ->
        update name (function Mqueue l -> Mqueue (l @ [ v ]) | _ -> wrong req)
    | Wire.Deq name ->
        update name (function
          | Mqueue (_ :: rest) -> Mqueue rest
          | Mqueue [] -> Mqueue []
          | _ -> wrong req)
    | _ -> Alcotest.failf "unexpected %s in the log" (Wire.cmd_name req.cmd)
  in
  List.iter
    (fun r ->
      let dec = Wire.Decoder.create () in
      Wire.Decoder.feed_string dec r.payload;
      let rec go () =
        match Wire.Decoder.next_request dec with
        | `Ok req ->
            apply req;
            go ()
        | `Await -> ()
        | `Bad m | `Corrupt m -> Alcotest.failf "bad record payload: %s" m
      in
      go ())
    records;
  let body = function
    | Mmap l ->
        List.sort compare l
        |> List.map (fun (k, v) -> Printf.sprintf "%d=%s" k v)
    | Mset l -> List.map string_of_int (List.sort compare l)
    | Mqueue l -> l
  in
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, v) -> name ^ "{" ^ String.concat ";" (body v) ^ "}")
  |> String.concat "\n"

(* An 8-shard store holding a map, a queue and, from mid-log on, a set,
   written through a live session: stretches of ops on random keys
   around two long runs of queue ops, each longer than the replay's
   batch cap.  Map and set ops are folded by key, so only the queue's
   ops (all on its home shard) replay in log-order batches: a batch
   runs on across map and set records, and ends at a [NEW] record or at
   the cap.  The clean log, and the log cut one byte short of the
   record boundaries on both sides of every point where replay closes
   a batch at the cap, must each recover exactly the model's store
   after the records before the cut. *)
let test_recovery_across_batches () =
  let dir = fresh_dir "batches" in
  let cap = Persist.batch_cap in
  let st = Random.State.make [| Test_seed.seed; 21 |] in
  let live =
    run_session ~dir ~policy:`Always ~shards:8 (fun fd reg _p ->
        let send_all cmds =
          List.iter (fun batch -> ignore (roundtrip fd batch)) (chunks 32 cmds)
        in
        send_all [ Wire.New (Wire.Kmap, "m"); Wire.New (Wire.Kqueue, "q") ];
        let queue_op i =
          if Random.State.int st 4 < 3 then Wire.Enq ("q", Printf.sprintf "v%d" i)
          else Wire.Deq "q"
        in
        let op i =
          let k = Random.State.int st 400 and v = Printf.sprintf "v%d" i in
          match Random.State.int st 10 with
          | 0 | 1 | 2 | 3 -> Wire.Put ("m", k, v)
          | 4 | 5 -> Wire.Del ("m", k)
          | _ -> queue_op i
        in
        send_all (List.init 100 op);
        send_all (List.init (cap + 100) (fun i -> queue_op (1000 + i)));
        send_all [ Wire.New (Wire.Kset, "s") ];
        send_all
          (List.init 100 (fun i ->
               match Random.State.int st 3 with
               | 0 -> Wire.Add ("s", Random.State.int st 400)
               | 1 -> Wire.Remove ("s", Random.State.int st 400)
               | _ -> op (2000 + i)));
        send_all (List.init ((2 * cap) + 100) (fun i -> queue_op (3000 + i)));
        dump reg)
  in
  let gen =
    match P.Layout.read_manifest ~dir with
    | Some g -> g
    | None -> Alcotest.fail "no manifest"
  in
  let path = P.Layout.log_path ~dir gen in
  let full = read_file path in
  let records, _ = scan_records path in
  let n = List.length records in
  Alcotest.(check string) "the model reads the live store" live
    (model_after records);
  (* [ends.(k)]: the offset one past the first [k] records *)
  let ends = Array.make (n + 1) P.Frame.magic_len in
  List.iteri
    (fun i r -> ends.(i + 1) <- ends.(i) + 8 + P.Frame.body_hdr_len + String.length r.payload)
    records;
  (* Where replay closes a batch at the cap: after record [i] when the
     batch it ends holds [cap] queue frames (one frame per record here),
     counted from the last [NEW] record or the last full batch. *)
  let queue_record r =
    let queue = ref false in
    ignore
      (Wire.iter_requests
         (fun req ->
           match req.Wire.cmd with Wire.Enq _ | Wire.Deq _ -> queue := true | _ -> ())
         (Bytes.of_string r.payload) 0 (String.length r.payload));
    !queue
  in
  let cap_ends =
    let rec go i run acc = function
      | [] -> List.rev acc
      | r :: rest ->
          if r.hdr.P.Frame.rtype = P.Frame.rt_new then go (i + 1) 0 acc rest
          else if not (queue_record r) then go (i + 1) run acc rest
          else if run + 1 = cap then go (i + 1) 0 (i :: acc) rest
          else go (i + 1) (run + 1) acc rest
    in
    go 0 0 [] records
  in
  Alcotest.(check bool) "the log crosses the cap at least twice" true
    (List.length cap_ends >= 2);
  let records_a = Array.of_list records in
  let expect k = model_after (Array.to_list (Array.sub records_a 0 k)) in
  let recover_cut ~cut ~torn =
    write_file path (String.sub full 0 cut);
    let reg, r = recover_fresh ~shards:8 ~dir () in
    Alcotest.(check bool)
      (Printf.sprintf "a tear reported for a cut at byte %d" cut)
      torn (r.Persist.r_tear <> None);
    dump reg
  in
  Alcotest.(check string) "the clean log" live
    (recover_cut ~cut:(String.length full) ~torn:false);
  List.iter
    (fun i ->
      (* record [i] closes a full batch: cut inside it, and inside the
         records just after it *)
      List.iter
        (fun k ->
          if k <= n then
            Alcotest.(check string)
              (Printf.sprintf "cut one byte short of the end of record %d" (k - 1))
              (expect (k - 1))
              (recover_cut ~cut:(ends.(k) - 1) ~torn:true))
        [ i + 1; i + 2; i + 3 ])
    cap_ends;
  write_file path full;
  rm_rf dir

(* ---- BGSAVE concurrency and log truncation ------------------------------ *)

let test_bgsave_concurrent () =
  let dir = fresh_dir "bgsave" in
  let registry = Registry.create ~shards:1 ~default_algo:`Tl2 () in
  let recovered =
    match Persist.recover ~dir registry with
    | Ok r -> r
    | Error m -> Alcotest.failf "recover: %s" m
  in
  let p =
    match Persist.activate ~dir ~policy:`No registry recovered with
    | Ok p -> p
    | Error m -> Alcotest.failf "activate: %s" m
  in
  let stop = Atomic.make false in
  let pairs =
    Array.init 2 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let doms =
    Array.map
      (fun (sfd, _) ->
        Domain.spawn (fun () ->
            Evloop.handle
              ~stop:(fun () -> Atomic.get stop)
              ~limits:Limits.default ~registry
              ~stats:(Session.create_stats ())
              sfd))
      pairs
  in
  let writer = snd pairs.(0) and saver = snd pairs.(1) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun (_, cfd) ->
          try Unix.shutdown cfd Unix.SHUTDOWN_SEND with _ -> ())
        pairs;
      Array.iter Domain.join doms;
      Array.iter
        (fun (sfd, cfd) ->
          (try Unix.close cfd with _ -> ());
          try Unix.close sfd with _ -> ())
        pairs;
      Persist.stop p)
    (fun () ->
      ignore (roundtrip writer [ Wire.New (Wire.Kmap, "m") ]);
      (* fatten the store so the checkpoint fold takes real time *)
      List.iter
        (fun batch -> ignore (roundtrip writer batch))
        (chunks 64
           (List.init 20_000 (fun i -> Wire.Put ("m", i, "x" ^ string_of_int i))));
      let gen0 =
        match P.Layout.read_manifest ~dir with Some g -> g | None -> 0
      in
      (* launch the checkpoint, then keep writing while it runs: the
         writer's replies prove the server stayed available *)
      send saver [ Wire.Bgsave ];
      List.iter
        (fun batch ->
          List.iter
            (function
              | Wire.Int _ -> ()
              | r ->
                  Alcotest.failf "write during BGSAVE: %s"
                    (resp_str r))
            (roundtrip writer batch))
        (chunks 32
           (List.init 200 (fun i -> Wire.Put ("m", 50_000 + i, "y"))));
      (match recv_n saver 1 with
      | [ Wire.Simple "OK" ] -> ()
      | [ r ] ->
          Alcotest.failf "BGSAVE: %s" (resp_str r)
      | _ -> assert false);
      (* generation bumped; the old generation's files are gone *)
      let gen1 =
        match P.Layout.read_manifest ~dir with Some g -> g | None -> 0
      in
      Alcotest.(check int) "generation bumped" (gen0 + 1) gen1;
      Alcotest.(check bool)
        "old log truncated" false
        (Sys.file_exists (P.Layout.log_path ~dir gen0));
      Alcotest.(check bool)
        "old checkpoint deleted" false
        (Sys.file_exists (P.Layout.ckpt_path ~dir gen0));
      Alcotest.(check bool)
        "new checkpoint exists" true
        (Sys.file_exists (P.Layout.ckpt_path ~dir gen1));
      (* LASTSAVE moved; INFO reports the new generation *)
      (match roundtrip saver [ Wire.Lastsave ] with
      | [ Wire.Int ts ] ->
          Alcotest.(check bool) "LASTSAVE is recent" true (ts > 0)
      | _ -> Alcotest.fail "LASTSAVE failed");
      match roundtrip saver [ Wire.Info ] with
      | [ Wire.Bulk info ] ->
          let has line =
            List.exists
              (fun l -> String.length l >= String.length line
                        && String.sub l 0 (String.length line) = line)
              (String.split_on_char '\n' info)
          in
          Alcotest.(check bool) "INFO persist:on" true (has "persist:on");
          Alcotest.(check bool)
            "INFO persist_gen" true
            (has (Printf.sprintf "persist_gen:%d" gen1));
          Alcotest.(check bool) "INFO struct ops" true (has "struct_\"m\":")
      | _ -> Alcotest.fail "INFO failed");
  (* the checkpointed store recovers *)
  let reg2, r = recover_fresh ~dir () in
  Alcotest.(check (option string)) "clean tail" None r.Persist.r_tear;
  let d = dump reg2 in
  Alcotest.(check bool) "recovered the fattened map" true
    (String.length d > 100_000);
  rm_rf dir

(* ---- INFO / persistence-off refusals ------------------------------------ *)

let test_info_and_off_refusals () =
  let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let registry = Registry.create () in
  let stop = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Evloop.handle
          ~stop:(fun () -> Atomic.get stop)
          ~limits:Limits.default ~registry
          ~stats:(Session.create_stats ())
          server_fd)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown client_fd Unix.SHUTDOWN_SEND with _ -> ());
      Domain.join dom;
      (try Unix.close client_fd with _ -> ());
      try Unix.close server_fd with _ -> ())
    (fun () ->
      ignore (roundtrip client_fd [ Wire.New (Wire.Kmap, "m") ]);
      ignore (roundtrip client_fd [ Wire.Put ("m", 1, "a") ]);
      (match roundtrip client_fd [ Wire.Info ] with
      | [ Wire.Bulk info ] ->
          let lines = String.split_on_char '\n' info in
          let has prefix =
            List.exists
              (fun l ->
                String.length l >= String.length prefix
                && String.sub l 0 (String.length prefix) = prefix)
              lines
          in
          Alcotest.(check bool) "uptime" true (has "uptime_sec:");
          Alcotest.(check bool) "structures" true (has "structures:1");
          Alcotest.(check bool) "struct ops" true (has "struct_\"m\":kind=map");
          Alcotest.(check bool) "persist off" true (has "persist:off")
      | _ -> Alcotest.fail "INFO failed");
      (match roundtrip client_fd [ Wire.Bgsave ] with
      | [ Wire.Error (Wire.Bad_op, _) ] -> ()
      | _ -> Alcotest.fail "BGSAVE should be refused without --dir");
      match roundtrip client_fd [ Wire.Lastsave ] with
      | [ Wire.Error (Wire.Bad_op, _) ] -> ()
      | _ -> Alcotest.fail "LASTSAVE should be refused without --dir")

(* ---- blocking ops are logged -------------------------------------------- *)

let test_blocking_pop_logged () =
  let dir = fresh_dir "blpop" in
  let live =
    run_session ~dir ~policy:`Always (fun fd reg _p ->
        ignore (roundtrip fd [ Wire.New (Wire.Kqueue, "q") ]);
        ignore
          (roundtrip fd [ Wire.Enq ("q", "a"); Wire.Enq ("q", "b") ]);
        (* BLPOP with an item ready takes the fast path; it must be
           logged (as a DEQ) like any other mutation *)
        (match roundtrip fd [ Wire.Blpop ("q", 1000) ] with
        | [ Wire.Array [ Wire.Bulk "q"; Wire.Bulk "a" ] ] -> ()
        | _ -> Alcotest.fail "BLPOP fast path failed");
        dump reg)
  in
  let reg2, _ = recover_fresh ~dir () in
  Alcotest.(check string) "pop survived the crash" live (dump reg2);
  Alcotest.(check bool) "queue holds only b" true
    (String.length live > 0 && live = "q{b}");
  rm_rf dir

(* The watch body run once, as a session's watch runs it but without
   waiting: the names marked dirty, or [] when none are. *)
let take_dirty_now registry ws =
  match
    S.try_atomically_one ~sem:Sem.Classic ~label:"watch-wait"
      ~wake:ignore (Registry.stm registry)
      (Registry.take_dirty registry ws)
  with
  | S.Committed names -> names
  | S.Exhausted _ | S.Deadline_exceeded _ -> []
  | exception S.Waiting w ->
      S.cancel_wait w;
      []

(* A parked BLPOP on a watched queue whose home is not the control
   shard (8 shards): the watcher mark is a commit of its own on the
   control shard, and it must come after the pop's commit, so the DEQ
   record carries the pop's own shard and stamp — and the pop must
   still mark the watcher. *)
let test_parked_pop_marks_after_commit () =
  let dir = fresh_dir "parked-pop" in
  let registry = Registry.create ~shards:8 () in
  let recovered =
    match Persist.recover ~dir registry with
    | Ok r -> r
    | Error m -> Alcotest.failf "recover: %s" m
  in
  let p =
    match Persist.activate ~dir ~policy:`Always registry recovered with
    | Ok p -> p
    | Error m -> Alcotest.failf "activate: %s" m
  in
  let router = Registry.router_for registry `Tl2 in
  let name =
    List.find
      (fun n -> Registry.Router.index_of_key router n <> 0)
      (List.init 16 (Printf.sprintf "q%d"))
  in
  let pairs =
    Array.init 2 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let doms =
    Array.map
      (fun (sfd, _) ->
        Domain.spawn (fun () ->
            Evloop.handle
              ~stop:(fun () -> false)
              ~limits:Limits.default ~registry
              ~stats:(Session.create_stats ())
              sfd))
      pairs
  in
  let consumer = snd pairs.(0) and producer = snd pairs.(1) in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun (_, cfd) ->
          try Unix.shutdown cfd Unix.SHUTDOWN_SEND with _ -> ())
        pairs;
      Array.iter Domain.join doms;
      Array.iter
        (fun (sfd, cfd) ->
          (try Unix.close cfd with _ -> ());
          try Unix.close sfd with _ -> ())
        pairs;
      Persist.stop p)
    (fun () ->
      ignore (roundtrip producer [ Wire.New (Wire.Kqueue, name) ]);
      let w =
        match Registry.watch registry name with
        | Ok w -> w
        | Error _ -> Alcotest.fail "WATCH"
      in
      send consumer [ Wire.Blpop (name, 0) ];
      let t0 = Unix.gettimeofday () in
      while Registry.waiting registry = 0 do
        if Unix.gettimeofday () -. t0 > 10. then Alcotest.fail "BLPOP never parked";
        Unix.sleepf 0.002
      done;
      (* The item is enqueued outside any session, which marks
         nothing: the only mark left to see is the pop's. *)
      (match Registry.resolve registry (Wire.Enq (name, "x")) with
      | Ok r -> ignore (r.Registry.run () : Wire.response)
      | Error _ -> Alcotest.fail "resolve ENQ");
      (match recv_n consumer 1 with
      | [ Wire.Array [ Wire.Bulk _; Wire.Bulk "x" ] ] -> ()
      | _ -> Alcotest.fail "the parked BLPOP did not get the item");
      (* The session marks before it replies. *)
      Alcotest.(check (list string)) "the pop marked the watcher" [ name ]
        (take_dirty_now registry [ w ]);
      Registry.unwatch registry w);
  let gen =
    match P.Layout.read_manifest ~dir with
    | Some g -> g
    | None -> Alcotest.fail "no manifest"
  in
  let records, _ = scan_records (P.Layout.log_path ~dir gen) in
  (match
     List.find_opt
       (fun (r : record) -> r.payload = frames [ Wire.Deq name ])
       records
   with
  | Some r ->
      Alcotest.(check int) "the DEQ record is stamped on the queue's shard"
        (Registry.Router.index_of_key router name)
        r.hdr.shard
  | None -> Alcotest.fail "the pop was not logged");
  rm_rf dir

(* ---- replay refusals and the decoder's lifetime ------------------------- *)

(* A data directory at generation 1 by hand: a checkpoint holding the
   records [ckpt] (none by default) between its bounds record, which
   bounds nothing, and its trailer; a log holding [records]; and, given
   [next], generation 2's log holding it, as a checkpoint interrupted
   after its rotation leaves them. *)
let write_store ?(ckpt = []) ?next ~dir records =
  Unix.mkdir dir 0o755;
  let zero rtype = { P.Frame.rtype; algo = 0; shard = 0; stamp = 0 } in
  let b = Buffer.create 64 in
  Buffer.add_string b P.Frame.ckpt_magic;
  reference_record b (zero P.Frame.rt_bounds)
    ~payload:(P.Frame.encode_bounds []);
  List.iter (fun (r : record) -> reference_record b r.hdr ~payload:r.payload) ckpt;
  reference_record b (zero P.Frame.rt_trailer)
    ~payload:(P.Frame.encode_count (List.length ckpt + 1));
  write_file (P.Layout.ckpt_path ~dir 1) (Buffer.contents b);
  write_file (P.Layout.log_path ~dir 1) (fst (encode_log records));
  Option.iter
    (fun next -> write_file (P.Layout.log_path ~dir 2) (fst (encode_log next)))
    next;
  P.Layout.write_manifest ~dir ~gen:1

let mentions m sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length m && (String.sub m i n = sub || at (i + 1))
  in
  at 0

(* A log whose records pass their CRC but whose payloads are not wire
   frames refuses recovery with a typed error, and so does a frame that
   [Registry.resolve] would refuse: an op on a structure no NEW
   created, a PUT on a set (after an ADD to it) and an ADD on a map.
   A later recovery in the same process starts clean: no parser state,
   pending batch or folded key outlives a refused recovery. *)
let test_replay_refusals () =
  let record rtype stamp payload =
    { hdr = { P.Frame.rtype; algo = 0; shard = 0; stamp }; payload }
  in
  let records ~created payload =
    [ record P.Frame.rt_new 0 (frames created); record P.Frame.rt_op 1 payload ]
  in
  let recover ?(created = [ Wire.New (Wire.Kmap, "m") ]) payload =
    let dir = fresh_dir "refuse" in
    write_store ~dir (records ~created payload);
    let reg = Registry.create ~shards:1 ~default_algo:`Tl2 () in
    let r = Persist.recover ~dir reg in
    rm_rf dir;
    (reg, r)
  in
  let refused ?created what payload expect =
    match recover ?created payload with
    | _, Ok _ -> Alcotest.failf "%s: recovery succeeded" what
    | _, Error m ->
        if not (mentions m expect) then
          Alcotest.failf "%s: %S does not mention %S" what m expect
  in
  refused "broken framing" "PUT m 1 x" "bad frame in record payload";
  let put = frames [ Wire.Put ("m", 1, "x") ] in
  refused "partial trailing frame"
    (put ^ String.sub put 0 (String.length put - 2))
    "trailing bytes";
  refused "an op on a structure no NEW created"
    (frames [ Wire.Put ("x", 1, "a") ])
    "unreplayable record: no structure named \"x\"";
  let both = [ Wire.New (Wire.Kmap, "m"); Wire.New (Wire.Kset, "s") ] in
  refused ~created:both "a PUT on a set"
    (frames [ Wire.Add ("s", 1); Wire.Put ("s", 2, "a") ])
    "unreplayable record: PUT does not apply to a set";
  refused ~created:both "an ADD on a map"
    (frames [ Wire.Put ("m", 1, "a"); Wire.Add ("m", 2) ])
    "unreplayable record: ADD does not apply to a map";
  match
    recover
      (frames
         [ Wire.Put ("m", 1, "a"); Wire.Put ("m", 2, "b"); Wire.Put ("m", 3, "c") ])
  with
  | _, Error m -> Alcotest.failf "clean log refused: %s" m
  | reg, Ok _ ->
      Alcotest.(check string) "every frame of the MULTI record replayed"
        "m{1=a;2=b;3=c}" (dump reg)

(* ---- the log tail folded by key ------------------------------------------ *)

let op_record stamp cmds =
  { hdr = { P.Frame.rtype = P.Frame.rt_op; algo = 0; shard = 0; stamp }; payload = frames cmds }

let new_record ?(algo = 0) cmd =
  { hdr = { P.Frame.rtype = P.Frame.rt_new; algo; shard = 0; stamp = 0 }; payload = frames [ cmd ] }

(* A random log over a map, a set and a queue, each created on a random
   algorithm: records of 1-3 frames over 8 keys, so each key is
   rewritten many times and some DELs and REMOVEs find nothing.  The
   checkpoint holds the three structures with random contents, so the
   log's removals have keys to remove.  Half the time the log is split
   over generation 1's log and generation 2's (a checkpoint interrupted
   after its rotation), and the last file is cut at a random byte.
   Recovery with 1 and with 4 shards gives the model's store after the
   checkpoint and the log records wholly before the cut, and reports a
   tear iff the cut is not a record boundary. *)
let prop_fold_recovers_model =
  QCheck.Test.make ~count:200 ~name:"a log tail folded by key recovers the model's store"
    QCheck.(
      make
        ~print:(fun ((algos, init), ops, split, at, cut) ->
          Printf.sprintf "algos %s, %d checkpointed, %d records, split %b at %.3f, cut at %.3f"
            (String.concat "," (List.map string_of_int algos))
            (List.length init) (List.length ops) split at cut)
        Gen.(
          let* algos = list_repeat 3 (int_range 0 1) in
          let* init = list_size (int_range 0 12) (pair (int_range 0 2) (int_range 0 7)) in
          let* ops =
            list_size (int_range 0 60)
              (list_size (int_range 1 3) (pair (int_range 0 5) (int_range 0 7)))
          in
          let* split = bool in
          let* at = float_range 0. 1. in
          let+ cut = float_range 0. 1. in
          ((algos, init), ops, split, at, cut)))
    (fun ((algos, init), ops, split, at, cutf) ->
      let news =
        List.map2
          (fun algo cmd -> new_record ~algo cmd)
          algos
          [ Wire.New (Wire.Kmap, "m"); Wire.New (Wire.Kset, "s"); Wire.New (Wire.Kqueue, "q") ]
      in
      let ckpt =
        news
        @ List.map
            (fun (op, k) ->
              op_record 0
                [
                  (match op with
                  | 0 -> Wire.Put ("m", k, Printf.sprintf "c%d" k)
                  | 1 -> Wire.Add ("s", k)
                  | _ -> Wire.Enq ("q", Printf.sprintf "c%d" k));
                ])
            init
      in
      let frame i j (op, k) =
        let v = Printf.sprintf "v%d.%d" i j in
        match op with
        | 0 -> Wire.Put ("m", k, v)
        | 1 -> Wire.Del ("m", k)
        | 2 -> Wire.Add ("s", k)
        | 3 -> Wire.Remove ("s", k)
        | 4 -> Wire.Enq ("q", v)
        | _ -> Wire.Deq "q"
      in
      let records =
        news @ List.mapi (fun i fs -> op_record (i + 1) (List.mapi (frame i) fs)) ops
      in
      let whole, last =
        if split then
          let n = int_of_float (at *. float_of_int (List.length records)) in
          (List.filteri (fun i _ -> i < n) records, List.filteri (fun i _ -> i >= n) records)
        else ([], records)
      in
      let bytes, ends = encode_log last in
      let cut = min (String.length bytes) (int_of_float (cutf *. float_of_int (String.length bytes))) in
      let kept =
        if cut < P.Frame.magic_len then []
        else List.filteri (fun i _ -> List.nth ends (i + 1) <= cut) last
      in
      let torn = cut < P.Frame.magic_len || not (List.mem cut ends) in
      let expected = model_after (ckpt @ whole @ kept) in
      let dir = fresh_dir "fold" in
      if split then write_store ~ckpt ~dir ~next:last whole else write_store ~ckpt ~dir last;
      write_file (P.Layout.log_path ~dir (if split then 2 else 1)) (String.sub bytes 0 cut);
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          List.for_all
            (fun shards ->
              let reg = Registry.create ~shards () in
              match Persist.recover ~dir reg with
              | Error m -> QCheck.Test.fail_reportf "%d shards: refused: %s" shards m
              | Ok r ->
                  let got = dump reg in
                  if got <> expected then
                    QCheck.Test.fail_reportf "%d shards: recovered\n%s\nexpected\n%s" shards
                      got expected;
                  r.Persist.r_tear <> None = torn)
            [ 1; 4 ]))

(* Each map key is applied once: a log of 10,000 PUTs over 4 keys
   recovers the last PUT of each with at most one commit per instance,
   with 1 and with 4 shards.  Replaying it record by record would
   commit once per 256 records. *)
let test_fold_commits_once () =
  List.iter
    (fun shards ->
      let dir = fresh_dir "fold-commits" in
      write_store ~dir
        (new_record (Wire.New (Wire.Kmap, "m"))
        :: List.init 10_000 (fun i ->
               op_record (i + 1) [ Wire.Put ("m", i mod 4, Printf.sprintf "v%d" i) ]));
      let reg, r = recover_fresh ~shards ~dir () in
      rm_rf dir;
      (* read before [dump], whose snapshot commits on every instance *)
      let commits = commits reg in
      Alcotest.(check bool)
        (Printf.sprintf "%d shards: at most one commit per instance (%s)" shards
           (String.concat ", " (List.map string_of_int commits)))
        true
        (List.for_all (fun c -> c <= 1) commits);
      Alcotest.(check int) "every record counted: the checkpoint's two, the log's"
        10_003 r.Persist.r_replayed;
      Alcotest.(check string) "the last PUT of each key" "m{0=v9996;1=v9997;2=v9998;3=v9999}"
        (dump reg))
    [ 1; 4 ]

(* ---- a bad checkpoint refuses and applies nothing ----------------------- *)

(* Replay resolves every logged frame through the registry, as a client
   request does, but INFO's [ops] counts client requests only. *)
let test_replay_counts_no_ops () =
  let dir = fresh_dir "ops" in
  write_store ~dir
    [
      {
        hdr = { P.Frame.rtype = P.Frame.rt_new; algo = 0; shard = 0; stamp = 0 };
        payload = frames [ Wire.New (Wire.Kmap, "m") ];
      };
      {
        hdr = { P.Frame.rtype = P.Frame.rt_op; algo = 0; shard = 0; stamp = 1 };
        payload = frames [ Wire.Put ("m", 1, "a"); Wire.Put ("m", 2, "b") ];
      };
    ];
  let reg, _ = recover_fresh ~dir () in
  rm_rf dir;
  Alcotest.(check string) "replayed" "m{1=a;2=b}" (dump reg);
  Alcotest.(check string) "no client request counted" "kind=map,algo=tl2,ops=0"
    (List.assoc "struct_\"m\"" (Registry.info reg))

(* Three checkpoints that each hold a map with two bindings but are
   not whole: one without its bounds record, one whose trailer counts
   wrong, one whose last body record fails its CRC.  Each refuses
   recovery, and the registry it ran on stays empty: the checkpoint is
   validated to its end before any record applies. *)
let test_bad_checkpoint_applies_nothing () =
  let zero rtype = { P.Frame.rtype; algo = 0; shard = 0; stamp = 0 } in
  let body =
    [
      (zero P.Frame.rt_new, frames [ Wire.New (Wire.Kmap, "m") ]);
      (zero P.Frame.rt_op, frames [ Wire.Put ("m", 1, "a") ]);
      (zero P.Frame.rt_op, frames [ Wire.Put ("m", 2, "b") ]);
    ]
  in
  let bounds = (zero P.Frame.rt_bounds, P.Frame.encode_bounds [ (0, 0, 0) ]) in
  let checkpoint ?(trailer = List.length body + 1) records =
    let b = Buffer.create 256 in
    Buffer.add_string b P.Frame.ckpt_magic;
    List.iter (fun (hdr, payload) -> reference_record b hdr ~payload) records;
    let last_body_end = Buffer.length b in
    reference_record b (zero P.Frame.rt_trailer) ~payload:(P.Frame.encode_count trailer);
    (Buffer.contents b, last_body_end)
  in
  let refused what ckpt expect =
    let dir = fresh_dir "bad-ckpt" in
    Unix.mkdir dir 0o755;
    write_file (P.Layout.ckpt_path ~dir 1) ckpt;
    write_file (P.Layout.log_path ~dir 1) P.Frame.log_magic;
    P.Layout.write_manifest ~dir ~gen:1;
    let reg = Registry.create ~shards:1 ~default_algo:`Tl2 () in
    (match Persist.recover ~dir reg with
    | Ok _ -> Alcotest.failf "%s: recovery succeeded" what
    | Error m ->
        if not (mentions m expect) then
          Alcotest.failf "%s: %S does not mention %S" what m expect);
    Alcotest.(check (list string))
      (what ^ ": no structure recovered") []
      (List.map fst (Registry.slots reg));
    rm_rf dir
  in
  let whole, _ = checkpoint (bounds :: body) in
  (let dir = fresh_dir "good-ckpt" in
   Unix.mkdir dir 0o755;
   write_file (P.Layout.ckpt_path ~dir 1) whole;
   P.Layout.write_manifest ~dir ~gen:1;
   let reg, _ = recover_fresh ~dir () in
   Alcotest.(check string) "the whole checkpoint loads" "m{1=a;2=b}" (dump reg);
   rm_rf dir);
  refused "no bounds record" (fst (checkpoint ~trailer:3 body))
    "missing bounds record";
  refused "a wrong trailer count"
    (fst (checkpoint ~trailer:(List.length body + 2) (bounds :: body)))
    "trailer count mismatch";
  let flipped =
    let bytes, last_body_end = checkpoint (bounds :: body) in
    let b = Bytes.of_string bytes in
    (* the last byte of the last body record's payload *)
    let i = last_body_end - 1 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Bytes.to_string b
  in
  refused "a CRC mismatch in the last body record" flipped "crc-mismatch"

(* ---- a failed directory fsync raises ------------------------------------ *)

(* The rename that publishes a MANIFEST is durable only once its
   directory is synced.  A failed sync must raise, so that neither a
   BGSAVE nor an activation goes on to delete the previous generation's
   files.  procfs opens a directory but refuses to fsync it (EINVAL). *)
let test_fsync_dir_raises () =
  match P.Layout.fsync_dir "/proc/self" with
  | () -> Alcotest.fail "a failed directory fsync returned normally"
  | exception Unix.Unix_error (_, fn, arg) ->
      Alcotest.(check (pair string string))
        "the error names the call and the directory" ("fsync", "/proc/self")
        (fn, arg)

(* ---- a failed checkpoint is counted ------------------------------------ *)

(* A directory squatting on the next generation's checkpoint path makes
   the checkpoint's open fail (EISDIR, even as root): BGSAVE answers
   "checkpoint failed" and [checkpoint_errors] reads 1.  The file is
   opened before the store is folded, so the failed attempt commits
   nothing on any instance of either router (2 shards each).  With the
   squatter gone, a second BGSAVE publishes over the log the first one
   already rotated to, and the count stays at 1. *)
let test_failed_checkpoint_counted () =
  let dir = fresh_dir "ckpt-error" in
  run_session ~dir ~policy:`Always ~shards:2 (fun fd reg p ->
      let errors () =
        List.assoc "checkpoint_errors" (P.Oplog.counters p.Persist.log)
      in
      let replies r = String.concat " " (List.map resp_str r) in
      let squatter = P.Layout.ckpt_path ~dir 2 in
      ignore
        (roundtrip fd [ Wire.New (Wire.Kmap, "m"); Wire.Put ("m", 1, "a") ]);
      Unix.mkdir squatter 0o755;
      let before = commits reg in
      (match roundtrip fd [ Wire.Bgsave ] with
      | [ Wire.Error (Wire.Proto, m) ]
        when String.starts_with ~prefix:"checkpoint failed" m ->
          ()
      | r -> Alcotest.failf "BGSAVE over a squatter: %s" (replies r));
      Alcotest.(check (list int))
        "the failed checkpoint committed nothing on any instance" before
        (commits reg);
      Alcotest.(check int) "the failure is counted" 1 (errors ());
      Alcotest.(check string) "INFO shows it" "1"
        (List.assoc "persist_checkpoint_errors" (P.Oplog.info p.Persist.log));
      Unix.rmdir squatter;
      ignore (roundtrip fd [ Wire.Put ("m", 2, "b") ]);
      (match roundtrip fd [ Wire.Bgsave ] with
      | [ Wire.Simple "OK" ] -> ()
      | r -> Alcotest.failf "BGSAVE: %s" (replies r));
      Alcotest.(check int) "a success counts nothing" 1 (errors ());
      Alcotest.(check (list string))
        "generation 2 published over the one rotated log"
        [ P.Layout.ckpt_name 2; P.Layout.log_name 2 ]
        (P.Layout.gen_files ~dir));
  rm_rf dir

(* ---- a lost or torn MANIFEST refuses and removes nothing ---------------- *)

(* A store whose MANIFEST was deleted, or left 0 bytes long, still
   holds its generation files.  Recovery refuses, naming them, rather
   than take the directory for a fresh one (which activation would
   then empty), and leaves every file as it was.  A directory with no
   generation files still starts empty. *)
let test_lost_manifest_refuses () =
  let records =
    [
      {
        hdr = { P.Frame.rtype = P.Frame.rt_new; algo = 0; shard = 0; stamp = 0 };
        payload = frames [ Wire.New (Wire.Kmap, "m") ];
      };
      {
        hdr = { P.Frame.rtype = P.Frame.rt_op; algo = 0; shard = 0; stamp = 1 };
        payload = frames [ Wire.Put ("m", 1, "a") ];
      };
    ]
  in
  let listing dir =
    List.map
      (fun f -> (f, read_file (Filename.concat dir f)))
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  let refused what break =
    let dir = fresh_dir "manifest" in
    write_store ~dir records;
    break (Filename.concat dir P.Layout.manifest_name);
    let before = listing dir in
    let reg = Registry.create ~shards:1 ~default_algo:`Tl2 () in
    (match Persist.recover ~dir reg with
    | Ok _ -> Alcotest.failf "%s: recovery succeeded" what
    | Error m ->
        List.iter
          (fun f ->
            if not (mentions m f) then
              Alcotest.failf "%s: %S does not name %s" what m f)
          [ P.Layout.ckpt_name 1; P.Layout.log_name 1 ]);
    Alcotest.(check (list (pair string string)))
      (what ^ ": every file left as it was") before (listing dir);
    Alcotest.(check (list string))
      (what ^ ": no structure recovered") []
      (List.map fst (Registry.slots reg));
    rm_rf dir
  in
  refused "a deleted MANIFEST" Sys.remove;
  refused "a 0-byte MANIFEST" (fun path -> write_file path "");
  let dir = fresh_dir "no-gens" in
  Unix.mkdir dir 0o755;
  write_file (Filename.concat dir P.Layout.manifest_name) "";
  let _, r = recover_fresh ~dir () in
  Alcotest.(check int) "no generation files: starts empty" 0 r.Persist.r_replayed;
  rm_rf dir

(* ---- a failed log write loses nothing ----------------------------------- *)

(* A write that raises (here ENOSPC, from /dev/full put in place of the
   log's fd) must leave its records buffered: the next successful sync
   writes them first, and [synced_seq] never covers a record that is
   not in the file. *)
let test_aof_failed_write () =
  let dir = fresh_dir "enospc" in
  Unix.mkdir dir 0o755;
  let path = P.Layout.log_path ~dir 1 in
  let aof = P.Aof.open_log path in
  let append stamp =
    ignore
      (P.Aof.append aof
         { P.Frame.rtype = P.Frame.rt_op; algo = 0; shard = 0; stamp }
         ~payload:(string_of_int stamp))
  in
  List.iter append [ 1; 2; 3 ];
  let saved = Unix.dup aof.P.Aof.fd in
  let full = Unix.openfile "/dev/full" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 full aof.P.Aof.fd;
  Unix.close full;
  (match P.Aof.sync aof with
  | () -> Alcotest.fail "a write to /dev/full succeeded"
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  Alcotest.(check int) "a failed sync covers nothing" 0 (P.Aof.synced_seq aof);
  Unix.dup2 saved aof.P.Aof.fd;
  Unix.close saved;
  List.iter append [ 4; 5 ];
  P.Aof.sync aof;
  Alcotest.(check int) "synced_seq" 5 (P.Aof.synced_seq aof);
  let records, scan = scan_records path in
  Alcotest.(check (list int)) "every record on disk, in order" [ 1; 2; 3; 4; 5 ]
    (List.map (fun (r : record) -> r.hdr.stamp) records);
  Alcotest.(check bool) "no tear" true (scan.P.Frame.tear = None);
  P.Aof.close aof;
  rm_rf dir

(* ---- a failed fsync is never vouched for -------------------------------- *)

(* An fsync that fails (here EINVAL, from /dev/null put in place of the
   log's fd: its write succeeds, its fsync does not) may have lost the
   pages it could not write, so no later fsync vouches for them, even
   once the fd works again: [synced_seq] never moves, every later sync,
   wait and switch raises, and the close raises too but still closes
   the fd.  The later sync still writes record 4 to the file. *)
let test_aof_failed_fsync () =
  let dir = fresh_dir "fsync" in
  Unix.mkdir dir 0o755;
  let path = P.Layout.log_path ~dir 1 in
  let aof = P.Aof.open_log path in
  let append stamp =
    P.Aof.append aof
      { P.Frame.rtype = P.Frame.rt_op; algo = 0; shard = 0; stamp }
      ~payload:(string_of_int stamp)
  in
  List.iter (fun stamp -> ignore (append stamp : int)) [ 1; 2; 3 ];
  let fd = aof.P.Aof.fd in
  let saved = Unix.dup fd in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null fd;
  Unix.close null;
  let fails what f =
    match f () with
    | () -> Alcotest.failf "%s succeeded" what
    | exception Unix.Unix_error (Unix.EINVAL, "fsync", _) -> ()
  in
  fails "an fsync of /dev/null" (fun () -> P.Aof.sync aof);
  Unix.dup2 saved fd;
  Unix.close saved;
  let four = append 4 in
  fails "a later sync" (fun () -> P.Aof.sync aof);
  fails "a wait for record 4" (fun () -> P.Aof.wait_durable aof four);
  fails "a switch" (fun () -> P.Aof.switch aof (P.Layout.log_path ~dir 2));
  Alcotest.(check int) "synced_seq never moved" 0 (P.Aof.synced_seq aof);
  Alcotest.(check bool) "the failed switch opened no file" false
    (Sys.file_exists (P.Layout.log_path ~dir 2));
  fails "the close" (fun () -> P.Aof.close aof);
  Alcotest.(check bool) "the close closed the fd" true
    (match Unix.fstat fd with
    | _ -> false
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> true);
  let records, _ = scan_records path in
  Alcotest.(check (list int)) "record 4 alone reached the file" [ 4 ]
    (List.map (fun (r : record) -> r.hdr.stamp) records);
  rm_rf dir

(* A close whose final write fails (ENOSPC, from /dev/full) still
   closes the fd, and a later wait for the record it could not write
   raises instead of returning as if the record were on disk. *)
let test_aof_failed_close () =
  let dir = fresh_dir "close" in
  Unix.mkdir dir 0o755;
  let aof = P.Aof.open_log (P.Layout.log_path ~dir 1) in
  let seq =
    P.Aof.append aof
      { P.Frame.rtype = P.Frame.rt_op; algo = 0; shard = 0; stamp = 1 }
      ~payload:"1"
  in
  let full = Unix.openfile "/dev/full" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 full aof.P.Aof.fd;
  Unix.close full;
  (match P.Aof.close aof with
  | () -> Alcotest.fail "a write to /dev/full succeeded"
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  (match P.Aof.wait_durable aof seq with
  | () -> Alcotest.fail "a wait vouched for a record the close never wrote"
  | exception Failure _ -> ());
  Alcotest.(check int) "synced_seq" 0 (P.Aof.synced_seq aof);
  rm_rf dir

(* ---- the op log's own paths ---------------------------------------------- *)

(* A log whose records' payloads are the armed strings. *)
let open_oplog ?(policy = `Everysec) dir =
  Unix.mkdir dir 0o755;
  P.Oplog.create ~dir ~policy
    ~encode:(fun ob l -> List.iter (Wire.Obuf.add_string ob) l)
    ~gen:1 ~replayed:0 ~recover_ms:0. ~tear:"none"

(* Disarm and take the ticket, if the armed record was appended. *)
let finish log = match P.Oplog.finish log with 0 -> None | seq -> Some seq

(* A failed once-a-second sync is counted and returns, so the
   housekeeper that calls [tick] lives on; the record stays buffered
   and the next tick writes it. *)
let test_tick_survives_failed_sync () =
  let dir = fresh_dir "tick" in
  let log = open_oplog dir in
  let payload = frames [ Wire.Put ("m", 1, "v") ] in
  P.Oplog.arm log [ payload ];
  P.Oplog.hook log ~algo:0 ~shard:0 7;
  let seq =
    match finish log with
    | Some ticket -> ticket
    | None -> Alcotest.fail "an armed hook left no ticket"
  in
  let aof = P.Oplog.writer log in
  Alcotest.(check int) "the first record" 1 seq;
  let sync_errors () = List.assoc "sync_errors" (P.Oplog.counters log) in
  let saved = Unix.dup aof.P.Aof.fd in
  let full = Unix.openfile "/dev/full" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 full aof.P.Aof.fd;
  Unix.close full;
  P.Oplog.tick log;
  Alcotest.(check int) "the failed sync is counted" 1 (sync_errors ());
  Alcotest.(check string) "and reported by INFO" "1"
    (List.assoc "persist_sync_errors" (P.Oplog.info log));
  Alcotest.(check int) "a failed sync covers nothing" 0 (P.Aof.synced_seq aof);
  Unix.dup2 saved aof.P.Aof.fd;
  Unix.close saved;
  P.Oplog.tick log;
  Alcotest.(check int) "the next tick syncs the record" seq
    (P.Aof.synced_seq aof);
  Alcotest.(check int) "no further error" 1 (sync_errors ());
  let records, scan = scan_records (P.Layout.log_path ~dir 1) in
  Alcotest.(check (list (pair int string)))
    "the record on disk" [ (7, payload) ]
    (List.map (fun (r : record) -> (r.hdr.stamp, r.payload)) records);
  Alcotest.(check bool) "no tear" true (scan.P.Frame.tear = None);
  P.Oplog.close log;
  rm_rf dir

(* After a failed fsync, a tick under [`Everysec] still writes what the
   writer buffers, so acknowledged records reach the file and the
   writer's memory stays bounded, though [synced_seq] never moves: the
   record of the failed tick went to /dev/null, the two appended after
   the fd is restored are in the file, and both ticks count a
   [sync_errors]. *)
let test_tick_writes_after_failed_fsync () =
  let dir = fresh_dir "tick-fsync" in
  let log = open_oplog dir in
  let aof = P.Oplog.writer log in
  let logged stamp =
    P.Oplog.arm log [ string_of_int stamp ];
    P.Oplog.hook log ~algo:0 ~shard:0 stamp;
    ignore (P.Oplog.finish log : int)
  in
  logged 1;
  let saved = Unix.dup aof.P.Aof.fd in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null aof.P.Aof.fd;
  Unix.close null;
  P.Oplog.tick log;
  Unix.dup2 saved aof.P.Aof.fd;
  Unix.close saved;
  List.iter logged [ 2; 3 ];
  P.Oplog.tick log;
  Alcotest.(check int) "both ticks are counted" 2
    (List.assoc "sync_errors" (P.Oplog.counters log));
  Alcotest.(check int) "nothing is vouched for" 0 (P.Aof.synced_seq aof);
  Alcotest.(check int) "the writer holds nothing" 0
    (P.Aof.Obuf.pending aof.P.Aof.buf + P.Aof.Obuf.pending aof.P.Aof.spare);
  let records, _ = scan_records (P.Layout.log_path ~dir 1) in
  Alcotest.(check (list int)) "the later records are in the file" [ 2; 3 ]
    (List.map (fun (r : record) -> r.hdr.stamp) records);
  (match P.Oplog.close log with
  | () -> Alcotest.fail "the close vouched for the log"
  | exception Unix.Unix_error (Unix.EINVAL, "fsync", _) -> ());
  rm_rf dir

(* One writer serves the log's whole life.  Under [`Always], tickets
   run on across a rotation (1-3, then 4-5), a wait for a
   post-rotation ticket returns, the records sit in log 1 and then log
   2 in append order, and once idle INFO's synced sequence equals its
   appends. *)
let test_rotation_keeps_one_sequence () =
  let dir = fresh_dir "rotate" in
  let log = open_oplog ~policy:`Always dir in
  let logged stamp =
    P.Oplog.arm log [ string_of_int stamp ];
    P.Oplog.hook log ~algo:0 ~shard:0 stamp;
    P.Oplog.finish log
  in
  let before = List.map logged [ 1; 2; 3 ] in
  P.Oplog.rotate log ~gen:2;
  let after = List.map logged [ 4; 5 ] in
  Alcotest.(check (list int)) "tickets before the rotation" [ 1; 2; 3 ] before;
  Alcotest.(check (list int)) "tickets after it" [ 4; 5 ] after;
  P.Oplog.wait_durable log 5;
  Alcotest.(check int) "the wait synced the last record" 5
    (P.Aof.synced_seq (P.Oplog.writer log));
  let stamps gen =
    List.map
      (fun (r : record) -> r.hdr.stamp)
      (fst (scan_records (P.Layout.log_path ~dir gen)))
  in
  Alcotest.(check (list int)) "log 1" [ 1; 2; 3 ] (stamps 1);
  Alcotest.(check (list int)) "log 2" [ 4; 5 ] (stamps 2);
  let info = P.Oplog.info log in
  Alcotest.(check string) "INFO's appends" "5" (List.assoc "persist_appends" info);
  Alcotest.(check string) "INFO's synced sequence = its appends" "5"
    (List.assoc "persist_synced_seq" info);
  P.Oplog.close log;
  rm_rf dir

(* A reusable rendezvous of [n] threads. *)
let barrier n =
  let mu = Mutex.create () and cv = Condition.create () in
  let arrived = ref 0 and round = ref 0 in
  fun () ->
    Mutex.protect mu (fun () ->
        let r = !round in
        incr arrived;
        if !arrived = n then begin
          arrived := 0;
          incr round;
          Condition.broadcast cv
        end
        else
          while !round = r do
            Condition.wait cv mu
          done)

(* Two systhreads of one domain share one log and one STM instance
   whose hook appends to it; each arms its own payload, yields, commits
   a write, yields and finishes.  Both arm before either commits (they
   meet after arming), so a slot shared by the domain's threads would
   log one thread's payload under the other's commit.  Each record must
   carry its own thread's payload and stamp in commit order, and each
   ticket must name its own record.  A second log in the same process
   never logs what was armed for the first. *)
let test_arming_per_thread_and_log () =
  let dir_a = fresh_dir "arm-a" and dir_b = fresh_dir "arm-b" in
  let log_a = open_oplog ~policy:`No dir_a in
  let log_b = open_oplog ~policy:`No dir_b in
  let stm_a = S.create () and stm_b = S.create () in
  let order_mu = Mutex.create () in
  let commits = ref [] in
  S.set_commit_hook stm_a
    (Some
       (fun stamp ->
         Mutex.protect order_mu (fun () ->
             commits := (Thread.id (Thread.self ()), stamp) :: !commits);
         P.Oplog.hook log_a ~algo:0 ~shard:0 stamp));
  S.set_commit_hook stm_b (Some (P.Oplog.hook log_b ~algo:0 ~shard:1));
  let tv = S.tvar stm_a 0 in
  let rounds = 200 in
  let payload tid i = Printf.sprintf "thread %d op %d" tid i in
  let tickets = Array.make 2 (0, []) in
  let armed = barrier 2 in
  let run k () =
    let tid = Thread.id (Thread.self ()) in
    let mine = ref [] in
    for i = 1 to rounds do
      P.Oplog.arm log_a [ payload tid i ];
      Thread.yield ();
      armed ();
      S.atomically stm_a (fun tx -> S.write tx tv (S.read tx tv + 1));
      Thread.yield ();
      mine := finish log_a :: !mine
    done;
    tickets.(k) <- (tid, List.rev !mine)
  in
  List.iter Thread.join [ Thread.create (run 0) (); Thread.create (run 1) () ];
  (* Armed for log A, committed on an instance whose hook goes to B. *)
  P.Oplog.arm log_a [ "armed for A" ];
  S.atomically stm_b (fun tx -> S.write tx (S.tvar stm_b 0) 1);
  Alcotest.(check bool) "A's payload never reached a commit" true
    (finish log_a = None);
  P.Oplog.arm log_b [ "armed for B" ];
  S.atomically stm_b (fun tx -> S.write tx (S.tvar stm_b 0) 2);
  Alcotest.(check bool) "B's payload is B's first record" true
    (match finish log_b with Some 1 -> true | _ -> false);
  P.Oplog.close log_a;
  P.Oplog.close log_b;
  let records_a, _ = scan_records (P.Layout.log_path ~dir:dir_a 1) in
  let records_b, _ = scan_records (P.Layout.log_path ~dir:dir_b 1) in
  (* What commit order says the log holds: each thread's payloads in
     its own order, each with the stamp of the commit that logged it. *)
  let next = Hashtbl.create 2 in
  let expected =
    List.map
      (fun (tid, stamp) ->
        let i = 1 + Option.value (Hashtbl.find_opt next tid) ~default:0 in
        Hashtbl.replace next tid i;
        (stamp, payload tid i))
      (List.rev !commits)
  in
  Alcotest.(check int) "one commit per op" (2 * rounds) (List.length expected);
  Alcotest.(check (list (pair int string)))
    "log A: each thread's payloads with their own stamps, in commit order"
    expected
    (List.map (fun (r : record) -> (r.hdr.stamp, r.payload)) records_a);
  let by_seq = Array.of_list records_a in
  let named (tid, mine) =
    List.mapi
      (fun i ticket ->
        match ticket with
        | Some seq when seq >= 1 && seq <= Array.length by_seq ->
            by_seq.(seq - 1).payload
        | Some _ | None -> Printf.sprintf "no record for thread %d op %d" tid (i + 1))
      mine
  in
  Array.iter
    (fun (tid, mine) ->
      Alcotest.(check (list string))
        (Printf.sprintf "thread %d: each ticket names its own record" tid)
        (List.init rounds (fun i -> payload tid (i + 1)))
        (named (tid, mine)))
    tickets;
  Alcotest.(check (list (pair int string)))
    "log B: only what was armed for B" [ (1, "armed for B") ]
    (List.map
       (fun (r : record) -> (r.hdr.shard, r.payload))
       records_b);
  rm_rf dir_a;
  rm_rf dir_b

(* ---- a scripted load writes the reference's bytes ----------------------- *)

(* The bytes the reference writes for the file at [path]: its magic,
   then each of its records as [reference_record] frames it, from the
   header the file holds and, for an op or a creation, the reference
   encoding of the commands its payload parses to (a bounds or trailer
   payload is kept as it is).  Also the op and creation records'
   commands, in order. *)
let reference_file ~magic path =
  let b = Buffer.create 4096 and logged = ref [] in
  Buffer.add_string b magic;
  let scan =
    P.Frame.scan ~magic ~path ~f:(fun hdr buf off len ->
        let payload =
          if hdr.P.Frame.rtype = P.Frame.rt_op || hdr.rtype = P.Frame.rt_new
          then begin
            let cmds = ref [] in
            (match
               Wire.iter_requests (fun r -> cmds := r.Wire.cmd :: !cmds) buf off len
             with
            | `Ok -> ()
            | `Partial | `Bad _ -> Alcotest.failf "%s: a payload does not parse" path);
            logged := (hdr.rtype, List.rev !cmds) :: !logged;
            reference_payload (List.rev !cmds)
          end
          else Bytes.sub_string buf off len
        in
        reference_record b hdr ~payload)
  in
  Alcotest.(check bool) (path ^ " scans clean") true (scan.P.Frame.tear = None);
  (Buffer.contents b, List.rev !logged)

(* A scripted load through a live session under [`Always]: hinted and
   plain requests, keys 0, negative, [min_int] and [max_int], an empty
   and a 5,000-byte value, a DEL of an absent key, a MULTI batch, a
   BLPOP, a BTAKE and DEQs (one of an empty queue), then a BGSAVE and
   one more write.  Each log and checkpoint file equals the bytes the
   reference writes for its records, and the logs hold exactly the
   commands that mutated: hint-free, a pop as its DEQ, the batch as one
   record, nothing for the absent key or the empty queue. *)
let test_scripted_load_reference ~algo ~shards () =
  let dir = fresh_dir "script" in
  let long = String.init 5_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let script =
    [
      req (Wire.New (Wire.Kmap, "m")); req (Wire.New (Wire.Kset, "s"));
      req (Wire.New (Wire.Kqueue, "q"));
      req ~hint:Sem.Classic (Wire.Put ("m", 1, "a"));
      req (Wire.Put ("m", -5, ""));
      req ~hint:Sem.Elastic (Wire.Put ("m", max_int, long));
      req (Wire.Put ("m", min_int, "z"));
      req ~hint:Sem.Elastic (Wire.Get ("m", 1));
      req (Wire.Del ("m", 1)); req ~hint:Sem.Classic (Wire.Del ("m", 999));
      req (Wire.Add ("s", 0)); req (Wire.Remove ("s", 0));
      req (Wire.Enq ("q", "x")); req (Wire.Enq ("q", "")); req (Wire.Enq ("q", "y"));
      req ~hint:Sem.Classic Wire.Multi; req (Wire.Put ("m", 2, "b"));
      req (Wire.Enq ("q", "w")); req (Wire.Del ("m", 2)); req Wire.Multi_end;
      req (Wire.Blpop ("q", 0)); req (Wire.Btake ("q", 0)); req (Wire.Deq "q");
      req (Wire.Deq "q"); req (Wire.Deq "q");
    ]
  in
  let op cmds = (P.Frame.rt_op, cmds) and mk cmd = (P.Frame.rt_new, [ cmd ]) in
  let expected =
    [
      mk (Wire.New (Wire.Kmap, "m")); mk (Wire.New (Wire.Kset, "s"));
      mk (Wire.New (Wire.Kqueue, "q"));
      op [ Wire.Put ("m", 1, "a") ]; op [ Wire.Put ("m", -5, "") ];
      op [ Wire.Put ("m", max_int, long) ]; op [ Wire.Put ("m", min_int, "z") ];
      op [ Wire.Del ("m", 1) ]; op [ Wire.Add ("s", 0) ]; op [ Wire.Remove ("s", 0) ];
      op [ Wire.Enq ("q", "x") ]; op [ Wire.Enq ("q", "") ]; op [ Wire.Enq ("q", "y") ];
      op [ Wire.Put ("m", 2, "b"); Wire.Enq ("q", "w"); Wire.Del ("m", 2) ];
      op [ Wire.Deq "q" ]; op [ Wire.Deq "q" ]; op [ Wire.Deq "q" ];
      op [ Wire.Deq "q" ];
    ]
  in
  let check_file ~magic path =
    let want, logged = reference_file ~magic path in
    Alcotest.(check bool) (path ^ " = the reference's bytes") true
      (String.equal want (read_file path));
    logged
  in
  let logged_t =
    Alcotest.(list (pair int (list (testable Fmt.(using Wire.cmd_name string) ( = )))))
  in
  run_session ~dir ~policy:`Always ~shards ~algo (fun fd _reg _p ->
      let b = Buffer.create 8192 in
      List.iter (Wire.write_request b) script;
      write_all fd (Buffer.contents b);
      ignore (recv_n fd (List.length script));
      Alcotest.check logged_t "the activation checkpoint holds no structure" []
        (check_file ~magic:P.Frame.ckpt_magic (P.Layout.ckpt_path ~dir 1));
      Alcotest.check logged_t "log 1 holds what mutated" expected
        (check_file ~magic:P.Frame.log_magic (P.Layout.log_path ~dir 1));
      (match roundtrip fd [ Wire.Bgsave ] with
      | [ Wire.Simple "OK" ] -> ()
      | _ -> Alcotest.fail "BGSAVE failed");
      let ckpt = check_file ~magic:P.Frame.ckpt_magic (P.Layout.ckpt_path ~dir 2) in
      Alcotest.(check int) "the checkpoint: three NEWs and the map's three entries" 6
        (List.length ckpt);
      ignore (roundtrip fd [ Wire.Put ("m", 3, "c") ]);
      Alcotest.check logged_t "log 2 holds the last write"
        [ op [ Wire.Put ("m", 3, "c") ] ]
        (check_file ~magic:P.Frame.log_magic (P.Layout.log_path ~dir 2)));
  rm_rf dir

(* ---- a checkpoint's bounds are its snapshot's cut ------------------------ *)

(* The bounds record holds one entry per instance, TL2 shards then
   NORec shards in shard order, each read inside the checkpoint's own
   snapshot, and a write is in the checkpoint iff its stamp is at most
   its instance's bound.  A TL2 and a NORec map, at 1 and 8 shards: 16
   writes to each, a BGSAVE, then one more write to each.  Every op
   record of log 1 is within its instance's bound, and both of log 2
   are past theirs. *)
let test_checkpoint_bounds_are_its_cut () =
  List.iter
    (fun shards ->
      let dir = fresh_dir "bounds" in
      let ops gen =
        List.filter
          (fun (r : record) -> r.hdr.rtype = P.Frame.rt_op)
          (fst (scan_records (P.Layout.log_path ~dir gen)))
      in
      let before =
        run_session ~dir ~policy:`Always ~shards (fun fd reg _p ->
            ignore (roundtrip fd [ Wire.New (Wire.Kmap, "t") ]);
            (match Registry.ensure ~algo:`Norec reg Wire.Kmap "n" with
            | Ok _ -> ()
            | Error _ -> Alcotest.fail "ensure n");
            for k = 0 to 15 do
              ignore
                (roundtrip fd [ Wire.Put ("t", k, "a"); Wire.Put ("n", k, "b") ])
            done;
            (* the BGSAVE deletes log 1 once it publishes generation 2 *)
            let before = ops 1 in
            (match roundtrip fd [ Wire.Bgsave ] with
            | [ Wire.Simple "OK" ] -> ()
            | _ -> Alcotest.fail "BGSAVE failed");
            ignore
              (roundtrip fd [ Wire.Put ("t", 100, "c"); Wire.Put ("n", 100, "d") ]);
            before)
      in
      let bounds = ref None in
      ignore
        (P.Frame.scan ~magic:P.Frame.ckpt_magic ~path:(P.Layout.ckpt_path ~dir 2)
           ~f:(fun hdr buf off len ->
             if hdr.P.Frame.rtype = P.Frame.rt_bounds then
               bounds := P.Frame.decode_bounds (Bytes.sub_string buf off len)));
      let bounds =
        match !bounds with
        | Some b -> b
        | None -> Alcotest.fail "no bounds record"
      in
      let per algo = List.init shards (fun s -> (P.Frame.algo_code algo, s)) in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "%d shards: one entry per instance, in order" shards)
        (per `Tl2 @ per `Norec)
        (List.map (fun (a, s, _) -> (a, s)) bounds);
      let within (r : record) =
        List.exists
          (fun (a, s, b) -> a = r.hdr.algo && s = r.hdr.shard && r.hdr.stamp <= b)
          bounds
      in
      Alcotest.(check int) "log 1: 32 writes" 32 (List.length before);
      Alcotest.(check bool)
        (Printf.sprintf "%d shards: every write before the BGSAVE is within the cut"
           shards)
        true (List.for_all within before);
      let after = ops 2 in
      Alcotest.(check int) "log 2: 2 writes" 2 (List.length after);
      Alcotest.(check bool)
        (Printf.sprintf "%d shards: both writes after it are past the cut" shards)
        false (List.exists within after);
      rm_rf dir)
    [ 1; 8 ]

(* ---- the commit hook's failure and allocation paths ---------------------- *)

(* An encoder that raises midway through a record: the commit still
   commits, [hook_errors] counts the failure, no byte of the record is
   left in the log, and the next record is appended and scans clean
   right after the one before. *)
let test_raising_encoder () =
  let dir = fresh_dir "raise" in
  Unix.mkdir dir 0o755;
  let encode ob l =
    List.iter
      (fun s ->
        Wire.Obuf.add_string ob s;
        if s = "boom" then failwith "encoder failed")
      l
  in
  let log =
    P.Oplog.create ~dir ~policy:`No ~encode ~gen:1 ~replayed:0 ~recover_ms:0.
      ~tear:"none"
  in
  let stm = S.create () in
  S.set_commit_hook stm (Some (P.Oplog.hook log ~algo:0 ~shard:0));
  let tv = S.tvar stm 0 in
  let commit payload =
    P.Oplog.arm log payload;
    S.atomically stm (fun tx -> S.write tx tv (S.read tx tv + 1));
    P.Oplog.finish log
  in
  Alcotest.(check bool) "the first record is appended" true (commit [ "first" ] > 0);
  Alcotest.(check bool) "a raising encoder appends nothing" false
    (commit [ "partial record "; "boom" ] > 0);
  Alcotest.(check int) "the commit committed" 2 (S.atomically stm (fun tx -> S.read tx tv));
  Alcotest.(check int) "hook_errors counts it" 1
    (List.assoc "hook_errors" (P.Oplog.counters log));
  let next = commit [ "next" ] in
  Alcotest.(check bool) "the next record is appended" true (next > 0);
  Alcotest.(check int) "as the second record" 2 next;
  P.Oplog.close log;
  let path = P.Layout.log_path ~dir 1 in
  let records, scan = scan_records path in
  Alcotest.(check (list string)) "the log holds the two whole records"
    [ "first"; "next" ]
    (List.map (fun (r : record) -> r.payload) records);
  Alcotest.(check bool) "it scans clean" true (scan.P.Frame.tear = None);
  Alcotest.(check int) "to its last byte" (String.length (read_file path))
    scan.P.Frame.valid_bytes;
  rm_rf dir

(* A DEL of an absent key commits read-only: the hook never fires, so
   nothing is encoded and nothing appended.  The log's encoder counts
   its calls. *)
let test_absent_del_encodes_nothing () =
  let dir = fresh_dir "del-absent" in
  Unix.mkdir dir 0o755;
  let encoded = Atomic.make 0 in
  let encode ob cmds =
    Atomic.incr encoded;
    Wire.write_cmds ob cmds
  in
  let registry = Registry.create () in
  let log =
    P.Oplog.create ~dir ~policy:`Always ~encode ~gen:1 ~replayed:0
      ~recover_ms:0. ~tear:"none"
  in
  Persist.set_hooks registry (Some log);
  registry.Registry.persist <- Some log;
  let server_fd, fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let dom =
    Domain.spawn (fun () ->
        Evloop.handle ~limits:Limits.default ~registry
          ~stats:(Session.create_stats ()) server_fd)
  in
  let appends () = List.assoc "appends" (P.Oplog.counters log) in
  let step what cmd reply ~encodes =
    Alcotest.(check string) what (resp_str reply) (resp_str (List.hd (roundtrip fd [ cmd ])));
    Alcotest.(check (pair int int)) (what ^ ": encoded and appended") (encodes, encodes)
      (Atomic.get encoded, appends ())
  in
  step "NEW" (Wire.New (Wire.Kmap, "m")) Wire.ok ~encodes:1;
  step "PUT" (Wire.Put ("m", 1, "a")) (Wire.Int 1) ~encodes:2;
  step "DEL of an absent key" (Wire.Del ("m", 7)) (Wire.Int 0) ~encodes:2;
  step "DEL" (Wire.Del ("m", 1)) (Wire.Int 1) ~encodes:3;
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  Domain.join dom;
  Persist.set_hooks registry None;
  P.Oplog.close log;
  Unix.close fd;
  Unix.close server_fd;
  rm_rf dir

(* Arm, hook and finish of a logged PUT under [`Everysec], its encoding
   included, allocate nothing: the record is framed straight into the
   log's writer.  Both writers are grown first, a round apart, as the
   once-a-second sync swaps them. *)
let test_logged_put_allocates_nothing () =
  let dir = fresh_dir "alloc" in
  Unix.mkdir dir 0o755;
  let log =
    P.Oplog.create ~dir ~policy:`Everysec ~encode:Wire.write_cmds ~gen:1
      ~replayed:0 ~recover_ms:0. ~tear:"none"
  in
  let put = [ Wire.Put ("bench", 123456, "value-00000123") ] in
  let n = 1_000 in
  let round () =
    for i = 1 to n do
      P.Oplog.arm log put;
      P.Oplog.hook log ~algo:0 ~shard:0 i;
      ignore (P.Oplog.finish log : int)
    done
  in
  round ();
  P.Oplog.tick log;
  round ();
  P.Oplog.tick log;
  let w0 = Gc.minor_words () in
  round ();
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every write appended" (3 * n)
    (List.assoc "appends" (P.Oplog.counters log));
  if words > 0.01 then
    Alcotest.failf "a logged PUT allocates %.2f words (budget 0)" words;
  P.Oplog.close log;
  rm_rf dir

(* ---- counters, INFO and the trace lane are per server -------------------- *)

(* Non-overlapping occurrences of [sub] in [s]. *)
let count sub s =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* The stats document's persist object, as (key, value) pairs. *)
let persist_counters stats =
  let marker = "\"persist\":{" in
  let rec start i =
    if i + String.length marker > String.length stats then
      Alcotest.failf "no persist section in %s" stats
    else if String.sub stats i (String.length marker) = marker then
      i + String.length marker
    else start (i + 1)
  in
  let a = start 0 in
  List.map
    (fun kv ->
      match String.split_on_char ':' kv with
      | [ k; v ] -> (String.sub k 1 (String.length k - 2), int_of_string v)
      | _ -> Alcotest.failf "bad persist field %S" kv)
    (String.split_on_char ','
       (String.sub stats a (String.index_from stats a '}' - a)))

(* One durable polytmd, run in this process through [Server.run] for
   half a second and fed by a client domain: [puts] PUTs of new keys
   from [first] in one pipelined batch, then an INFO if [info].
   Returns the stats document, the trace and INFO's fields. *)
let serve_once ~dir ~tag ~first ~puts ~info =
  let file ext =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "polytm-persist-%d-%s.%s" (Unix.getpid ()) tag ext)
  in
  let sock = file "sock" and stats = file "stats" and trace = file "trace" in
  let client =
    Domain.spawn (fun () ->
        let rec connect tries =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX sock) with
          | () -> fd
          | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
            when tries > 0 ->
              Unix.close fd;
              Unix.sleepf 0.002;
              connect (tries - 1)
        in
        let fd = connect 1000 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            List.iter
              (function
                | Wire.Int 1 -> () | r -> Alcotest.failf "PUT: %s" (resp_str r))
              (roundtrip fd
                 (List.init puts (fun i -> Wire.Put ("m", first + i, "v"))));
            if not info then []
            else
              match roundtrip fd [ Wire.Info ] with
              | [ Wire.Bulk s ] ->
                  List.filter_map
                    (fun l ->
                      Option.map
                        (fun i ->
                          ( String.sub l 0 i,
                            String.sub l (i + 1) (String.length l - i - 1) ))
                        (String.index_opt l ':'))
                    (String.split_on_char '\n' s)
              | _ -> Alcotest.fail "INFO failed"))
  in
  ignore
    (Server.run
       {
         Server.default_config with
         listeners = [ Server.Unix_sock sock ];
         workers = 1;
         prestructs = [ (Wire.Kmap, "m", `Tl2) ];
         stats_json = Some stats;
         trace = Some trace;
         max_seconds = Some 0.5;
         quiet = true;
         persist_dir = Some dir;
         fsync = `Always;
         checkpoint_sec = 0.;
       });
  let info = Domain.join client in
  let take path =
    let s = read_file path in
    Sys.remove path;
    s
  in
  (take stats, take trace, info)

(* Two servers, one after the other, in one process (the second
   recovers the first's store): each reports its own counters, without
   waiting for an INFO, they agree with INFO, and each trace holds only
   its own server's persist spans. *)
let test_counters_per_server () =
  let dir = fresh_dir "per-server" in
  let stats1, trace1, _ = serve_once ~dir ~tag:"a" ~first:0 ~puts:40 ~info:false in
  let stats2, trace2, info =
    serve_once ~dir ~tag:"b" ~first:1000 ~puts:50 ~info:true
  in
  let c1 = persist_counters stats1 and c2 = persist_counters stats2 in
  let inf key = int_of_string (List.assoc key info) in
  Alcotest.(check int) "first server: its own appends" 40 (List.assoc "appends" c1);
  Alcotest.(check int) "second server: its own appends" 50 (List.assoc "appends" c2);
  Alcotest.(check int) "first server: one checkpoint" 1 (List.assoc "checkpoints" c1);
  Alcotest.(check int) "second server: one checkpoint" 1 (List.assoc "checkpoints" c2);
  Alcotest.(check bool) "fsyncs counted without an INFO" true
    (List.assoc "fsyncs" c1 >= 1);
  Alcotest.(check int) "appends = INFO's" (inf "persist_appends")
    (List.assoc "appends" c2);
  Alcotest.(check int) "bytes = INFO's" (inf "persist_bytes")
    (List.assoc "bytes" c2);
  Alcotest.(check int) "replayed = INFO's" (inf "persist_replayed")
    (List.assoc "replayed" c2);
  Alcotest.(check bool) "fsyncs >= INFO's (plus the shutdown sync)" true
    (List.assoc "fsyncs" c2 >= inf "persist_fsyncs");
  List.iter
    (fun (which, trace) ->
      List.iter
        (fun slice ->
          Alcotest.(check int)
            (Printf.sprintf "%s server: one %s slice on its persist lane" which
               slice)
            1
            (count (Printf.sprintf "{\"name\":%S,\"cat\":\"persist\"" slice) trace))
        [ "checkpoint"; "recovery" ])
    [ ("first", trace1); ("second", trace2) ];
  rm_rf dir

let suite =
  ( "persist",
    [
      prop prop_torn_tail;
      prop prop_bitflip;
      Alcotest.test_case "scan reads records longer than its window" `Quick
        test_scan_long_records;
      Alcotest.test_case "CRC-32 check value; update checks its range" `Quick
        test_crc_check_value;
      prop prop_crc_reference;
      prop prop_crc_pieces;
      Alcotest.test_case "recovery differential (tl2, 1 shard)" `Quick
        (test_recovery_differential ~algo:`Tl2 ~shards:1);
      Alcotest.test_case "recovery differential (tl2, 8 shards)" `Quick
        (test_recovery_differential ~algo:`Tl2 ~shards:8);
      Alcotest.test_case "recovery differential (norec, 1 shard)" `Quick
        (test_recovery_differential ~algo:`Norec ~shards:1);
      Alcotest.test_case "recovery differential (norec, 8 shards)" `Quick
        (test_recovery_differential ~algo:`Norec ~shards:8);
      Alcotest.test_case "torn-tail cut exactness on a crash log" `Quick
        test_torn_tail_real;
      Alcotest.test_case "recovery across batch boundaries" `Quick
        test_recovery_across_batches;
      Alcotest.test_case "BGSAVE concurrent with writers truncates the log"
        `Quick test_bgsave_concurrent;
      Alcotest.test_case "INFO lines; BGSAVE/LASTSAVE refused without --dir"
        `Quick test_info_and_off_refusals;
      Alcotest.test_case "blocking pop is logged and recovers" `Quick
        test_blocking_pop_logged;
      Alcotest.test_case "a parked pop on a watched queue marks after its commit"
        `Quick test_parked_pop_marks_after_commit;
      Alcotest.test_case "replay refuses malformed payloads; decoder per recovery"
        `Quick test_replay_refusals;
      Alcotest.test_case "replay counts no client ops" `Quick
        test_replay_counts_no_ops;
      prop prop_fold_recovers_model;
      Alcotest.test_case "a replayed log applies each map key once" `Quick
        test_fold_commits_once;
      Alcotest.test_case "a bad checkpoint refuses and applies nothing" `Quick
        test_bad_checkpoint_applies_nothing;
      Alcotest.test_case "a lost or torn MANIFEST refuses and removes nothing"
        `Quick test_lost_manifest_refuses;
      Alcotest.test_case "a failed directory fsync raises" `Quick
        test_fsync_dir_raises;
      Alcotest.test_case "a failed checkpoint is counted" `Quick
        test_failed_checkpoint_counted;
      Alcotest.test_case "a failed log write keeps its records" `Quick
        test_aof_failed_write;
      Alcotest.test_case "a failed tick sync is counted and retried" `Quick
        test_tick_survives_failed_sync;
      Alcotest.test_case "a failed fsync is never vouched for by a later one"
        `Quick test_aof_failed_fsync;
      Alcotest.test_case "a close that fails vouches for nothing" `Quick
        test_aof_failed_close;
      Alcotest.test_case "after a failed fsync a tick still writes" `Quick
        test_tick_writes_after_failed_fsync;
      Alcotest.test_case "a rotation keeps one sequence" `Quick
        test_rotation_keeps_one_sequence;
      prop prop_record_reference;
      Alcotest.test_case "a scripted load writes the reference's bytes (tl2, 1 shard)"
        `Quick (test_scripted_load_reference ~algo:`Tl2 ~shards:1);
      Alcotest.test_case "a scripted load writes the reference's bytes (tl2, 4 shards)"
        `Quick (test_scripted_load_reference ~algo:`Tl2 ~shards:4);
      Alcotest.test_case "a scripted load writes the reference's bytes (norec, 1 shard)"
        `Quick (test_scripted_load_reference ~algo:`Norec ~shards:1);
      Alcotest.test_case "a scripted load writes the reference's bytes (norec, 4 shards)"
        `Quick (test_scripted_load_reference ~algo:`Norec ~shards:4);
      Alcotest.test_case "a checkpoint's bounds are its snapshot's cut" `Quick
        test_checkpoint_bounds_are_its_cut;
      Alcotest.test_case "an encoder that raises leaves no partial record" `Quick
        test_raising_encoder;
      Alcotest.test_case "a DEL of an absent key encodes nothing" `Quick
        test_absent_del_encodes_nothing;
      Alcotest.test_case "a logged PUT allocates nothing" `Quick
        test_logged_put_allocates_nothing;
      Alcotest.test_case "arming is per thread and per log" `Quick
        test_arming_per_thread_and_log;
      Alcotest.test_case "counters, INFO and the trace lane are per server"
        `Quick test_counters_per_server;
    ] )
