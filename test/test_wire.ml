(* Wire-codec tests: qcheck round-trips through the incremental
   decoder at adversarial chunk boundaries, plus malformed-frame fuzz.

   The properties the session layer relies on:
   - encode/decode is the identity on requests and responses,
     regardless of how the byte stream is sliced into feeds;
   - a malformed frame *body* surfaces as [`Bad] and consumes exactly
     its frame — the next frame decodes normally (no desync);
   - only broken framing yields [`Corrupt], and it latches;
   - no input, however hostile, makes the decoder raise. *)

module Wire = Polytm_server.Wire
module Sem = Polytm.Semantics

let prop = Test_seed.to_alcotest

(* ---- generators -------------------------------------------------------- *)

let gen_kind = QCheck.Gen.oneofl [ Wire.Kmap; Wire.Kset; Wire.Kqueue ]
let gen_sem = QCheck.Gen.oneofl [ Sem.Classic; Sem.Elastic; Sem.Snapshot ]

(* Structure names and values are bulk-encoded, so arbitrary bytes —
   newlines, '~', '\000', protocol metacharacters — must round-trip. *)
let gen_blob =
  QCheck.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 40))

let gen_key =
  QCheck.Gen.(
    frequency
      [ (9, small_signed_int); (1, int); (1, oneofl [ min_int; max_int; 0; -1 ]) ])

let gen_cmd =
  let open QCheck.Gen in
  frequency
    [
      (1, return Wire.Ping);
      (2, map2 (fun k n -> Wire.New (k, n)) gen_kind gen_blob);
      (3, map2 (fun s k -> Wire.Get (s, k)) gen_blob gen_key);
      (3, map3 (fun s k v -> Wire.Put (s, k, v)) gen_blob gen_key gen_blob);
      (2, map2 (fun s k -> Wire.Del (s, k)) gen_blob gen_key);
      (2, map2 (fun s k -> Wire.Contains (s, k)) gen_blob gen_key);
      (2, map2 (fun s k -> Wire.Add (s, k)) gen_blob gen_key);
      (2, map2 (fun s k -> Wire.Remove (s, k)) gen_blob gen_key);
      (1, map (fun s -> Wire.Size s) gen_blob);
      (1, map (fun s -> Wire.Snapshot_iter s) gen_blob);
      (2, map2 (fun s v -> Wire.Enq (s, v)) gen_blob gen_blob);
      (1, map (fun s -> Wire.Deq s) gen_blob);
      (1, map2 (fun s ms -> Wire.Blpop (s, ms)) gen_blob small_nat);
      (1, map2 (fun s ms -> Wire.Btake (s, ms)) gen_blob small_nat);
      (1, map (fun s -> Wire.Watch s) gen_blob);
      (1, map (fun s -> Wire.Unwatch s) gen_blob);
      (1, return Wire.Multi);
      (1, return Wire.Multi_end);
      (1, oneofl [ Wire.Info; Wire.Bgsave; Wire.Lastsave ]);
      ( 1,
        map2
          (fun b d -> Wire.Debug_abort { budget = b; deadline_us = d })
          (opt small_nat) (opt small_nat) );
    ]

let gen_request =
  QCheck.Gen.(
    map2 (fun hint cmd -> { Wire.hint; cmd }) (opt gen_sem) gen_cmd)

let gen_err_code =
  QCheck.Gen.oneofl
    [
      Wire.Proto; Wire.Busy; Wire.Deadline; Wire.Exhausted; Wire.No_struct;
      Wire.Bad_op; Wire.Sem_violation;
    ]

(* Simple/Error payloads are line-delimited, so no newlines there. *)
let gen_line =
  QCheck.Gen.(
    string_size ~gen:(map (fun c -> if c = '\n' then ' ' else c) printable)
      (0 -- 30))

let gen_response =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let leaf =
            frequency
              [
                (2, map (fun s -> Wire.Simple s) gen_line);
                (3, map (fun i -> Wire.Int i) int);
                (3, map (fun s -> Wire.Bulk s) gen_blob);
                (1, return Wire.Nil);
                ( 2,
                  map2 (fun c m -> Wire.Error (c, m)) gen_err_code gen_line );
              ]
          in
          if n <= 0 then leaf
          else
            frequency
              [
                (4, leaf);
                ( 1,
                  map
                    (fun l -> Wire.Array l)
                    (list_size (0 -- 4) (self (n / 4))) );
              ])
        (min n 20))

let arb_request = QCheck.make ~print:(fun r ->
    let b = Buffer.create 64 in
    Wire.write_request b r;
    String.escaped (Buffer.contents b))
    gen_request

let arb_response = QCheck.make ~print:(fun r ->
    let ob = Wire.Obuf.create () in
    Wire.write_response_obuf ob r;
    String.escaped (Wire.Obuf.contents ob))
    gen_response

(* ---- helpers ----------------------------------------------------------- *)

let encode_requests rs =
  let b = Buffer.create 256 in
  List.iter (Wire.write_request b) rs;
  Buffer.contents b

let encode_responses rs =
  let ob = Wire.Obuf.create () in
  List.iter (Wire.write_response_obuf ob) rs;
  Wire.Obuf.contents ob

(* A second request encoder, built the way the codec once was: a field
   list of [string_of_int] strings, framed by [Printf].  The encoder
   under test writes integers straight into its buffer and must produce
   these bytes exactly — they are also the op log's payload format. *)
let reference_request (r : Wire.request) =
  let i = string_of_int in
  let opt = function None -> "_" | Some n -> i n in
  let fields =
    match r.cmd with
    | Wire.Ping -> [ "PING" ]
    | Wire.New (k, s) -> [ "NEW"; Wire.kind_to_string k; s ]
    | Wire.Get (s, k) -> [ "GET"; s; i k ]
    | Wire.Put (s, k, v) -> [ "PUT"; s; i k; v ]
    | Wire.Del (s, k) -> [ "DEL"; s; i k ]
    | Wire.Contains (s, k) -> [ "CONTAINS"; s; i k ]
    | Wire.Add (s, k) -> [ "ADD"; s; i k ]
    | Wire.Remove (s, k) -> [ "REMOVE"; s; i k ]
    | Wire.Size s -> [ "SIZE"; s ]
    | Wire.Snapshot_iter s -> [ "SNAPSHOT-ITER"; s ]
    | Wire.Enq (s, v) -> [ "ENQ"; s; v ]
    | Wire.Deq s -> [ "DEQ"; s ]
    | Wire.Blpop (s, ms) -> [ "BLPOP"; s; i ms ]
    | Wire.Btake (s, ms) -> [ "BTAKE"; s; i ms ]
    | Wire.Watch s -> [ "WATCH"; s ]
    | Wire.Unwatch s -> [ "UNWATCH"; s ]
    | Wire.Multi -> [ "MULTI" ]
    | Wire.Multi_end -> [ "MULTI-END" ]
    | Wire.Info -> [ "INFO" ]
    | Wire.Bgsave -> [ "BGSAVE" ]
    | Wire.Lastsave -> [ "LASTSAVE" ]
    | Wire.Debug_abort { budget; deadline_us } ->
        [ "DEBUG-ABORT"; opt budget; opt deadline_us ]
  in
  let hint = function
    | Sem.Classic -> "~classic"
    | Sem.Elastic -> "~elastic"
    | Sem.Snapshot -> "~snapshot"
  in
  let fields =
    match r.hint with None -> fields | Some s -> hint s :: fields
  in
  let body = Buffer.create 64 in
  Printf.bprintf body "*%d\n" (List.length fields);
  List.iter
    (fun f -> Printf.bprintf body "$%d\n%s\n" (String.length f) f)
    fields;
  Printf.sprintf "#%d\n%s" (Buffer.length body) (Buffer.contents body)

(* A reply encoder built the same way, by [Printf] and string
   concatenation: the sized reply writer must produce these bytes. *)
let rec reference_body = function
  | Wire.Simple s -> "+" ^ s ^ "\n"
  | Wire.Int n -> Printf.sprintf ":%d\n" n
  | Wire.Bulk s -> Printf.sprintf "$%d\n%s\n" (String.length s) s
  | Wire.Nil -> "_\n"
  | Wire.Error (c, m) -> Printf.sprintf "-%s %s\n" (Wire.err_code_to_string c) m
  | Wire.Array l ->
      Printf.sprintf "*%d\n" (List.length l)
      ^ String.concat "" (List.map reference_body l)
  | Wire.Push s -> ">" ^ s ^ "\n"

let reference_response r =
  let body = reference_body r in
  Printf.sprintf "#%d\n%s" (String.length body) body

(* The hint-free frames the op log records, as a string. *)
let encode_cmds cmds =
  let ob = Wire.Obuf.create () in
  Wire.write_cmds ob cmds;
  Wire.Obuf.contents ob

(* A second request parser, built the way the codec once parsed: the
   body split into a list of copied field strings, the list matched,
   and every integer read by [int_of_string_opt].  The parser under
   test reads its fields in place and must accept exactly the bodies
   this one accepts, with the same request. *)
exception Reference_bad

let reference_parse body =
  let pos = ref 0 and limit = String.length body in
  let peek () = if !pos >= limit then raise Reference_bad else body.[!pos] in
  let expect ch =
    if peek () <> ch then raise Reference_bad;
    incr pos
  in
  let nat () =
    let start = !pos and n = ref 0 in
    while match peek () with '0' .. '9' -> true | _ -> false do
      n := (!n * 10) + Char.code body.[!pos] - Char.code '0';
      incr pos;
      if !pos - start > 15 then raise Reference_bad
    done;
    if !pos = start then raise Reference_bad;
    expect '\n';
    !n
  in
  let bulk () =
    expect '$';
    let len = nat () in
    if !pos + len + 1 > limit then raise Reference_bad;
    let s = String.sub body !pos len in
    pos := !pos + len;
    expect '\n';
    s
  in
  let int_arg s =
    match int_of_string_opt s with Some n -> n | None -> raise Reference_bad
  in
  let opt_int_arg = function "_" -> None | s -> Some (int_arg s) in
  expect '*';
  let n = nat () in
  if n = 0 || n > 64 then raise Reference_bad;
  let fields = List.init n (fun _ -> bulk ()) in
  if !pos <> limit then raise Reference_bad;
  let hint, fields =
    match fields with
    | f :: rest when String.length f > 0 && f.[0] = '~' -> (
        match f with
        | "~classic" -> (Some Sem.Classic, rest)
        | "~elastic" -> (Some Sem.Elastic, rest)
        | "~snapshot" -> (Some Sem.Snapshot, rest)
        | _ -> raise Reference_bad)
    | fields -> (None, fields)
  in
  let cmd =
    match fields with
    | [ "PING" ] -> Wire.Ping
    | [ "NEW"; k; name ] -> (
        match Wire.kind_of_string k with
        | Some k -> Wire.New (k, name)
        | None -> raise Reference_bad)
    | [ "GET"; s; k ] -> Wire.Get (s, int_arg k)
    | [ "PUT"; s; k; v ] -> Wire.Put (s, int_arg k, v)
    | [ "DEL"; s; k ] -> Wire.Del (s, int_arg k)
    | [ "CONTAINS"; s; k ] -> Wire.Contains (s, int_arg k)
    | [ "ADD"; s; k ] -> Wire.Add (s, int_arg k)
    | [ "REMOVE"; s; k ] -> Wire.Remove (s, int_arg k)
    | [ "SIZE"; s ] -> Wire.Size s
    | [ "SNAPSHOT-ITER"; s ] -> Wire.Snapshot_iter s
    | [ "ENQ"; s; v ] -> Wire.Enq (s, v)
    | [ "DEQ"; s ] -> Wire.Deq s
    | [ "BLPOP"; s; ms ] -> Wire.Blpop (s, int_arg ms)
    | [ "BTAKE"; s; ms ] -> Wire.Btake (s, int_arg ms)
    | [ "WATCH"; s ] -> Wire.Watch s
    | [ "UNWATCH"; s ] -> Wire.Unwatch s
    | [ "MULTI" ] -> Wire.Multi
    | [ "MULTI-END" ] -> Wire.Multi_end
    | [ "INFO" ] -> Wire.Info
    | [ "BGSAVE" ] -> Wire.Bgsave
    | [ "LASTSAVE" ] -> Wire.Lastsave
    | [ "DEBUG-ABORT"; b; d ] ->
        Wire.Debug_abort
          { budget = opt_int_arg b; deadline_us = opt_int_arg d }
    | _ -> raise Reference_bad
  in
  { Wire.hint; cmd }

(* Feed [s] in chunks whose boundaries come from [cuts] (positions),
   pulling every available item after each feed — the decoder must
   produce the same items no matter where the stream is sliced. *)
let decode_chunked next cuts s =
  let dec = Wire.Decoder.create () in
  let items = ref [] in
  let dead = ref false in
  let rec drain () =
    if not !dead then
      match next dec with
      | `Ok v ->
          items := `Ok v :: !items;
          drain ()
      | `Bad m ->
          items := `Bad m :: !items;
          drain ()
      | `Await -> ()
      | `Corrupt m ->
          items := `Corrupt m :: !items;
          dead := true
  in
  let cuts = List.sort_uniq compare (List.filter (fun c -> c > 0 && c < String.length s) cuts) in
  let bounds = (0 :: cuts) @ [ String.length s ] in
  let rec feed = function
    | a :: (b :: _ as rest) ->
        Wire.Decoder.feed_string dec (String.sub s a (b - a));
        drain ();
        feed rest
    | _ -> ()
  in
  feed bounds;
  List.rev !items

let oks items =
  List.filter_map (function `Ok v -> Some v | _ -> None) items

(* ---- properties -------------------------------------------------------- *)

let request_bytes_reference =
  QCheck.Test.make ~name:"write_request = the string_of_int reference"
    ~count:1000 arb_request (fun r ->
      let b = Buffer.create 64 in
      Wire.write_request b r;
      String.equal (Buffer.contents b) (reference_request r))

(* Replies appended to a writer that starts small and already holds a
   prefix, so most frames grow it mid-stream: each frame's sized
   reservation must cover exactly the bytes the reference writes. *)
let response_bytes_reference =
  QCheck.Test.make ~name:"write_response_obuf = the Printf reference"
    ~count:1000
    QCheck.(pair (list_of_size Gen.(1 -- 4) arb_response) small_nat)
    (fun (rs, pad) ->
      let ob = Wire.Obuf.create ~initial:1 () in
      let prefix = String.make (pad mod 40) 'x' in
      Wire.Obuf.add_string ob prefix;
      List.iter (Wire.write_response_obuf ob) rs;
      String.equal (Wire.Obuf.contents ob)
        (prefix ^ String.concat "" (List.map reference_response rs)))

let request_roundtrip =
  QCheck.Test.make ~name:"request round-trips at any chunking" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 5) arb_request)
        (list_of_size Gen.(0 -- 8) small_nat))
    (fun (reqs, cuts) ->
      let s = encode_requests reqs in
      let items =
        decode_chunked Wire.Decoder.next_request
          (List.map (fun c -> c mod max 1 (String.length s)) cuts)
          s
      in
      oks items = reqs && List.length items = List.length reqs)

let response_roundtrip =
  QCheck.Test.make ~name:"response round-trips at any chunking" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 5) arb_response)
        (list_of_size Gen.(0 -- 8) small_nat))
    (fun (resps, cuts) ->
      let s = encode_responses resps in
      let items =
        decode_chunked Wire.Decoder.next_response
          (List.map (fun c -> c mod max 1 (String.length s)) cuts)
          s
      in
      oks items = resps && List.length items = List.length resps)

(* Request bodies assembled from a pool of fields: mostly an op with
   arguments of its own shape, where a key may be any form the
   in-place integer reader must hand to [int_of_string_opt] or refuse,
   and otherwise any op name, known or not, with any fields.  A hint
   may lead, known or not, a few bodies declare one field too many or
   too few, and a few write their lengths zero-padded to the 15 digits
   a length may have, or to 16. *)
let gen_field_body =
  let open QCheck.Gen in
  let key =
    oneofl
      [ "0"; "7"; "-7"; "007"; "-0"; "0x10"; "-0x10"; "+5"; "1_000"; "0b101";
        "0o17"; "-"; ""; "_"; " 5"; "5 "; "1e3"; "999999999999999999";
        "-999999999999999999"; "1000000000000000000"; "9999999999999999999";
        "-9999999999999999999"; "9300000000000000000"; "00000000000000000001";
        "12345678901234567890"; string_of_int max_int; string_of_int min_int;
        "4611686018427387904"; "-4611686018427387905" ]
  in
  let name = oneofl [ "m"; "a\nb"; ""; "~elastic"; "GET" ] in
  let arg = function
    | `Key -> key
    | `Opt -> frequency [ (1, return "_"); (3, key) ]
    | `Kind -> oneofl [ "map"; "set"; "queue"; "list"; "Map"; "" ]
    | `Name -> name
    | `Value -> frequency [ (3, gen_blob); (1, key) ]
  in
  let shapes =
    [ ("PING", []); ("NEW", [ `Kind; `Name ]); ("GET", [ `Name; `Key ]);
      ("PUT", [ `Name; `Key; `Value ]); ("DEL", [ `Name; `Key ]);
      ("CONTAINS", [ `Name; `Key ]); ("ADD", [ `Name; `Key ]);
      ("REMOVE", [ `Name; `Key ]); ("SIZE", [ `Name ]);
      ("SNAPSHOT-ITER", [ `Name ]); ("ENQ", [ `Name; `Value ]);
      ("DEQ", [ `Name ]); ("BLPOP", [ `Name; `Key ]); ("BTAKE", [ `Name; `Key ]);
      ("WATCH", [ `Name ]); ("UNWATCH", [ `Name ]); ("MULTI", []);
      ("MULTI-END", []); ("INFO", []); ("BGSAVE", []); ("LASTSAVE", []);
      ("DEBUG-ABORT", [ `Opt; `Opt ]) ]
  in
  let shaped =
    oneofl shapes >>= fun (op, kinds) ->
    map (fun args -> op :: args) (flatten_l (List.map arg kinds))
  in
  let any_op =
    oneof
      [ map fst (oneofl shapes);
        oneofl [ "get"; "GETX"; "GE"; "PINGS"; ""; "~classic"; "MULTI-" ] ]
  in
  let loose =
    map2 (fun op args -> op :: args) any_op
      (list_size (0 -- 4) (oneof [ key; name; gen_blob ]))
  in
  let hint =
    oneofl [ "~classic"; "~elastic"; "~snapshot"; "~"; "~bogus"; "~Classic" ]
  in
  let fields =
    map2
      (fun h fields -> match h with None -> fields | Some h -> h :: fields)
      (opt hint)
      (frequency [ (3, shaped); (1, loose) ])
  in
  map3
    (fun fields skew pad ->
      let b = Buffer.create 64 in
      Printf.bprintf b "*%0*d\n" pad (List.length fields + skew);
      List.iter
        (fun f -> Printf.bprintf b "$%0*d\n%s\n" pad (String.length f) f)
        fields;
      Buffer.contents b)
    fields
    (frequency [ (12, return 0); (1, return 1); (1, return (-1)) ])
    (frequency [ (12, return 0); (1, return 15); (1, return 16) ])

(* A body with its request if the reference accepts it. *)
let reference_of body =
  match reference_parse body with r -> Some r | exception Reference_bad -> None

let framed body = Printf.sprintf "#%d\n%s" (String.length body) body

let decode_body body =
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed_string dec (framed body);
  Wire.Decoder.next_request dec

(* The replay parser: the frame lies inside a larger buffer, between
   bytes that are no frame. *)
let iter_body body =
  let frame = framed body in
  let got = ref [] in
  match
    Wire.iter_requests
      (fun r -> got := r :: !got)
      (Bytes.of_string ("$~" ^ frame ^ "*#"))
      2 (String.length frame)
  with
  | `Ok -> ( match !got with [ r ] -> `Ok r | _ -> `Await)
  | `Bad m -> `Bad m
  | `Partial -> `Await

let agrees decode body =
  match (decode body, reference_of body) with
  | `Ok r, Some r' -> r = r'
  | `Bad _, None -> true
  | _ -> false

let agrees_with_reference = agrees decode_body

(* Bodies both built by the encoder and assembled from fields. *)
let arb_body =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      frequency
        [
          ( 1,
            map
              (fun r ->
                let b = Buffer.create 64 in
                Wire.write_request b r;
                let s = Buffer.contents b in
                String.sub s (String.index s '\n' + 1)
                  (String.length s - String.index s '\n' - 1))
              gen_request );
          (2, gen_field_body);
        ])

let parser_matches_reference =
  QCheck.Test.make ~name:"request parser = the field-list reference"
    ~count:2000 arb_body agrees_with_reference

let iter_matches_reference =
  QCheck.Test.make
    ~name:"request parser = the field-list reference, through iter_requests"
    ~count:2000 arb_body (agrees iter_body)

(* The same bodies fed to a decoder in chunks cut at random points,
   behind a PING frame, so the frame's header and fields straddle feeds
   and the buffer is compacted under the parse. *)
let cuts_match_reference =
  QCheck.Test.make
    ~name:"request parser = the field-list reference, fed at random cuts"
    ~count:2000
    QCheck.(pair arb_body (list_of_size Gen.(0 -- 6) small_nat))
    (fun (body, cuts) ->
      let ping = { Wire.hint = None; cmd = Wire.Ping } in
      let s = encode_requests [ ping ] ^ framed body in
      let decode _ =
        match
          decode_chunked Wire.Decoder.next_request
            (List.map (fun c -> c mod String.length s) cuts)
            s
        with
        | [ `Ok r; ((`Ok _ | `Bad _) as item) ] when r = ping -> item
        | _ -> `Await
      in
      agrees decode body)

(* Byte-at-a-time is the worst-case chunking; run it separately so a
   failure names it. *)
let request_roundtrip_bytewise =
  QCheck.Test.make ~name:"request round-trips fed byte by byte" ~count:200
    (QCheck.make gen_request)
    (fun req ->
      let s = encode_requests [ req ] in
      let cuts = List.init (String.length s) (fun i -> i) in
      oks (decode_chunked Wire.Decoder.next_request cuts s) = [ req ])

(* A frame whose *body* is garbage must yield [`Bad] (or, for byte
   soup that happens to parse, [`Ok]) and leave the stream synced: the
   valid frame behind it always decodes. *)
let bad_body_no_desync =
  QCheck.Test.make ~name:"malformed body never desyncs the stream" ~count:500
    QCheck.(pair (string_gen_of_size Gen.(0 -- 40) Gen.(map Char.chr (0 -- 255))) (QCheck.make gen_request))
    (fun (garbage, req) ->
      let b = Buffer.create 64 in
      Buffer.add_string b (Printf.sprintf "#%d\n" (String.length garbage));
      Buffer.add_string b garbage;
      Wire.write_request b req;
      let items =
        decode_chunked Wire.Decoder.next_request [] (Buffer.contents b)
      in
      match items with
      | [ `Bad _; `Ok r ] -> r = req
      | [ `Ok _; `Ok r ] -> r = req (* garbage parsed; still synced *)
      | _ -> false)

(* No byte soup may raise or loop: every prefix of random bytes must
   decode to a finite item list ending in Await or Corrupt. *)
let fuzz_total =
  QCheck.Test.make ~name:"decoder is total on random bytes" ~count:1000
    QCheck.(string_gen_of_size Gen.(0 -- 200) Gen.(map Char.chr (0 -- 255)))
    (fun s ->
      let items = decode_chunked Wire.Decoder.next_request [ 7; 23 ] s in
      (* at most one Corrupt, and only as the last item *)
      let rec check = function
        | [] -> true
        | `Corrupt _ :: rest -> rest = []
        | _ :: rest -> check rest
      in
      check items)

(* ---- unit tests -------------------------------------------------------- *)

let items_pp = function
  | `Ok _ -> "Ok"
  | `Bad _ -> "Bad"
  | `Await -> "Await"
  | `Corrupt _ -> "Corrupt"

let shape dec =
  match Wire.Decoder.next_request dec with r -> items_pp r

let test_corrupt_header_latches () =
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed_string dec "XYZ";
  Alcotest.(check string) "corrupt" "Corrupt" (shape dec);
  (* a perfectly valid frame afterwards cannot revive the stream *)
  let b = Buffer.create 32 in
  Wire.write_request b { Wire.hint = None; cmd = Wire.Ping };
  Wire.Decoder.feed_string dec (Buffer.contents b);
  Alcotest.(check string) "still corrupt" "Corrupt" (shape dec)

let test_oversized_frame_is_corrupt () =
  let dec = Wire.Decoder.create ~max_frame:64 () in
  Wire.Decoder.feed_string dec "#100000\n";
  Alcotest.(check string) "corrupt" "Corrupt" (shape dec)

let test_header_without_length () =
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed_string dec "#\n";
  Alcotest.(check string) "corrupt" "Corrupt" (shape dec)

let test_partial_header_awaits () =
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed_string dec "#12";
  Alcotest.(check string) "await" "Await" (shape dec)

let test_bad_arity_is_bad_not_corrupt () =
  let dec = Wire.Decoder.create () in
  (* well-framed, parses as fields, but GET wants two arguments *)
  let body = "*2\n$3\nGET\n$1\nm\n" in
  Wire.Decoder.feed_string dec (Printf.sprintf "#%d\n%s" (String.length body) body);
  Alcotest.(check string) "bad" "Bad" (shape dec);
  Alcotest.(check string) "then empty" "Await" (shape dec)

let test_trailing_bytes_rejected () =
  let dec = Wire.Decoder.create () in
  let body = "*1\n$4\nPING\nextra" in
  Wire.Decoder.feed_string dec (Printf.sprintf "#%d\n%s" (String.length body) body);
  Alcotest.(check string) "bad" "Bad" (shape dec)

let test_newline_in_simple_rejected () =
  Alcotest.check_raises "newline"
    (Invalid_argument "Wire.write_response_obuf: newline in simple string")
    (fun () ->
      Wire.write_response_obuf (Wire.Obuf.create ()) (Wire.Simple "a\nb"))

(* The reply grammar byte for byte: the round-trip properties only hold
   the encoder to the decoder, so a change to both would pass them. *)
let test_reply_goldens () =
  List.iter
    (fun (r, bytes) ->
      let ob = Wire.Obuf.create () in
      Wire.write_response_obuf ob r;
      Alcotest.(check string) (String.escaped bytes) bytes (Wire.Obuf.contents ob))
    [
      (Wire.Simple "OK", "#4\n+OK\n");
      (Wire.Int (-42), "#5\n:-42\n");
      (Wire.Int min_int, "#22\n:-4611686018427387904\n");
      (Wire.Int max_int, "#21\n:4611686018427387903\n");
      (Wire.Bulk "a\nb", "#7\n$3\na\nb\n");
      (Wire.Nil, "#2\n_\n");
      (Wire.Error (Wire.Busy, "full"), "#11\n-BUSY full\n");
      (Wire.Array [ Wire.Int 1; Wire.Nil ], "#8\n*2\n:1\n_\n");
      (Wire.Push "m", "#3\n>m\n");
    ]

(* The request grammar byte for byte, one frame per command.  These
   bytes are the payload format of the op log and of checkpoints too,
   so a change here is a change to every log on disk; [write_cmds],
   which writes those payloads, must give the hint-less frames the
   same bytes. *)
let test_request_goldens () =
  let cases =
    [
      (None, Wire.Ping,
        "#11\n*1\n$4\nPING\n");
      (Some Sem.Classic, Wire.New (Wire.Kmap, "m"),
        "#34\n*4\n$8\n~classic\n$3\nNEW\n$3\nmap\n$1\nm\n");
      (None, Wire.New (Wire.Kqueue, ""),
        "#23\n*3\n$3\nNEW\n$5\nqueue\n$0\n\n");
      (Some Sem.Elastic, Wire.Get ("m", 0),
        "#32\n*4\n$8\n~elastic\n$3\nGET\n$1\nm\n$1\n0\n");
      (None, Wire.Put ("m", -1, ""),
        "#25\n*4\n$3\nPUT\n$1\nm\n$2\n-1\n$0\n\n");
      (Some Sem.Classic, Wire.Put ("m", max_int, "a\nb\000\255"),
        "#60\n*5\n$8\n~classic\n$3\nPUT\n$1\nm\n$19\n4611686018427387903\n$5\na\nb\000\255\n");
      (None, Wire.Del ("m", min_int),
        "#40\n*3\n$3\nDEL\n$1\nm\n$20\n-4611686018427387904\n");
      (None, Wire.Contains ("s", 42),
        "#26\n*3\n$8\nCONTAINS\n$1\ns\n$2\n42\n");
      (None, Wire.Add ("s", -7),
        "#21\n*3\n$3\nADD\n$1\ns\n$2\n-7\n");
      (None, Wire.Remove ("s", 1234567890),
        "#33\n*3\n$6\nREMOVE\n$1\ns\n$10\n1234567890\n");
      (Some Sem.Snapshot, Wire.Size "m",
        "#29\n*3\n$9\n~snapshot\n$4\nSIZE\n$1\nm\n");
      (None, Wire.Snapshot_iter "m",
        "#26\n*2\n$13\nSNAPSHOT-ITER\n$1\nm\n");
      (None, Wire.Enq ("q", "$1\n#"),
        "#23\n*3\n$3\nENQ\n$1\nq\n$4\n$1\n#\n");
      (None, Wire.Deq "q",
        "#15\n*2\n$3\nDEQ\n$1\nq\n");
      (None, Wire.Blpop ("q", 0),
        "#22\n*3\n$5\nBLPOP\n$1\nq\n$1\n0\n");
      (None, Wire.Btake ("q", 250),
        "#24\n*3\n$5\nBTAKE\n$1\nq\n$3\n250\n");
      (None, Wire.Watch "m",
        "#17\n*2\n$5\nWATCH\n$1\nm\n");
      (None, Wire.Unwatch "m",
        "#19\n*2\n$7\nUNWATCH\n$1\nm\n");
      (None, Wire.Multi,
        "#12\n*1\n$5\nMULTI\n");
      (None, Wire.Multi_end,
        "#16\n*1\n$9\nMULTI-END\n");
      (None, Wire.Info,
        "#11\n*1\n$4\nINFO\n");
      (None, Wire.Bgsave,
        "#13\n*1\n$6\nBGSAVE\n");
      (None, Wire.Lastsave,
        "#15\n*1\n$8\nLASTSAVE\n");
      (None, Wire.Debug_abort { budget = None; deadline_us = None },
        "#29\n*3\n$11\nDEBUG-ABORT\n$1\n_\n$1\n_\n");
      (Some Sem.Elastic,
        Wire.Debug_abort { budget = Some 3; deadline_us = Some 1500 },
        "#44\n*4\n$8\n~elastic\n$11\nDEBUG-ABORT\n$1\n3\n$4\n1500\n");
    ]
  in
  List.iter
    (fun (hint, cmd, bytes) ->
      let b = Buffer.create 64 in
      Wire.write_request b { Wire.hint; cmd };
      Alcotest.(check string) (String.escaped bytes) bytes (Buffer.contents b);
      if hint = None then
        Alcotest.(check string) ("write_cmds " ^ String.escaped bytes) bytes
          (encode_cmds [ cmd ]))
    cases;
  let plain = List.filter (fun (hint, _, _) -> hint = None) cases in
  Alcotest.(check string) "write_cmds concatenates its frames"
    (String.concat "" (List.map (fun (_, _, bytes) -> bytes) plain))
    (encode_cmds (List.map (fun (_, cmd, _) -> cmd) plain))

(* Keys that are not plain decimal still parse as OCaml reads them,
   and a key that is no integer is a [`Bad] for its frame alone. *)
let test_key_forms () =
  List.iter
    (fun (key, want) ->
      let body =
        Printf.sprintf "*3\n$3\nGET\n$1\nm\n$%d\n%s\n" (String.length key) key
      in
      match (decode_body body, want) with
      | `Ok { Wire.hint = None; cmd = Wire.Get ("m", k) }, Some want ->
          Alcotest.(check int) ("GET m " ^ key) want k
      | `Bad _, None -> ()
      | r, _ -> Alcotest.failf "GET m %S decoded as %s" key (items_pp r))
    [
      ("0x10", Some 16); ("+5", Some 5); ("1_000", Some 1000); ("-0", Some 0);
      ("007", Some 7); ("-999999999999999999", Some (-999999999999999999));
      (string_of_int min_int, Some min_int);
      (string_of_int max_int, Some max_int);
      ("00000000000000000001", Some 1); ("4611686018427387904", None);
      ("9999999999999999999", None); ("-", None); ("", None); ("5 ", None);
    ]

(* A frame costs only what its request holds: the [`Ok] (3 words), the
   request record (3), its command (3 for a GET, 4 for a PUT) and the
   strings copied out of the frame (2 words for a 5-byte name, 3 for a
   10-byte value).  Frames already buffered are decoded, so the words
   are the parse's alone. *)
let test_decode_allocation () =
  let words what req budget =
    let n = 1000 in
    let dec = Wire.Decoder.create () in
    Wire.Decoder.feed_string dec (encode_requests (List.init n (fun _ -> req)));
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      match Wire.Decoder.next_request dec with
      | `Ok r -> if r <> req then Alcotest.failf "%s decoded wrong" what
      | _ -> Alcotest.failf "%s did not decode" what
    done;
    let w = (Gc.minor_words () -. w0) /. float_of_int n in
    if w > budget then
      Alcotest.failf "%s allocates %.1f words per frame (budget %.0f)" what w
        budget
  in
  words "GET ~elastic"
    { Wire.hint = Some Sem.Elastic; cmd = Wire.Get ("bench", 1234) }
    11.;
  words "PUT ~classic of a 10-byte value"
    { Wire.hint = Some Sem.Classic; cmd = Wire.Put ("bench", 1234, "0123456789") }
    15.

(* The load generators' reply classes, read from a frame's first bytes
   without parsing its body. *)
let test_brief_reply_classes () =
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed_string dec
    (encode_responses
       [ Wire.Bulk "x"; Wire.Nil; Wire.Error (Wire.Busy, "full");
         Wire.Error (Wire.Proto, "BUSY"); Wire.Array [ Wire.Nil ] ]
    ^ "#4\n-BUS#0\n");
  let brief () =
    match Wire.Decoder.next_response_brief dec with
    | `Ok `Value -> "Value"
    | `Ok `Nil -> "Nil"
    | `Ok `Busy -> "Busy"
    | `Ok `Err -> "Err"
    | item -> items_pp item
  in
  Alcotest.(check (list string)) "classes"
    [ "Value"; "Nil"; "Busy"; "Err"; "Value"; "Err"; "Bad"; "Await" ]
    (List.init 8 (fun _ -> brief ()))

let test_nested_response_depth_bounded () =
  let dec = Wire.Decoder.create () in
  (* 12 nested singleton arrays around an int: deeper than the bound *)
  let b = Buffer.create 64 in
  for _ = 1 to 12 do
    Buffer.add_string b "*1\n"
  done;
  Buffer.add_string b ":7\n";
  let body = Buffer.contents b in
  Wire.Decoder.feed_string dec (Printf.sprintf "#%d\n%s" (String.length body) body);
  (match Wire.Decoder.next_response dec with
  | `Bad _ -> ()
  | r -> Alcotest.failf "expected Bad, got %s" (items_pp r))

let suite =
  ( "wire",
    [
      prop request_bytes_reference;
      prop response_bytes_reference;
      prop parser_matches_reference;
      prop iter_matches_reference;
      prop cuts_match_reference;
      prop request_roundtrip;
      prop response_roundtrip;
      prop request_roundtrip_bytewise;
      prop bad_body_no_desync;
      prop fuzz_total;
      Alcotest.test_case "corrupt header latches" `Quick
        test_corrupt_header_latches;
      Alcotest.test_case "oversized frame is corrupt" `Quick
        test_oversized_frame_is_corrupt;
      Alcotest.test_case "header without length" `Quick
        test_header_without_length;
      Alcotest.test_case "partial header awaits" `Quick
        test_partial_header_awaits;
      Alcotest.test_case "bad arity is Bad, not Corrupt" `Quick
        test_bad_arity_is_bad_not_corrupt;
      Alcotest.test_case "trailing bytes rejected" `Quick
        test_trailing_bytes_rejected;
      Alcotest.test_case "newline in simple rejected" `Quick
        test_newline_in_simple_rejected;
      Alcotest.test_case "request bytes match the grammar" `Quick
        test_request_goldens;
      Alcotest.test_case "reply bytes match the grammar" `Quick
        test_reply_goldens;
      Alcotest.test_case "response nesting bounded" `Quick
        test_nested_response_depth_bounded;
      Alcotest.test_case "key forms parse as OCaml reads them" `Quick
        test_key_forms;
      Alcotest.test_case "a decoded frame allocates what its request holds"
        `Quick test_decode_allocation;
      Alcotest.test_case "brief reply classes" `Quick test_brief_reply_classes;
    ] )
