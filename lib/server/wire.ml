(* Pure codec for the polytmd wire protocol.  See wire.mli for the
   grammar.  No I/O, no sockets: a byte writer out, byte slices in. *)

type kind = Kmap | Kset | Kqueue

let kind_to_string = function Kmap -> "map" | Kset -> "set" | Kqueue -> "queue"

let kind_of_string = function
  | "map" -> Some Kmap
  | "set" -> Some Kset
  | "queue" -> Some Kqueue
  | _ -> None

type cmd =
  | Ping
  | New of kind * string
  | Get of string * int
  | Put of string * int * string
  | Del of string * int
  | Contains of string * int
  | Add of string * int
  | Remove of string * int
  | Size of string
  | Snapshot_iter of string
  | Enq of string * string
  | Deq of string
  | Blpop of string * int
  | Btake of string * int
  | Watch of string
  | Unwatch of string
  | Multi
  | Multi_end
  | Info
  | Bgsave
  | Lastsave
  | Debug_abort of { budget : int option; deadline_us : int option }

type request = { hint : Polytm.Semantics.t option; cmd : cmd }

let cmd_name = function
  | Ping -> "PING"
  | New _ -> "NEW"
  | Get _ -> "GET"
  | Put _ -> "PUT"
  | Del _ -> "DEL"
  | Contains _ -> "CONTAINS"
  | Add _ -> "ADD"
  | Remove _ -> "REMOVE"
  | Size _ -> "SIZE"
  | Snapshot_iter _ -> "SNAPSHOT-ITER"
  | Enq _ -> "ENQ"
  | Deq _ -> "DEQ"
  | Blpop _ -> "BLPOP"
  | Btake _ -> "BTAKE"
  | Watch _ -> "WATCH"
  | Unwatch _ -> "UNWATCH"
  | Multi -> "MULTI"
  | Multi_end -> "MULTI-END"
  | Info -> "INFO"
  | Bgsave -> "BGSAVE"
  | Lastsave -> "LASTSAVE"
  | Debug_abort _ -> "DEBUG-ABORT"

(* Commands the durability layer must log: everything that can change
   a structure's contents.  [Deq]/[Blpop]/[Btake] are conditional
   mutations — a pop of an empty queue commits read-only and the
   commit hook never fires, so arming them is harmless. *)
let is_mutation = function
  | Put _ | Del _ | Add _ | Remove _ | Enq _ | Deq _ | Blpop _ | Btake _ ->
      true
  | Ping | New _ | Get _ | Contains _ | Size _ | Snapshot_iter _ | Watch _
  | Unwatch _ | Multi | Multi_end | Info | Bgsave | Lastsave
  | Debug_abort _ ->
      false

type err_code =
  | Proto
  | Busy
  | Deadline
  | Exhausted
  | No_struct
  | Bad_op
  | Sem_violation

let err_code_to_string = function
  | Proto -> "ERR"
  | Busy -> "BUSY"
  | Deadline -> "DEADLINE"
  | Exhausted -> "EXHAUSTED"
  | No_struct -> "NOSTRUCT"
  | Bad_op -> "BADOP"
  | Sem_violation -> "SEM"

let err_code_of_string = function
  | "ERR" -> Some Proto
  | "BUSY" -> Some Busy
  | "DEADLINE" -> Some Deadline
  | "EXHAUSTED" -> Some Exhausted
  | "NOSTRUCT" -> Some No_struct
  | "BADOP" -> Some Bad_op
  | "SEM" -> Some Sem_violation
  | _ -> None

type response =
  | Simple of string
  | Int of int
  | Bulk of string
  | Nil
  | Error of err_code * string
  | Array of response list
  | Push of string

let ok = Simple "OK"
let pong = Simple "PONG"
let queued = Simple "QUEUED"

module Obuf = Polytm_util.Obuf

(* ---- encoding ---------------------------------------------------------- *)

(* Every frame is sized first, reserved once, and written with
   unchecked stores: no per-byte capacity check, no field list, no
   [string_of_int] string.  The [put_*] writers below write inside such
   a reservation only: a byte, a string, or an int below 100 (most of a
   frame's lengths) is stored here, where it inlines, and any other
   int by the writer.  [width] is the decimal width of an int, sign
   included. *)

let width n =
  if n >= 0 && n < 100 then if n < 10 then 1 else 2 else Obuf.int_width n

let put_char (ob : Obuf.t) c =
  Bytes.unsafe_set ob.buf ob.len c;
  ob.len <- ob.len + 1

let put_int ob n =
  if n >= 0 && n < 100 then
    if n < 10 then put_char ob (Char.unsafe_chr (n + 48))
    else begin
      put_char ob (Char.unsafe_chr ((n / 10) + 48));
      put_char ob (Char.unsafe_chr ((n mod 10) + 48))
    end
  else Obuf.unsafe_add_int ob n

let put_string (ob : Obuf.t) s =
  let n = String.length s in
  Bytes.unsafe_blit_string s 0 ob.buf ob.len n;
  ob.len <- ob.len + n

let frame_len body = 1 + width body + 1 + body

let sem_field = function
  | Polytm.Semantics.Classic -> "~classic"
  | Polytm.Semantics.Elastic -> "~elastic"
  | Polytm.Semantics.Snapshot -> "~snapshot"

let bulk_len s = 1 + width (String.length s) + 1 + String.length s + 1

let int_bulk_len n =
  let w = width n in
  1 + width w + 1 + w + 1

let opt_int_bulk_len = function None -> bulk_len "_" | Some n -> int_bulk_len n

(* [#n\n], [*n\n] and [:n\n]. *)
let put_line ob c n =
  put_char ob c;
  put_int ob n;
  put_char ob '\n'

let put_bulk ob s =
  put_line ob '$' (String.length s);
  put_string ob s;
  put_char ob '\n'

let put_int_bulk ob n =
  put_line ob '$' (width n);
  put_int ob n;
  put_char ob '\n'

let put_opt_int_bulk ob = function
  | None -> put_bulk ob "_"
  | Some n -> put_int_bulk ob n

(* A request's fields after its name: how many, their encoded length,
   and their bytes. *)
let arg_count = function
  | Ping | Multi | Multi_end | Info | Bgsave | Lastsave -> 0
  | Size _ | Snapshot_iter _ | Deq _ | Watch _ | Unwatch _ -> 1
  | New _ | Enq _ | Get _ | Del _ | Contains _ | Add _ | Remove _ | Blpop _
  | Btake _ | Debug_abort _ ->
      2
  | Put _ -> 3

let args_len = function
  | Ping | Multi | Multi_end | Info | Bgsave | Lastsave -> 0
  | Size s | Snapshot_iter s | Deq s | Watch s | Unwatch s -> bulk_len s
  | New (k, s) -> bulk_len (kind_to_string k) + bulk_len s
  | Enq (s, v) -> bulk_len s + bulk_len v
  | Get (s, n) | Del (s, n) | Contains (s, n) | Add (s, n) | Remove (s, n)
  | Blpop (s, n) | Btake (s, n) ->
      bulk_len s + int_bulk_len n
  | Put (s, n, v) -> bulk_len s + int_bulk_len n + bulk_len v
  | Debug_abort { budget; deadline_us } ->
      opt_int_bulk_len budget + opt_int_bulk_len deadline_us

let put_args ob = function
  | Ping | Multi | Multi_end | Info | Bgsave | Lastsave -> ()
  | Size s | Snapshot_iter s | Deq s | Watch s | Unwatch s -> put_bulk ob s
  | New (k, s) ->
      put_bulk ob (kind_to_string k);
      put_bulk ob s
  | Enq (s, v) ->
      put_bulk ob s;
      put_bulk ob v
  | Get (s, n) | Del (s, n) | Contains (s, n) | Add (s, n) | Remove (s, n)
  | Blpop (s, n) | Btake (s, n) ->
      put_bulk ob s;
      put_int_bulk ob n
  | Put (s, n, v) ->
      put_bulk ob s;
      put_int_bulk ob n;
      put_bulk ob v
  | Debug_abort { budget; deadline_us } ->
      put_opt_int_bulk ob budget;
      put_opt_int_bulk ob deadline_us

let field_count hint cmd =
  1 + arg_count cmd + match hint with None -> 0 | Some _ -> 1

let request_body_len hint cmd =
  let n = field_count hint cmd in
  1 + width n + 1
  + (match hint with None -> 0 | Some s -> bulk_len (sem_field s))
  + bulk_len (cmd_name cmd)
  + args_len cmd

(* One frame: [#body_len\n*n\n], the hint, the name, the arguments. *)
let add_request ob hint cmd =
  let body = request_body_len hint cmd in
  Obuf.reserve ob (frame_len body);
  put_line ob '#' body;
  put_line ob '*' (field_count hint cmd);
  (match hint with None -> () | Some s -> put_bulk ob (sem_field s));
  put_bulk ob (cmd_name cmd);
  put_args ob cmd

let write_request buf r =
  let size = frame_len (request_body_len r.hint r.cmd) in
  let ob = Obuf.create ~initial:size () in
  add_request ob r.hint r.cmd;
  let b, off, len = Obuf.peek ob in
  Buffer.add_subbytes buf b off len

let rec write_cmds ob = function
  | [] -> ()
  | cmd :: rest ->
      add_request ob None cmd;
      write_cmds ob rest

(* ---- reply encoding ------------------------------------------------------ *)

(* Replies are sized, then written straight into an {!Obuf}: the
   steady-state reply path allocates nothing (buffer growth amortizes
   to zero on a reused session buffer). *)

let no_newline what s =
  if String.contains s '\n' then
    invalid_arg (Printf.sprintf "Wire.write_response_obuf: newline in %s" what)

(* Body length, checking the line-delimited payloads before a byte is
   written. *)
let rec body_len = function
  | Simple s ->
      no_newline "simple string" s;
      1 + String.length s + 1
  | Int n -> 1 + width n + 1
  | Bulk s -> bulk_len s
  | Nil -> 2
  | Error (c, m) ->
      no_newline "error message" m;
      1 + String.length (err_code_to_string c) + 1 + String.length m + 1
  | Array l ->
      let rec items acc = function
        | [] -> acc
        | r :: rest -> items (acc + body_len r) rest
      in
      items (1 + width (List.length l) + 1) l
  | Push s ->
      no_newline "push name" s;
      1 + String.length s + 1

let rec put_body ob = function
  | Simple s ->
      put_char ob '+';
      put_string ob s;
      put_char ob '\n'
  | Int n -> put_line ob ':' n
  | Bulk s -> put_bulk ob s
  | Nil ->
      put_char ob '_';
      put_char ob '\n'
  | Error (c, m) ->
      put_char ob '-';
      put_string ob (err_code_to_string c);
      put_char ob ' ';
      put_string ob m;
      put_char ob '\n'
  | Array l ->
      put_line ob '*' (List.length l);
      let rec go = function
        | [] -> ()
        | r :: rest ->
            put_body ob r;
            go rest
      in
      go l
  | Push s ->
      put_char ob '>';
      put_string ob s;
      put_char ob '\n'

let write_response_obuf ob r =
  let body = body_len r in
  Obuf.reserve ob (frame_len body);
  put_line ob '#' body;
  put_body ob r

let obuf_add_bulk ob s =
  Obuf.reserve ob (bulk_len s);
  put_bulk ob s

let obuf_add_int_item ob n =
  Obuf.reserve ob (width n + 2);
  put_line ob ':' n

let obuf_add_array_header ob n =
  Obuf.reserve ob (width n + 2);
  put_line ob '*' n

(* Frame a pre-encoded array body: [items] holds [count] response
   bodies already encoded (the snapshot fast path streams entries into
   it during its fold, skipping the intermediate response tree).  The
   emitted bytes equal [write_response_obuf ob (Array [...])]. *)
let write_framed_array ob ~count ~(items : Obuf.t) =
  let body = 1 + width count + 1 + Obuf.pending items in
  Obuf.reserve ob (frame_len body);
  put_line ob '#' body;
  put_line ob '*' count;
  Obuf.add_obuf ob items

(* ---- body parsing ------------------------------------------------------ *)

(* Body parsers work on a complete frame body; any failure raises
   [Bad], which the decoder turns into a [`Bad] item.  Because the
   frame boundary came from the outer length prefix, a bad body never
   costs more than its own frame. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* The cursor walks a frame body {e in place}: [body] is (a view of)
   the decoder's internal buffer, [base]/[limit] bound this frame.
   Only payloads that escape the parser are copied out with
   [String.sub]; the frame body itself is never copied into a
   per-frame string. *)
type cursor = { body : string; base : int; mutable pos : int; limit : int }

let peek c = if c.pos >= c.limit then bad "truncated body" else c.body.[c.pos]

let advance c = c.pos <- c.pos + 1

let expect c ch =
  let got = peek c in
  if got <> ch then bad "expected %C, got %C at byte %d" ch got c.pos;
  advance c

(* Unsigned decimal int followed by '\n'; bounded to 15 digits so no
   overflow games are possible.  Every frame header and field length
   is one, so the digits are read unchecked, [i] below [c.limit]. *)
let rec nat c i acc =
  if i >= c.limit then bad "truncated body";
  match String.unsafe_get c.body i with
  | '0' .. '9' as d ->
      if i - c.pos >= 15 then bad "integer too long";
      nat c (i + 1) ((acc * 10) + Char.code d - 48)
  | '\n' when i > c.pos ->
      c.pos <- i + 1;
      acc
  | ch -> bad "expected digit, got %C at byte %d" ch i

let parse_nat c = nat c c.pos 0

(* Signed decimal int line (for ':' integer responses). *)
let parse_int_line c =
  let neg = peek c = '-' in
  if neg then advance c;
  let start = c.pos in
  let n = ref 0 in
  while (match peek c with '0' .. '9' -> true | _ -> false) do
    n := (!n * 10) + (Char.code c.body.[c.pos] - Char.code '0');
    advance c;
    (* string_of_int of a 63-bit int is at most 19 digits *)
    if c.pos - start > 19 then bad "integer too long"
  done;
  if c.pos = start then bad "expected digit at byte %d" c.pos;
  expect c '\n';
  if neg then - !n else !n

let parse_line c =
  (* Bytes up to the next '\n' (consumed). *)
  match String.index_from_opt c.body c.pos '\n' with
  | Some i when i < c.limit ->
      let s = String.sub c.body c.pos (i - c.pos) in
      c.pos <- i + 1;
      s
  | Some _ | None -> bad "unterminated line"

(* One bulk field: [field] checks its framing and moves the cursor
   past it, returning its length [len]; its bytes are the [len] bytes
   that end one before [c.pos]. *)
let field c =
  expect c '$';
  let len = parse_nat c in
  if c.pos + len + 1 > c.limit then bad "bulk overruns frame";
  c.pos <- c.pos + len;
  expect c '\n';
  len

let copy c len = String.sub c.body (c.pos - len - 1) len

let str c =
  let len = field c in
  copy c len

let at_end c = c.pos = c.limit

(* ---- requests, parsed in place ----------------------------------------

   A request is parsed where its fields lie in the frame.  The hint,
   the op name, a structure kind and a key of plain decimal digits are
   matched or read from the field's bytes; only a structure name or a
   value is copied out ({!str}), so nothing the parser returns aliases
   the decoder's buffer.  Every helper is a top-level function: the
   parser allocates no closure. *)

(* Unchecked reads: [is] compares only inside a field that [field]
   bounded within the frame. *)
let rec same_from s off lit i =
  i = String.length lit
  || String.unsafe_get s (off + i) = String.unsafe_get lit i
     && same_from s off lit (i + 1)

(* Whether the field of [len] bytes just passed is [lit]. *)
let is c len lit =
  len = String.length lit && same_from c.body (c.pos - len - 1) lit 0

(* The value of the decimal digits of [s] from [i] to [stop], or -1 at
   a non-digit. *)
let rec decimal s i stop acc =
  if i = stop then acc
  else
    match String.unsafe_get s i with
    | '0' .. '9' as d -> decimal s (i + 1) stop ((acc * 10) + Char.code d - 48)
    | _ -> -1

(* An integer field of [len] bytes just passed.  An optional '-' and at
   most 18 digits cannot overflow, so they are read from the bytes; any
   other form goes through [int_of_string_opt], so "0x10", "+5" and
   "1_000" parse as OCaml reads them. *)
let int_of_field c len what =
  let start = c.pos - len - 1 in
  let neg = len > 0 && String.unsafe_get c.body start = '-' in
  let first = if neg then start + 1 else start in
  let width = start + len - first in
  let v =
    if width >= 1 && width <= 18 then decimal c.body first (start + len) 0
    else -1
  in
  if v >= 0 then if neg then -v else v
  else
    let s = copy c len in
    match int_of_string_opt s with
    | Some v -> v
    | None -> bad "%s must be an integer, got %S" what s

(* Argument fields. *)
let num c what =
  let len = field c in
  int_of_field c len what

let opt_num c what =
  let len = field c in
  if is c len "_" then None else Some (int_of_field c len what)

let kind c =
  let len = field c in
  if is c len "map" then Kmap
  else if is c len "set" then Kset
  else if is c len "queue" then Kqueue
  else bad "unknown structure kind %S" (copy c len)

let hint_of c len =
  if is c len "~classic" then Some Polytm.Semantics.Classic
  else if is c len "~elastic" then Some Polytm.Semantics.Elastic
  else if is c len "~snapshot" then Some Polytm.Semantics.Snapshot
  else bad "unknown semantics hint %S" (copy c len)

let unknown c len args =
  bad "unknown op or arity: %S (%d fields)" (copy c len) (args + 1)

(* The command named by the [len]-byte field just passed, whose [args]
   argument fields follow. *)
let command c len args =
  match args with
  | 0 ->
      if is c len "PING" then Ping
      else if is c len "MULTI" then Multi
      else if is c len "MULTI-END" then Multi_end
      else if is c len "INFO" then Info
      else if is c len "BGSAVE" then Bgsave
      else if is c len "LASTSAVE" then Lastsave
      else unknown c len args
  | 1 ->
      if is c len "DEQ" then Deq (str c)
      else if is c len "SIZE" then Size (str c)
      else if is c len "SNAPSHOT-ITER" then Snapshot_iter (str c)
      else if is c len "WATCH" then Watch (str c)
      else if is c len "UNWATCH" then Unwatch (str c)
      else unknown c len args
  | 2 ->
      if is c len "GET" then
        let s = str c in
        Get (s, num c "key")
      else if is c len "DEL" then
        let s = str c in
        Del (s, num c "key")
      else if is c len "CONTAINS" then
        let s = str c in
        Contains (s, num c "key")
      else if is c len "ADD" then
        let s = str c in
        Add (s, num c "key")
      else if is c len "REMOVE" then
        let s = str c in
        Remove (s, num c "key")
      else if is c len "ENQ" then
        let s = str c in
        Enq (s, str c)
      else if is c len "NEW" then
        let k = kind c in
        New (k, str c)
      else if is c len "BLPOP" then
        let s = str c in
        Blpop (s, num c "timeout")
      else if is c len "BTAKE" then
        let s = str c in
        Btake (s, num c "timeout")
      else if is c len "DEBUG-ABORT" then
        let budget = opt_num c "budget" in
        Debug_abort { budget; deadline_us = opt_num c "deadline" }
      else unknown c len args
  | 3 when is c len "PUT" ->
      let s = str c in
      let k = num c "key" in
      Put (s, k, str c)
  | _ -> unknown c len args

(* [*n] then the fields: an optional hint (a first field that starts
   with '~'), the op name, its arguments. *)
let parse_request_body ~off ~len body =
  let c = { body; base = off; pos = off; limit = off + len } in
  expect c '*';
  let n = parse_nat c in
  if n = 0 then bad "empty request array";
  if n > 64 then bad "request array too long (%d)" n;
  let first = field c in
  let hinted = first > 0 && String.unsafe_get body (c.pos - first - 1) = '~' in
  let hint = if hinted then hint_of c first else None in
  let args = if hinted then n - 2 else n - 1 in
  if args < 0 then bad "empty request";
  let name = if hinted then field c else first in
  let cmd = command c name args in
  if not (at_end c) then bad "trailing bytes in frame";
  { hint; cmd }

let max_response_depth = 8

let rec parse_response c depth =
  if depth > max_response_depth then bad "response nested too deeply";
  match peek c with
  | '+' ->
      advance c;
      Simple (parse_line c)
  | ':' ->
      advance c;
      Int (parse_int_line c)
  | '$' -> Bulk (str c)
  | '_' ->
      advance c;
      expect c '\n';
      Nil
  | '-' ->
      advance c;
      let line = parse_line c in
      let code, msg =
        match String.index_opt line ' ' with
        | Some i ->
            ( String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1) )
        | None -> (line, "")
      in
      (match err_code_of_string code with
      | Some c -> Error (c, msg)
      | None -> bad "unknown error code %S" code)
  | '*' ->
      advance c;
      let n = parse_nat c in
      if n > c.limit - c.base then bad "array longer than frame";
      Array (List.init n (fun _ -> parse_response c (depth + 1)))
  | '>' ->
      advance c;
      Push (parse_line c)
  | ch -> bad "unknown response type byte %C" ch

let parse_response_body ~off ~len body =
  let limit = off + len in
  let c = { body; base = off; pos = off; limit } in
  let r = parse_response c 0 in
  if not (at_end c) then bad "trailing bytes in frame";
  r

(* ---- frames ----------------------------------------------------------- *)

(* Longest header: '#' + digits of max_frame + '\n'. *)
let max_header = 2 + 10
let default_max_frame = 8 * 1024 * 1024

(* The header scan every frame reader shares: the frame whose header
   starts at [pos] of [buf], whose bytes end at [stop].  [`Ok (off,
   len)] bounds its body once the whole frame is there, [`Await] asks
   for more bytes, and [`Corrupt] means the framing itself is broken. *)
let frame_at buf pos stop ~max_frame =
  if pos >= stop then `Await
  else if Bytes.get buf pos <> '#' then
    `Corrupt (Printf.sprintf "bad frame header byte %C" (Bytes.get buf pos))
  else begin
    (* Scan the bounded header region for the terminating '\n'. *)
    let limit = min stop (pos + max_header) in
    let i = ref (pos + 1) in
    while
      !i < limit && (match Bytes.get buf !i with '0' .. '9' -> true | _ -> false)
    do
      incr i
    done;
    if !i >= limit then
      if limit = pos + max_header then `Corrupt "frame header too long"
      else `Await
    else if Bytes.get buf !i <> '\n' then
      `Corrupt (Printf.sprintf "bad byte %C in frame header" (Bytes.get buf !i))
    else if !i = pos + 1 then `Corrupt "frame header without length"
    else begin
      (* Digits only, bounded width: accumulate directly. *)
      let body_len = ref 0 in
      for j = pos + 1 to !i - 1 do
        body_len := (!body_len * 10) + (Char.code (Bytes.get buf j) - Char.code '0')
      done;
      let body_len = !body_len in
      if body_len > max_frame then
        `Corrupt (Printf.sprintf "frame of %d bytes exceeds limit" body_len)
      else if stop - (!i + 1) < body_len then `Await
      else `Ok (!i + 1, body_len)
    end
  end

(* The request frames filling [len] bytes of [buf] from [off], each
   parsed where it lies by the live parser and handed to [f] in order.
   [Bytes.unsafe_to_string] is sound for the reason {!Decoder.next_with}
   gives: nothing mutates [buf] during the walk, and the parser copies
   out every byte sequence it returns. *)
let iter_requests f buf off len =
  let stop = off + len in
  let body = Bytes.unsafe_to_string buf in
  let rec go pos =
    match frame_at buf pos stop ~max_frame:default_max_frame with
    | `Await -> if pos = stop then `Ok else `Partial
    | `Corrupt m -> `Bad m
    | `Ok (at, n) -> (
        match parse_request_body ~off:at ~len:n body with
        | req ->
            f req;
            go (at + n)
        | exception Bad m -> `Bad m)
  in
  go off

(* ---- incremental decoder ----------------------------------------------- *)

module Decoder = struct
  type t = {
    mutable buf : Bytes.t;
    mutable pos : int;  (* consumed prefix *)
    mutable len : int;  (* filled prefix *)
    max_frame : int;
    mutable dead : string option;
  }

  let create ?(max_frame = default_max_frame) () =
    { buf = Bytes.create 4096; pos = 0; len = 0; max_frame; dead = None }

  type 'a item =
    [ `Ok of 'a | `Bad of string | `Await | `Corrupt of string ]

  let die t msg =
    t.dead <- Some msg;
    `Corrupt msg

  (* Direct-fill API: [reserve t n] compacts/grows so at least [n]
     writable bytes exist past the filled prefix and returns the
     buffer with the fill offset — a [Unix.read] can land bytes
     straight in the decoder, skipping the intermediate read buffer
     and its [feed] blit.  [commit t n] publishes [n] filled bytes. *)
  let reserve t n =
    if t.len + n > Bytes.length t.buf then begin
      let live = t.len - t.pos in
      let need = live + n in
      let cap = ref (Bytes.length t.buf) in
      while need > !cap do
        cap := !cap * 2
      done;
      let dst = if !cap > Bytes.length t.buf then Bytes.create !cap else t.buf in
      Bytes.blit t.buf t.pos dst 0 live;
      t.buf <- dst;
      t.len <- live;
      t.pos <- 0
    end;
    (t.buf, t.len)

  let commit t n = t.len <- t.len + n
  let buffered t = t.len - t.pos

  let feed t b off n =
    if n < 0 || off < 0 || off + n > Bytes.length b then
      invalid_arg "Wire.Decoder.feed";
    let buf, at = reserve t n in
    Bytes.blit b off buf at n;
    commit t n

  let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)

  (* Scan (and consume) the next complete frame, returning the body's
     bounds inside [t.buf].  The region stays valid only until the
     next [feed]/[reserve] — callers parse immediately. *)
  let next_frame t : (int * int) item =
    match t.dead with
    | Some m -> `Corrupt m
    | None -> (
        match frame_at t.buf t.pos t.len ~max_frame:t.max_frame with
        | `Ok (off, len) as frame ->
            t.pos <- off + len;
            if t.pos = t.len then begin
              t.pos <- 0;
              t.len <- 0
            end;
            frame
        | `Await -> `Await
        | `Corrupt m -> die t m)

  (* Parse a consumed frame in place.  [Bytes.unsafe_to_string] is
     sound here: the buffer is not mutated between the scan and the
     parse, and every byte sequence that escapes the parser is copied
     out with [String.sub]. *)
  let next_with parse t =
    match next_frame t with
    | (`Await | `Corrupt _ | `Bad _) as r -> r
    | `Ok (off, len) -> (
        match parse ~off ~len (Bytes.unsafe_to_string t.buf) with
        | v -> `Ok v
        | exception Bad m -> `Bad m)

  let next_request t = next_with parse_request_body t
  let next_response t = next_with parse_response_body t

  (* Classify the next reply without building the response tree: split
     the error class on the BUSY code (load generators count
     backpressure refusals separately from application errors) and
     surface [Nil] (miss / blocking-op timeout).  The body is skipped —
     a framed snapshot reply of thousands of items costs one
     length-prefixed hop, not a tree of allocations, so the measuring
     client never becomes the bottleneck it is measuring. *)
  let next_response_brief t : [ `Value | `Nil | `Busy | `Err ] item =
    match next_frame t with
    | (`Await | `Corrupt _ | `Bad _) as r -> r
    | `Ok (_, 0) -> `Bad "truncated body"
    | `Ok (off, len) -> (
        match Bytes.get t.buf off with
        | '_' -> `Ok `Nil
        | '-' ->
            if
              len >= 5
              && Bytes.get t.buf (off + 1) = 'B'
              && Bytes.get t.buf (off + 2) = 'U'
              && Bytes.get t.buf (off + 3) = 'S'
              && Bytes.get t.buf (off + 4) = 'Y'
            then `Ok `Busy
            else `Ok `Err
        | _ -> `Ok `Value)
end
