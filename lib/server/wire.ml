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


(* ---- decoding ------------------------------------------------------------

   A frame is scanned and parsed in one pass, where it lies in the
   decoder's buffer: the header scan bounds the body with two of the
   decoder's own fields, and the parser walks it with a third ([at]).
   Nothing else is allocated per frame but what the parse returns, and
   only bytes that escape into a request (a structure name or a value)
   are copied out, so nothing the parser returns aliases the buffer,
   which the next read overwrites.  A body that fails to parse raises
   [Bad], which becomes a [`Bad] item; the header already said where the
   next frame starts, so a bad body never costs more than its own frame.
   Every helper is a top-level function, so the parser allocates no
   closure, and the per-field ones are inlined, so a field costs no
   call. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

(* Longest header: '#' + digits of max_frame + '\n'. *)
let max_header = 2 + 10
let default_max_frame = 8 * 1024 * 1024

type decoder = {
  mutable buf : Bytes.t;
  mutable pos : int;  (* consumed prefix *)
  mutable len : int;  (* filled prefix *)
  max_frame : int;
  mutable dead : string option;
  mutable at : int;  (* the parse position in the current frame's body *)
  mutable stop : int;  (* the end of the current frame *)
}

let decoder buf ~pos ~len ~max_frame =
  { buf; pos; len; max_frame; dead = None; at = 0; stop = 0 }

let die d msg =
  d.dead <- Some msg;
  `Corrupt msg

(* The header digits from [i], worth [n] so far.  Once the whole frame
   is buffered it is consumed (an emptied buffer restarts at 0), its
   body bounded by [at] and [stop]; bytes stay where they are until the
   next read, so the parse that follows still finds them. *)
let rec header d i n =
  let limit = d.pos + max_header in
  if i >= d.len || i >= limit then
    if i >= limit then die d "frame header too long" else `Await
  else
    match Bytes.unsafe_get d.buf i with
    | '0' .. '9' as c -> header d (i + 1) ((n * 10) + Char.code c - 48)
    | '\n' when i > d.pos + 1 ->
        if n > d.max_frame then
          die d (Printf.sprintf "frame of %d bytes exceeds limit" n)
        else if d.len - (i + 1) < n then `Await
        else begin
          d.at <- i + 1;
          d.stop <- i + 1 + n;
          if d.stop = d.len then d.len <- 0;
          d.pos <- (if d.len = 0 then 0 else d.stop);
          `Frame
        end
    | '\n' -> die d "frame header without length"
    | c -> die d (Printf.sprintf "bad byte %C in frame header" c)

(* The next frame: [`Frame] once it is all there, [`Await] for more
   bytes, and [`Corrupt], latched, when the framing itself is broken. *)
let frame d =
  match d.dead with
  | Some m -> `Corrupt m
  | None ->
      if d.pos >= d.len then `Await
      else if Bytes.unsafe_get d.buf d.pos <> '#' then
        die d
          (Printf.sprintf "bad frame header byte %C"
             (Bytes.unsafe_get d.buf d.pos))
      else header d (d.pos + 1) 0

let[@inline] peek d =
  if d.at >= d.stop then bad "truncated body" else Bytes.unsafe_get d.buf d.at

let[@inline] advance d = d.at <- d.at + 1

let[@inline] expect d ch =
  let got = peek d in
  if got <> ch then bad "expected %C, got %C at byte %d" ch got d.at;
  advance d

(* Unsigned decimal int followed by '\n'; bounded to 15 digits so no
   overflow games are possible.  Every field length is one. *)
let[@inline] nat d =
  let start = d.at and i = ref d.at and n = ref 0 in
  while
    !i < d.stop
    && match Bytes.unsafe_get d.buf !i with '0' .. '9' -> true | _ -> false
  do
    if !i - start >= 15 then bad "integer too long";
    n := (!n * 10) + Char.code (Bytes.unsafe_get d.buf !i) - 48;
    incr i
  done;
  if !i >= d.stop then bad "truncated body";
  let c = Bytes.unsafe_get d.buf !i in
  if c <> '\n' || !i = start then bad "expected digit, got %C at byte %d" c !i;
  d.at <- !i + 1;
  !n

(* Signed decimal int line (for ':' integer responses). *)
let parse_int_line d =
  let neg = peek d = '-' in
  if neg then advance d;
  let start = d.at in
  let n = ref 0 in
  while (match peek d with '0' .. '9' -> true | _ -> false) do
    n := (!n * 10) + (Char.code (Bytes.unsafe_get d.buf d.at) - Char.code '0');
    advance d;
    (* string_of_int of a 63-bit int is at most 19 digits *)
    if d.at - start > 19 then bad "integer too long"
  done;
  if d.at = start then bad "expected digit at byte %d" d.at;
  expect d '\n';
  if neg then - !n else !n

(* Bytes up to the next '\n' (consumed). *)
let parse_line d =
  match Bytes.index_from_opt d.buf d.at '\n' with
  | Some i when i < d.stop ->
      let s = Bytes.sub_string d.buf d.at (i - d.at) in
      d.at <- i + 1;
      s
  | Some _ | None -> bad "unterminated line"

(* One bulk field: [field] checks its framing and moves [at] past it,
   returning its length [len]; its bytes are the [len] bytes that end
   one before [at]. *)
let[@inline] field d =
  expect d '$';
  let len = nat d in
  if d.at + len + 1 > d.stop then bad "bulk overruns frame";
  d.at <- d.at + len;
  expect d '\n';
  len

let copy d len = Bytes.sub_string d.buf (d.at - len - 1) len

let str d = copy d (field d)

(* Whether the [len] bytes at [off] are [lit].  Unchecked reads: the
   bytes must lie within the frame. *)
let[@inline] same d off len lit =
  len = String.length lit
  &&
  let i = ref 0 in
  while
    !i < len && Bytes.unsafe_get d.buf (off + !i) = String.unsafe_get lit !i
  do
    incr i
  done;
  !i = len

(* Whether the field of [len] bytes just passed, which [field] bounded
   within the frame, is [lit]. *)
let[@inline] is d len lit = same d (d.at - len - 1) len lit

(* The value of the decimal digits of [b] from [i] to [stop], or -1 at
   a non-digit. *)
let rec decimal b i stop acc =
  if i = stop then acc
  else
    match Bytes.unsafe_get b i with
    | '0' .. '9' as c -> decimal b (i + 1) stop ((acc * 10) + Char.code c - 48)
    | _ -> -1

(* An integer field of [len] bytes just passed.  An optional '-' and at
   most 18 digits cannot overflow, so they are read from the bytes; any
   other form goes through [int_of_string_opt], so "0x10", "+5" and
   "1_000" parse as OCaml reads them. *)
let int_of_field d len what =
  let start = d.at - len - 1 in
  let neg = len > 0 && Bytes.unsafe_get d.buf start = '-' in
  let first = if neg then start + 1 else start in
  let width = start + len - first in
  let v =
    if width >= 1 && width <= 18 then decimal d.buf first (start + len) 0
    else -1
  in
  if v >= 0 then if neg then -v else v
  else
    let s = copy d len in
    match int_of_string_opt s with
    | Some v -> v
    | None -> bad "%s must be an integer, got %S" what s

(* Argument fields. *)
let num d what = int_of_field d (field d) what

let opt_num d what =
  let len = field d in
  if is d len "_" then None else Some (int_of_field d len what)

let kind d =
  let len = field d in
  if is d len "map" then Kmap
  else if is d len "set" then Kset
  else if is d len "queue" then Kqueue
  else bad "unknown structure kind %S" (copy d len)

let hint_of d len =
  if is d len "~classic" then Some Polytm.Semantics.Classic
  else if is d len "~elastic" then Some Polytm.Semantics.Elastic
  else if is d len "~snapshot" then Some Polytm.Semantics.Snapshot
  else bad "unknown semantics hint %S" (copy d len)

let unknown d len args =
  bad "unknown op or arity: %S (%d fields)" (copy d len) (args + 1)

(* The command named by the [len]-byte field just passed, whose [args]
   argument fields follow. *)
let command d len args =
  match args with
  | 0 ->
      if is d len "PING" then Ping
      else if is d len "MULTI" then Multi
      else if is d len "MULTI-END" then Multi_end
      else if is d len "INFO" then Info
      else if is d len "BGSAVE" then Bgsave
      else if is d len "LASTSAVE" then Lastsave
      else unknown d len args
  | 1 ->
      if is d len "DEQ" then Deq (str d)
      else if is d len "SIZE" then Size (str d)
      else if is d len "SNAPSHOT-ITER" then Snapshot_iter (str d)
      else if is d len "WATCH" then Watch (str d)
      else if is d len "UNWATCH" then Unwatch (str d)
      else unknown d len args
  | 2 ->
      if is d len "GET" then
        let s = str d in
        Get (s, num d "key")
      else if is d len "DEL" then
        let s = str d in
        Del (s, num d "key")
      else if is d len "CONTAINS" then
        let s = str d in
        Contains (s, num d "key")
      else if is d len "ADD" then
        let s = str d in
        Add (s, num d "key")
      else if is d len "REMOVE" then
        let s = str d in
        Remove (s, num d "key")
      else if is d len "ENQ" then
        let s = str d in
        Enq (s, str d)
      else if is d len "NEW" then
        let k = kind d in
        New (k, str d)
      else if is d len "BLPOP" then
        let s = str d in
        Blpop (s, num d "timeout")
      else if is d len "BTAKE" then
        let s = str d in
        Btake (s, num d "timeout")
      else if is d len "DEBUG-ABORT" then
        let budget = opt_num d "budget" in
        Debug_abort { budget; deadline_us = opt_num d "deadline" }
      else unknown d len args
  | 3 when is d len "PUT" ->
      let s = str d in
      let k = num d "key" in
      Put (s, k, str d)
  | _ -> unknown d len args

(* The body of the frame just scanned: [*n] then the fields, an
   optional hint (a first field that starts with '~'), the op name, its
   arguments. *)
let request d =
  expect d '*';
  let n = nat d in
  if n = 0 then bad "empty request array";
  if n > 64 then bad "request array too long (%d)" n;
  let first = field d in
  let hinted = first > 0 && Bytes.unsafe_get d.buf (d.at - first - 1) = '~' in
  let hint = if hinted then hint_of d first else None in
  let args = if hinted then n - 2 else n - 1 in
  if args < 0 then bad "empty request";
  let op = if hinted then field d else first in
  let cmd = command d op args in
  if d.at <> d.stop then bad "trailing bytes in frame";
  { hint; cmd }

let max_response_depth = 8

let rec response d depth =
  if depth > max_response_depth then bad "response nested too deeply";
  match peek d with
  | '+' ->
      advance d;
      Simple (parse_line d)
  | ':' ->
      advance d;
      Int (parse_int_line d)
  | '$' -> Bulk (str d)
  | '_' ->
      advance d;
      expect d '\n';
      Nil
  | '-' ->
      advance d;
      let line = parse_line d in
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
      advance d;
      let n = nat d in
      if n > d.stop - d.at then bad "array longer than frame";
      Array (List.init n (fun _ -> response d (depth + 1)))
  | '>' ->
      advance d;
      Push (parse_line d)
  | ch -> bad "unknown response type byte %C" ch

let response_body d =
  let r = response d 0 in
  if d.at <> d.stop then bad "trailing bytes in frame";
  r

(* The request frames filling [len] bytes of [buf] from [off], each
   parsed where it lies by the decoder's own scan and parser, over a
   decoder that borrows [buf] for the walk. *)
let iter_requests f buf off len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then
    invalid_arg "Wire.iter_requests";
  let d =
    decoder buf ~pos:off ~len:(off + len) ~max_frame:default_max_frame
  in
  let rec go () =
    match frame d with
    | `Frame -> (
        match request d with
        | r ->
            f r;
            go ()
        | exception Bad m -> `Bad m)
    | `Await -> if d.pos = d.len then `Ok else `Partial
    | `Corrupt m -> `Bad m
  in
  go ()

(* ---- incremental decoder ----------------------------------------------- *)

module Decoder = struct
  type t = decoder

  let create ?(max_frame = default_max_frame) () =
    decoder (Bytes.create 4096) ~pos:0 ~len:0 ~max_frame

  type 'a item =
    [ `Ok of 'a | `Bad of string | `Await | `Corrupt of string ]

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

  let next_request t =
    match frame t with
    | `Frame -> ( match request t with r -> `Ok r | exception Bad m -> `Bad m)
    | (`Await | `Corrupt _) as r -> r

  let next_response t =
    match frame t with
    | `Frame -> (
        match response_body t with r -> `Ok r | exception Bad m -> `Bad m)
    | (`Await | `Corrupt _) as r -> r

  (* Classify the next reply without building the response tree: split
     the error class on the BUSY code (load generators count
     backpressure refusals separately from application errors) and
     surface [Nil] (miss / blocking-op timeout).  The body is skipped —
     a framed snapshot reply of thousands of items costs one
     length-prefixed hop, not a tree of allocations, so the measuring
     client never becomes the bottleneck it is measuring. *)
  let next_response_brief t : [ `Value | `Nil | `Busy | `Err ] item =
    match frame t with
    | (`Await | `Corrupt _) as r -> r
    | `Frame -> (
        let off = t.at in
        if t.stop = off then `Bad "truncated body"
        else
          match Bytes.get t.buf off with
          | '_' -> `Ok `Nil
          | '-' ->
              if t.stop - off >= 5 && same t (off + 1) 4 "BUSY" then `Ok `Busy
              else `Ok `Err
          | _ -> `Ok `Value)
end
