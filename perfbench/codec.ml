(* The client side of the polytmd frame protocol, written apart from the
   server's codec so that a change there is measured, not mirrored.

   A frame is [#<body-length>\n<body>].  A request body is an array of
   bulk strings, [*<n>\n] then [$<len>\n<bytes>\n] per field; a reply
   body is typed by its first byte: [+] status, [:] integer, [$] bulk,
   [_] nil, [-<CODE> <message>] error, [*<n>\n] array. *)

exception Protocol of string

let protocol fmt = Printf.ksprintf (fun m -> raise (Protocol m)) fmt

let digits n =
  let rec go n acc = if n < 10 then acc else go (n / 10) (acc + 1) in
  go n 1

let add_request b fields =
  let bulk_len f = 1 + digits (String.length f) + 1 + String.length f + 1 in
  let n = List.length fields in
  let body =
    List.fold_left (fun acc f -> acc + bulk_len f) (1 + digits n + 1) fields
  in
  Printf.bprintf b "#%d\n*%d\n" body n;
  List.iter (fun f -> Printf.bprintf b "$%d\n%s\n" (String.length f) f) fields

(* Every generated request carries the hint the paper assigns its
   class: point reads elastic, updates classic, iteration snapshot.
   [~hint:false] gives the hint-free form the op log stores. *)
let op_fields ?(hint = true) op =
  let h s = if hint then [ s ] else [] in
  match op with
  | Mix.Get k -> h "~elastic" @ [ "GET"; Mix.map_name; string_of_int k ]
  | Mix.Put (k, v) -> h "~classic" @ [ "PUT"; Mix.map_name; string_of_int k; v ]
  | Mix.Del k -> h "~classic" @ [ "DEL"; Mix.map_name; string_of_int k ]
  | Mix.Snap -> h "~snapshot" @ [ "SNAPSHOT-ITER"; Mix.map_name ]

let add_op ?hint b op = add_request b (op_fields ?hint op)

(* ---- reading frames ----------------------------------------------------- *)

type reader = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

let reader () = { buf = Bytes.create 65536; pos = 0; len = 0 }

(* One [read] into the reader; returns the byte count (0 at EOF). *)
let fill r fd =
  let room = 65536 in
  if r.pos = r.len then begin
    r.pos <- 0;
    r.len <- 0
  end;
  if Bytes.length r.buf - r.len < room then begin
    let live = r.len - r.pos in
    let cap = max (Bytes.length r.buf) (live + room) in
    let nb = if cap > Bytes.length r.buf then Bytes.create cap else r.buf in
    Bytes.blit r.buf r.pos nb 0 live;
    r.buf <- nb;
    r.pos <- 0;
    r.len <- live
  end;
  let n = Unix.read fd r.buf r.len (Bytes.length r.buf - r.len) in
  r.len <- r.len + n;
  n

(* The next complete frame's body as [(offset, length)] into [r.buf],
   consumed; [None] until one is fully buffered. *)
let next_frame r =
  let avail = r.len - r.pos in
  if avail < 3 then None
  else if Bytes.get r.buf r.pos <> '#' then protocol "frame does not start with #"
  else
    let rec header i n =
      if i >= r.len then None
      else
        match Bytes.get r.buf i with
        | '\n' when i > r.pos + 1 -> Some (i + 1, n)
        | '0' .. '9' as c when i - r.pos <= 10 ->
            header (i + 1) ((n * 10) + Char.code c - 48)
        | c -> protocol "bad frame header byte %C" c
    in
    match header (r.pos + 1) 0 with
    | Some (body, n) when r.len - body >= n ->
        r.pos <- body + n;
        Some (body, n)
    | _ -> None

(* ---- parsing reply bodies ------------------------------------------------ *)

type cursor = { b : Bytes.t; mutable p : int; lim : int }

let cursor b off len = { b; p = off; lim = off + len }
let at_end c = c.p = c.lim

let byte c =
  if c.p >= c.lim then protocol "reply ends early";
  let ch = Bytes.get c.b c.p in
  c.p <- c.p + 1;
  ch

let expect c ch =
  let got = byte c in
  if got <> ch then protocol "expected %C, got %C" ch got

let int_line c =
  let neg = c.p < c.lim && Bytes.get c.b c.p = '-' in
  if neg then c.p <- c.p + 1;
  let rec go n seen =
    match byte c with
    | '0' .. '9' as d -> go ((n * 10) + Char.code d - 48) true
    | '\n' when seen -> if neg then -n else n
    | ch -> protocol "bad integer byte %C" ch
  in
  go 0 false

(* [$<len>\n<bytes>\n]: returns the payload's offset and length. *)
let bulk c =
  expect c '$';
  let n = int_line c in
  if n < 0 || c.p + n + 1 > c.lim then protocol "bulk overruns its frame";
  let off = c.p in
  c.p <- c.p + n;
  expect c '\n';
  (off, n)

let equal_sub b off len s =
  len = String.length s
  &&
  let rec go i = i = len || (Bytes.get b (off + i) = s.[i] && go (i + 1)) in
  go 0

(* A reply's class, read from its first byte; errors split on BUSY. *)
type cls = Value | Busy | Error of string

let classify b off len =
  if len = 0 then protocol "empty reply";
  match Bytes.get b off with
  | '-' ->
      let line = Bytes.sub_string b (off + 1) (max 0 (len - 2)) in
      if String.length line >= 4 && String.sub line 0 4 = "BUSY" then Busy
      else Error line
  | '+' | ':' | '$' | '_' | '*' -> Value
  | ch -> protocol "unknown reply type %C" ch
