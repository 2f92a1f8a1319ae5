(* A grow-only byte writer.  See obuf.mli. *)

type t = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

let create ?(initial = 4096) () =
  { buf = Bytes.create (max 16 initial); start = 0; len = 0 }

let clear t =
  t.start <- 0;
  t.len <- 0

let length t = t.len
let pending t = t.len - t.start
let contents t = Bytes.sub_string t.buf t.start (t.len - t.start)
let peek t = (t.buf, t.start, t.len - t.start)

let consumed t n =
  t.start <- t.start + n;
  if t.start = t.len then begin
    t.start <- 0;
    t.len <- 0
  end

let truncate t n =
  if n < t.start || n > t.len then invalid_arg "Obuf.truncate";
  t.len <- n

let grow t need =
  let cap = ref (2 * Bytes.length t.buf) in
  while need > !cap do
    cap := !cap * 2
  done;
  let dst = Bytes.create !cap in
  Bytes.blit t.buf 0 dst 0 t.len;
  t.buf <- dst

let reserve t n = if t.len + n > Bytes.length t.buf then grow t (t.len + n)

let add_string t s =
  let n = String.length s in
  reserve t n;
  Bytes.unsafe_blit_string s 0 t.buf t.len n;
  t.len <- t.len + n

let add_obuf t src =
  let n = src.len - src.start in
  reserve t n;
  Bytes.blit src.buf src.start t.buf t.len n;
  t.len <- t.len + n

(* Decimal width of any int, sign included.  Negative ints are counted
   without negating them, which would overflow at [min_int]; the
   writer below takes its digits from the non-positive [-|n|] for the
   same reason. *)
let rec nonneg_width acc n =
  if n < 10 then acc else nonneg_width (acc + 1) (n / 10)

let rec neg_width acc n = if n > -10 then acc else neg_width (acc + 1) (n / 10)
let int_width n = if n < 0 then neg_width 2 n else nonneg_width 1 n

let unsafe_add_int t n =
  let w = int_width n in
  let buf = t.buf and base = t.len in
  let neg = n < 0 in
  if neg then Bytes.unsafe_set buf base '-';
  let fin = if neg then base + 1 else base in
  let v = ref (if neg then n else -n) in
  for i = base + w - 1 downto fin do
    Bytes.unsafe_set buf i (Char.unsafe_chr (Char.code '0' - (!v mod 10)));
    v := !v / 10
  done;
  t.len <- base + w

let[@inline] unsafe_add_char t c =
  Bytes.unsafe_set t.buf t.len c;
  t.len <- t.len + 1

let[@inline] unsafe_add_string t s =
  let n = String.length s in
  Bytes.unsafe_blit_string s 0 t.buf t.len n;
  t.len <- t.len + n
