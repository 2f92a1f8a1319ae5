(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]),
    table-driven, slicing-by-4: four table lookups per 4-byte word,
    then one lookup per leftover byte.  Every record in the op log and
    checkpoint files carries the CRC of its body so recovery can
    distinguish "clean end of log" from "torn tail" from "corrupted
    middle" without trusting lengths alone.

    Hand-rolled because the container ships no checksum library; the
    constants are the standard ones (zlib, PNG, ethernet), so any
    external tool can re-verify a log file.  The tables are built once
    at module initialisation, and the loops read through unchecked
    accessors after one argument check per call. *)

(* Four 256-entry tables, flat: [tables.(k * 256 + b)] is the CRC
   register after byte [b] followed by [k] zero bytes.  Row 0 is the
   classic byte-at-a-time table. *)
let tables =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 1023 do
    let prev = t.(i - 256) in
    t.(i) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* The 4 bytes at [i] as an unsigned little-endian word, unchecked. *)
let get32_le s i =
  let v = get32u s i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF

(* Running update: feed [len] bytes of [s] starting at [pos] into an
   accumulator previously returned by [update] (or [0] to start); the
   result is the CRC of everything fed so far, so a body fed in pieces
   gets the same CRC as fed whole.  The pre/post conditioning (xor
   with 0xFFFFFFFF) happens at both ends of each call; the mask keeps
   the register to 32 bits, so every unchecked table index is in
   range, and the range check is written so that it cannot overflow. *)
let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.update";
  let c = ref ((crc lxor 0xFFFFFFFF) land 0xFFFFFFFF) in
  let i = ref pos in
  let stop4 = pos + (len land lnot 3) in
  while !i < stop4 do
    let x = !c lxor get32_le s !i in
    c :=
      Array.unsafe_get tables (768 + (x land 0xFF))
      lxor Array.unsafe_get tables (512 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get tables (256 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get tables (x lsr 24);
    i := !i + 4
  done;
  let stop = pos + len in
  while !i < stop do
    c :=
      Array.unsafe_get tables
        ((!c lxor Char.code (String.unsafe_get s !i)) land 0xFF)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s 0 (String.length s)
