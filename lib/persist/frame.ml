(** The on-disk record format shared by the op log and checkpoint
    files.

    A persist file is an 8-byte magic followed by a sequence of
    records:

    {v
      record  = u32_le body_len | u32_le crc32(body) | body
      body    = u8 rtype | u8 algo | u16_le shard | u64_le stamp | payload
    v}

    [rtype] distinguishes ops ([rt_op]), structure creations
    ([rt_new]), a checkpoint's bound vector ([rt_bounds]) and its
    trailer ([rt_trailer]).  An op's payload is the hint-free request
    frames of the mutation it committed, re-encoded by the server
    rather than copied from the client: no [~classic]/[~elastic]/
    [~snapshot] field, one frame per mutation of a [MULTI] batch, and
    a [BLPOP] or [BTAKE] as the [DEQ] it performed.  A creation's
    payload is a [NEW] frame.  [algo] and [shard] locate the STM
    instance the record committed on; [stamp] is that instance's
    commit version, which is what log compaction filters against
    (replay a record iff its stamp exceeds the checkpoint's bound for
    that instance).

    A record is framed in place, by {!add}, at the end of the writer
    that will carry it to disk: the length and CRC slots are reserved,
    the body header and the payload written after them, the CRC run
    over the body where it lies, and the two slots patched.  A record
    costs no payload string, header or copy — it is what the commit
    hook pays inside every write commit.

    Scanning never raises on malformed input: a file is parsed as the
    longest valid prefix plus a typed {!tear} describing where and why
    parsing stopped — the caller decides whether a tear is a benign
    crash artifact (end of the active log) or grounds to refuse
    service (middle of a checkpoint).  It reads the file through one
    fixed window and hands each checked record to its caller where it
    lies there, so replaying a record costs no string of its own. *)

module Obuf = Polytm_util.Obuf

let log_magic = "PTMLOG1\n"
let ckpt_magic = "PTMCKP1\n"
let magic_len = 8

let rt_op = 1
let rt_new = 2
let rt_bounds = 3
let rt_trailer = 4

(* Body length sanity bound: header fields plus the server's largest
   admissible wire frame (8 MiB default [max_frame]) with headroom for
   a full MULTI batch.  A length above this is corruption, not data. *)
let max_body = 256 * 1024 * 1024
let body_hdr_len = 1 + 1 + 2 + 8
let min_body = body_hdr_len

type header = { rtype : int; algo : int; shard : int; stamp : int }

(* The [algo] field: which algorithm's router holds the instance. *)
let algo_code = function `Tl2 -> 0 | `Norec -> 1
let algo_of_code = function 0 -> Some `Tl2 | 1 -> Some `Norec | _ -> None

(* Frame one record at the end of [ob], its payload written by [write
   ob x] (see the header).  If [write] raises, [ob] is cut back to the
   record's start and the exception goes on. *)
let add (ob : Obuf.t) ~rtype ~algo ~shard ~stamp write x =
  let start = ob.len in
  Obuf.reserve ob (8 + body_hdr_len);
  let b = ob.buf in
  (* bytes [start, start + 8) are the length and CRC slots *)
  Bytes.set_uint8 b (start + 8) rtype;
  Bytes.set_uint8 b (start + 9) algo;
  Bytes.set_uint16_le b (start + 10) shard;
  Bytes.set_int64_le b (start + 12) (Int64.of_int stamp);
  ob.len <- start + 8 + body_hdr_len;
  match write ob x with
  | () ->
      let b = ob.buf and len = ob.len - start - 8 in
      let crc = Crc32.update 0 (Bytes.unsafe_to_string b) (start + 8) len in
      Bytes.set_int32_le b start (Int32.of_int len);
      Bytes.set_int32_le b (start + 4) (Int32.of_int crc)
  | exception e ->
      Obuf.truncate ob start;
      raise e

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

type tear_reason =
  | Bad_magic  (** file does not start with the expected 8 bytes *)
  | Truncated_header  (** EOF inside a record's len/crc prefix *)
  | Truncated_body  (** EOF inside a record body *)
  | Crc_mismatch  (** body bytes present but checksum wrong *)
  | Bad_length  (** length field outside [min_body, max_body] *)

let tear_reason_to_string = function
  | Bad_magic -> "bad-magic"
  | Truncated_header -> "truncated-header"
  | Truncated_body -> "truncated-body"
  | Crc_mismatch -> "crc-mismatch"
  | Bad_length -> "bad-length"

type tear = { at : int;  (** byte offset of the record that failed *)
              reason : tear_reason }

type scan = {
  records : int;  (** valid records delivered to the callback *)
  valid_bytes : int;
      (** offset one past the last valid record — the truncation
          point that keeps exactly the longest valid prefix *)
  tear : tear option;  (** [None] iff the file ended cleanly *)
}

let pp_tear ppf t =
  Format.fprintf ppf "%s at byte %d" (tear_reason_to_string t.reason) t.at

(* Records are read through one window of [window] bytes, refilled as
   the scan moves on and grown only for a record longer than it.  The
   channel under it already reads 64 KB per system call, so a wider
   window saves no read and costs memory: a 64 KB one raised a
   recovered server's peak RSS by about 0.3 MB. *)
let window = 4096

(* Scan [path], calling [f hdr buf off len] for each valid record in
   order, where [hdr] is its body header and its payload is the [len]
   bytes of [buf] from [off]: the record is checked and handed over
   where it lies in the window, and those bytes stay valid only until
   [f] returns.  Stops at the first malformed record; never raises on
   malformed {e content} (I/O errors — [ENOENT], permissions — do
   raise [Sys_error], which callers treat as "no such file"), and
   never reads or allocates past the file's end: every length is
   checked against the file's size first. *)
let scan ~magic ~path ~f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let file_len = in_channel_length ic in
      (* [!buf] holds the file's bytes from [!base] to [!base + !filled]. *)
      let buf = ref (Bytes.create (min window file_len)) in
      let base = ref 0 and filled = ref 0 in
      (* Make the [n] bytes at file offset [at] resident, all of which
         the file holds, and return their offset in [!buf].  Reads
         resume where the last one stopped, so each byte is read once. *)
      let need at n =
        let kept = !base + !filled - at in
        if n > kept then begin
          if n > Bytes.length !buf then begin
            let grown = Bytes.create n in
            Bytes.blit !buf (at - !base) grown 0 kept;
            buf := grown
          end
          else Bytes.blit !buf (at - !base) !buf 0 kept;
          let more = min (Bytes.length !buf) (file_len - at) - kept in
          really_input ic !buf kept more;
          base := at;
          filled := kept + more
        end;
        at - !base
      in
      let tear_at at reason records =
        { records; valid_bytes = at; tear = Some { at; reason } }
      in
      let rec loop at records =
        let left = file_len - at in
        if left = 0 then { records; valid_bytes = at; tear = None }
        else if left < 8 then tear_at at Truncated_header records
        else
          let o = need at 8 in
          let len = Int32.to_int (Bytes.get_int32_le !buf o) in
          let crc = Int32.to_int (Bytes.get_int32_le !buf (o + 4)) land 0xFFFFFFFF in
          if len < min_body || len > max_body then tear_at at Bad_length records
          else if left - 8 < len then tear_at at Truncated_body records
          else
            let o = need at (8 + len) + 8 in
            let b = !buf in
            if Crc32.update 0 (Bytes.unsafe_to_string b) o len <> crc then
              tear_at at Crc_mismatch records
            else begin
              f
                {
                  rtype = Bytes.get_uint8 b o;
                  algo = Bytes.get_uint8 b (o + 1);
                  shard = Bytes.get_uint16_le b (o + 2);
                  stamp = Int64.to_int (Bytes.get_int64_le b (o + 4));
                }
                b (o + body_hdr_len) (len - body_hdr_len);
              loop (at + 8 + len) (records + 1)
            end
      in
      if file_len < magic_len then tear_at 0 Bad_magic 0
      else
        let o = need 0 magic_len in
        if String.equal (Bytes.sub_string !buf o magic_len) magic then
          loop magic_len 0
        else tear_at 0 Bad_magic 0)

(* ------------------------------------------------------------------ *)
(* Checkpoint bound-vector and trailer payloads                        *)

(* bounds payload = u16_le count, then count * (u8 algo | u16_le shard
   | u64_le bound); trailer payload = u64_le record count (records
   between the magic and the trailer, trailer excluded). *)

let encode_bounds entries =
  let b = Buffer.create (2 + (11 * List.length entries)) in
  Buffer.add_uint16_le b (List.length entries);
  List.iter
    (fun (algo, shard, bound) ->
      Buffer.add_uint8 b algo;
      Buffer.add_uint16_le b shard;
      Buffer.add_int64_le b (Int64.of_int bound))
    entries;
  Buffer.contents b

let decode_bounds s =
  if String.length s < 2 then None
  else
    let count = String.get_uint16_le s 0 in
    if String.length s <> 2 + (11 * count) then None
    else
      let entry i =
        let off = 2 + (11 * i) in
        ( Char.code s.[off],
          String.get_uint16_le s (off + 1),
          Int64.to_int (String.get_int64_le s (off + 3)) )
      in
      Some (List.init count entry)

let encode_count n =
  let b = Buffer.create 8 in
  Buffer.add_int64_le b (Int64.of_int n);
  Buffer.contents b

let decode_count s =
  if String.length s <> 8 then None
  else Some (Int64.to_int (String.get_int64_le s 0))
