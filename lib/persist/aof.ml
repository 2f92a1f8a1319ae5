(** The append-only op log writer.

    Records are appended by the STM commit hook {e inside} the commit
    critical section, so the append path must never block on disk: an
    append frames the record in place at the end of an in-memory
    writer under the append lock and returns a sequence number; the
    actual [write]+[fsync] happens later, under a {e separate} sync
    mutex, on whichever thread needs durability first — the
    event-loop flush path ([`Always]), the once-a-second tick
    ([`Everysec]), or shutdown ([`No]).  The op log passes its own
    mutex as the append lock, so one lock covers both its choice of
    writer and the append.

    Two writers take turns: appends go to one while a sync writes the
    other's pending region straight to the fd, with no copy.

    Group commit falls out of the split: while one thread is inside
    [fsync], every other session keeps appending to the buffer; when
    the sync finishes, the next waiter's [wait_durable] re-check
    usually finds its sequence number already covered (the sync it
    waited on swallowed the whole batch), so N pipelined acks cost one
    [fsync], not N. *)

type policy = [ `Always | `Everysec | `No ]

let policy_to_string = function
  | `Always -> "always"
  | `Everysec -> "everysec"
  | `No -> "no"

module Obuf = Polytm_util.Obuf

type t = {
  path : string;
  fd : Unix.file_descr;
  mu : Mutex.t;  (** the append lock: guards [buf], [seq], [bytes] *)
  mutable buf : Obuf.t;  (** where appends frame their records *)
  mutable spare : Obuf.t;  (** the other writer: swapped in under [mu],
                               drained to the fd outside it *)
  mutable seq : int;  (** records appended (buffered or written) *)
  mutable bytes : int;  (** bytes appended since open *)
  sync_mu : Mutex.t;  (** serialises write+fsync and [closed] *)
  mutable synced_seq : int;  (** highest seq covered by an [fsync] *)
  mutable closed : bool;
  mutable syncs : int;  (** fsyncs issued, for INFO / telemetry *)
}

(* Open (creating if absent) for append; an empty file gets the
   magic.  The caller is responsible for having scanned/truncated the
   file first — this writer only ever moves forward.  [mu] is the
   append lock: the op log passes its own, shared by the writers it
   rotates through. *)
let open_log ?(mu = Mutex.create ()) path =
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let size = (Unix.fstat fd).st_size in
  if size = 0 then begin
    let m = Bytes.of_string Frame.log_magic in
    let n = Unix.write fd m 0 (Bytes.length m) in
    assert (n = Bytes.length m)
  end;
  {
    path;
    fd;
    mu;
    buf = Obuf.create ();
    spare = Obuf.create ();
    seq = 0;
    bytes = (if size = 0 then Frame.magic_len else size);
    sync_mu = Mutex.create ();
    synced_seq = 0;
    closed = false;
    syncs = 0;
  }

(* Frame a record whose payload [write buf x] writes, and return its
   sequence number; the caller holds [mu]. *)
let append_locked t ~rtype ~algo ~shard ~stamp write x =
  let before = Obuf.length t.buf in
  Frame.add t.buf ~rtype ~algo ~shard ~stamp write x;
  t.bytes <- t.bytes + (Obuf.length t.buf - before);
  t.seq <- t.seq + 1;
  t.seq

let append t (hdr : Frame.header) ~payload =
  Mutex.lock t.mu;
  match
    append_locked t ~rtype:hdr.rtype ~algo:hdr.algo ~shard:hdr.shard
      ~stamp:hdr.stamp Obuf.add_string payload
  with
  | seq ->
      Mutex.unlock t.mu;
      seq
  | exception e ->
      Mutex.unlock t.mu;
      raise e

(* Write [ob]'s pending region to [fd].  Each write consumes what it
   wrote, so when one raises, the pending region is exactly the
   unwritten tail. *)
let write_all fd ob =
  while Obuf.pending ob > 0 do
    let b, off, len = Obuf.peek ob in
    match Unix.single_write fd b off len with
    | n -> Obuf.consumed ob n
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* Drain the pending writer to the fd and fsync; must hold [sync_mu].
   Bytes leave the writers only once written: when a write raises, the
   unwritten tail goes back in front of whatever was appended
   meanwhile and the exception propagates, so the next sync writes it
   first, and [synced_seq] moves only after a write and its fsync both
   succeed. *)
let sync_locked t =
  if not t.closed then begin
    Mutex.lock t.mu;
    let target = t.seq in
    let pending = t.buf in
    t.buf <- t.spare;
    t.spare <- pending;
    Mutex.unlock t.mu;
    (* Appends continue into the other writer while we do I/O. *)
    (match write_all t.fd pending with
    | () -> ()
    | exception e ->
        Mutex.lock t.mu;
        let live = t.buf in
        Obuf.add_obuf pending live;
        Obuf.clear live;
        t.buf <- pending;
        t.spare <- live;
        Mutex.unlock t.mu;
        raise e);
    Unix.fsync t.fd;
    t.syncs <- t.syncs + 1;
    if target > t.synced_seq then t.synced_seq <- target
  end

let sync t =
  Mutex.lock t.sync_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.sync_mu)
    (fun () -> sync_locked t)

(* Block until record [seq] is on disk.  The unlocked fast-path read
   of [synced_seq] can at worst be stale (too small), which only sends
   us to the locked re-check. *)
let wait_durable t seq =
  if t.synced_seq < seq then begin
    Mutex.lock t.sync_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.sync_mu)
      (fun () -> if t.synced_seq < seq then sync_locked t)
  end

let seq t =
  Mutex.lock t.mu;
  let s = t.seq in
  Mutex.unlock t.mu;
  s

let synced_seq t = t.synced_seq
let syncs t = t.syncs

let bytes t =
  Mutex.lock t.mu;
  let b = t.bytes in
  Mutex.unlock t.mu;
  b

(* Final sync then close.  Safe against concurrent [wait_durable]:
   after the final [sync_locked], [synced_seq = seq], so no later
   waiter can reach the fd, and [closed] stops any racing slow path
   already queued on [sync_mu]. *)
let close t =
  Mutex.lock t.sync_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.sync_mu)
    (fun () ->
      if not t.closed then begin
        sync_locked t;
        t.closed <- true;
        Unix.close t.fd
      end)
