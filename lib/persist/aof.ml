(** The append-only op log writer.

    Records are appended by the STM commit hook {e inside} the commit
    critical section, so the append path must never block on disk: an
    append frames the record in place at the end of an in-memory
    writer under the append lock and returns a sequence number; the
    actual [write]+[fsync] happens later, under a {e separate} sync
    mutex, on whichever thread needs durability first — the
    event-loop flush path ([`Always]), the once-a-second tick
    ([`Everysec]), or shutdown ([`No]).

    Two writers take turns: appends go to one while a sync writes the
    other's pending region straight to the fd, with no copy.

    Group commit falls out of the split: while one thread is inside
    [fsync], every other session keeps appending to the buffer; when
    the sync finishes, the next waiter's [wait_durable] re-check
    usually finds its sequence number already covered (the sync it
    waited on swallowed the whole batch), so N pipelined acks cost one
    [fsync], not N.

    One writer serves the op log's whole life: a checkpoint {!switch}es
    it to the next generation's file, so its sequence numbers and
    counters run on across files.

    A failed write keeps its records buffered and the next sync
    retries it.  A failed [fsync] does not: the kernel may have dropped
    the dirty pages it could not write, so no later [fsync] can vouch
    for them.  From then on [synced_seq] never moves: a sync still
    writes and fsyncs what is buffered, so the writer's memory stays
    bounded and newer records reach the file, but it raises the
    failure, and so does every later wait for an unsynced record, every
    switch and the close (which still closes the file). *)

type policy = [ `Always | `Everysec | `No ]

let policy_to_string = function
  | `Always -> "always"
  | `Everysec -> "everysec"
  | `No -> "no"

module Obuf = Polytm_util.Obuf

type t = {
  mutable fd : Unix.file_descr;  (** the current generation's file *)
  mu : Mutex.t;  (** the append lock: guards [buf], [seq], [bytes] *)
  mutable buf : Obuf.t;  (** where appends frame their records *)
  mutable spare : Obuf.t;  (** the other writer: swapped in under [mu],
                               drained to the fd outside it *)
  mutable seq : int;  (** records appended (buffered or written) *)
  mutable bytes : int;  (** bytes of every file, magic included *)
  sync_mu : Mutex.t;  (** serialises write+fsync, [fd] and [closed] *)
  mutable synced_seq : int;  (** highest seq covered by an [fsync] *)
  mutable failed : exn option;  (** the [fsync] failure that ended syncing *)
  mutable closed : bool;
  mutable syncs : int;  (** fsyncs issued, for INFO / telemetry *)
}

(* Open (creating if absent) for append; an empty file gets the
   magic.  Returns the fd and the file's size.  The caller is
   responsible for having scanned/truncated the file first — this
   writer only ever moves forward. *)
let open_file path =
  let fd = Unix.openfile path [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let size = (Unix.fstat fd).st_size in
  if size = 0 then begin
    let m = Bytes.of_string Frame.log_magic in
    let n = Unix.write fd m 0 (Bytes.length m) in
    assert (n = Bytes.length m)
  end;
  (fd, if size = 0 then Frame.magic_len else size)

let open_log path =
  let fd, size = open_file path in
  {
    fd;
    mu = Mutex.create ();
    buf = Obuf.create ();
    spare = Obuf.create ();
    seq = 0;
    bytes = size;
    sync_mu = Mutex.create ();
    synced_seq = 0;
    failed = None;
    closed = false;
    syncs = 0;
  }

(* Frame a record whose payload [write buf x] writes, and return its
   sequence number.  A [write] that raises leaves no partial record
   ({!Frame.add}). *)
let append_with t ~rtype ~algo ~shard ~stamp write x =
  Mutex.lock t.mu;
  match
    let before = Obuf.length t.buf in
    Frame.add t.buf ~rtype ~algo ~shard ~stamp write x;
    t.bytes <- t.bytes + (Obuf.length t.buf - before);
    t.seq <- t.seq + 1;
    t.seq
  with
  | seq ->
      Mutex.unlock t.mu;
      seq
  | exception e ->
      Mutex.unlock t.mu;
      raise e

let append t (hdr : Frame.header) ~payload =
  append_with t ~rtype:hdr.rtype ~algo:hdr.algo ~shard:hdr.shard
    ~stamp:hdr.stamp Obuf.add_string payload

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

let seq t =
  Mutex.lock t.mu;
  let s = t.seq in
  Mutex.unlock t.mu;
  s

(* Drain the pending writer to the fd and fsync; must hold [sync_mu].
   Bytes leave the writers only once written: when a write raises, the
   unwritten tail goes back in front of whatever was appended
   meanwhile and the exception propagates, so the next sync writes it
   first.  [synced_seq] moves only after a write and its fsync both
   succeed, and never once an fsync failed: after that the write and
   the fsync still run, but the first failure is raised.  A closed log
   raises while any record is unsynced, so no waiter takes one for
   durable. *)
let sync_locked t =
  if t.closed then begin
    if t.synced_seq < seq t then
      raise (Option.value t.failed ~default:(Failure "Aof: closed unsynced"))
  end
  else begin
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
    (match Unix.fsync t.fd with
    | () -> t.syncs <- t.syncs + 1
    | exception e -> if Option.is_none t.failed then t.failed <- Some e);
    match t.failed with
    | Some e -> raise e
    | None -> if target > t.synced_seq then t.synced_seq <- target
  end

let with_sync_mu t f =
  Mutex.lock t.sync_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.sync_mu) f

let sync t = with_sync_mu t (fun () -> sync_locked t)

(* Block until record [seq] is on disk.  The unlocked fast-path read
   of [synced_seq] can at worst be stale (too small), which only sends
   us to the locked re-check. *)
let wait_durable t seq =
  if t.synced_seq < seq then
    with_sync_mu t (fun () -> if t.synced_seq < seq then sync_locked t)

(* Sync what is buffered to the current file, create [path]'s and make
   its directory entry durable, then swap it in under the append lock:
   the records appended since that sync go to the new file, after every
   record of the old one, and none is acked while a crash could still
   drop the file.  A failure leaves the writer on the old file. *)
let switch t path =
  let old =
    with_sync_mu t (fun () ->
        if t.closed then failwith "Aof.switch: the log is closed";
        sync_locked t;
        let fd, size = open_file path in
        (try Layout.fsync_dir (Filename.dirname path)
         with e ->
           Unix.close fd;
           raise e);
        Mutex.lock t.mu;
        let old = t.fd in
        t.fd <- fd;
        t.bytes <- t.bytes + size;
        Mutex.unlock t.mu;
        old)
  in
  Unix.close old

let synced_seq t = t.synced_seq
let syncs t = t.syncs

let bytes t =
  Mutex.lock t.mu;
  let b = t.bytes in
  Mutex.unlock t.mu;
  b

(* Final sync then close; the fd is closed whatever the sync does.
   Safe against concurrent [wait_durable]: once [closed] is set, a
   waiter's slow path never reaches the fd, and it raises if its
   record is unsynced (the final sync failed) instead of returning. *)
let close t =
  with_sync_mu t (fun () ->
      if not t.closed then
        Fun.protect
          ~finally:(fun () ->
            t.closed <- true;
            Unix.close t.fd)
          (fun () -> sync_locked t))
