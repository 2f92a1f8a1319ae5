(** The live op log of one durable server: its one writer, which a
    checkpoint switches from each generation's file to the next, the
    commit-hook arming protocol, the group-commit wait, and the
    counters and trace spans that INFO, [--stats-json] and the trace
    all read.

    One value per server, held by the server's registry; the session
    and the registry call it directly.  Checkpoints, recovery and
    activation live above the registry (the server's [Persist]): they
    rotate this log, report each published generation to it, and time
    their own work on its trace lane.  The generation bookkeeping — the
    published generation versus the one appends go to, when a save
    counts — stays in here.

    {2 Arming}

    Every acknowledged mutation becomes one log record whose payload
    is the mutation's hint-free request frames: the commands the
    session armed, re-encoded by the encoder given to {!create} (one
    frame per mutation of a [MULTI] batch; a [BLPOP] or [BTAKE] armed
    as the [DEQ] it performs).  Append order must equal commit
    (serialization) order or replay diverges, and no post-commit
    scheme can guarantee that: two sessions can commit dependent
    transactions and reach their append calls in the opposite order.
    So the append happens {e inside} the STM commit, from the commit
    hook ({!hook}), while the commit still holds its locks (TL2) or
    sequence lock (NOrec): no dependent commit can start until the
    record is buffered, so the log is a linear extension of the store's
    serialization order.  The hook only learns the commit stamp;
    {e what} to log is armed per thread beforehand ({!arm}) and
    collected after ({!finish}).  The hook frames the record straight
    into the log's buffer, encoding the armed commands there, so a
    transaction that never write-commits (a [DEL] of an absent key, a
    failed op) encodes nothing and logs nothing, which is exactly
    right because nothing changed.

    Arming state lives in one slot per log and per systhread, reached
    through the runtime's per-thread lookup
    ([Polytm_runtime.Domain_runtime.tls], the one that holds the STM's
    per-thread context): [arm] fills the calling thread's slot, the
    hook empties it and leaves its ticket there (the record's sequence
    number), [finish] disarms it and returns the ticket.  Per
    systhread, not per domain, because one domain can run several
    threads that commit (a BGSAVE's checkpoint runs beside its loop
    thread, and tests arm two threads of one domain); per log, because
    two servers in one process must never log each other's
    commands. *)

type 'c t
(** A log whose records' payloads are written from commands of type
    ['c]. *)

val create :
  dir:string ->
  policy:Aof.policy ->
  encode:(Polytm_util.Obuf.t -> 'c list -> unit) ->
  gen:int ->
  replayed:int ->
  recover_ms:float ->
  tear:string ->
  'c t
(** Open generation [gen]'s log in [dir].  [encode] writes a record's
    payload from the commands it logs.  [replayed], [recover_ms] and
    [tear] ("none", or where recovery cut the log) describe the
    recovery that preceded it, for INFO. *)

val dir : _ t -> string
val policy : _ t -> Aof.policy

val gen : _ t -> int
(** The published (manifest) generation. *)

val last_save : _ t -> float
(** Unix time of the last published checkpoint. *)

(** {1 The commit path} *)

val arm : 'c t -> 'c list -> unit
(** Arm the calling thread's slot with a mutation's commands, dropping
    any ticket it still holds: the next write commit {e on this
    thread} appends them.  Arm and finish must run on the thread that
    commits. *)

val finish : _ t -> int
(** Disarm the calling thread's slot and return its ticket: the
    sequence number of the record its armed commands were appended as
    (the op mutated and committed), or 0 when nothing was appended.
    Sequence numbers run on one sequence for the log's whole life,
    across checkpoints.  Allocates nothing. *)

val hook : _ t -> algo:int -> shard:int -> int -> unit
(** The commit hook for instance ([algo] code, [shard]), given the
    commit stamp.  Runs inside the commit critical section: brief,
    never raises (a failure, the encoder's included, counts in
    [hook_errors] and leaves no partial record), runs no transaction.
    An armed thread frames its record in place under the writer's
    append lock and leaves the ticket in its slot; an unarmed one
    (internal commits: dirty marks, a watch taking its marks) pays
    one per-thread lookup and takes no lock. *)

val log_new : 'c t -> algo:[ `Tl2 | `Norec ] -> 'c list -> unit
(** Append a structure-creation record; the payload is the [NEW]
    command's frame.  Creations are registry CAS publications, not
    commits, so [Registry.ensure] logs them directly, {e before} the
    CAS publishes the name: a racing session can only reach the
    structure after the CAS, so its op records always follow the NEW
    record, and the CAS loser's duplicate NEW replays as an idempotent
    ensure. *)

val wait_durable : _ t -> int -> unit
(** Block until record [seq] is fsynced (group commit: one fsync
    covers every record buffered before it).  Raises once an fsync
    has failed ({!Aof.wait_durable}). *)

val tick : _ t -> unit
(** The once-a-second group sync behind [`Everysec], called from the
    server's background thread.  A sync that fails with a
    [Unix.Unix_error] counts in [sync_errors] and returns: after a
    failed write (ENOSPC, EIO) its records stay buffered and the next
    tick retries; after a failed fsync every tick fails and counts. *)

val close : _ t -> unit
(** Shutdown: sync whatever the final acks left buffered, and close;
    the file is closed even when that sync raises. *)

val writer : _ t -> Aof.t
(** The log's one writer, for tests that fail its file's I/O. *)

(** {1 Checkpoints} *)

val checkpointing : _ t -> (unit -> 'a) -> 'a option
(** Run the function as this server's only running checkpoint;
    [None], without running it, while another one runs. *)

val rotate : _ t -> gen:int -> unit
(** Switch the writer to generation [gen]'s log ({!Aof.switch}): what
    it buffers is synced to the old file, and every record appended
    from then on goes to the new one, on the same sequence.  A no-op
    when appends already go to [gen]: the retry of a failed checkpoint
    reuses the log it rotated to. *)

val published : _ t -> gen:int -> unit
(** A checkpoint of generation [gen] is on disk and the manifest names
    it: count it, and report [gen] and the time from now on. *)

val checkpoint_failed : _ t -> unit
(** A checkpoint failed before it was published: count it in
    [checkpoint_errors].  Call it inside {!checkpointing}. *)

(** {1 What INFO, [--stats-json] and the trace read} *)

type span = { name : string; ts_us : int; dur_us : int }

val now_us : unit -> int

val span : _ t -> name:string -> ts_us:int -> dur_us:int -> unit
(** Record a completed span (a checkpoint, a recovery, an fsync, a
    wait for one) on this server's trace lane.  Lock-free; the oldest
    spans are overwritten past a fixed capacity. *)

val spans : _ t -> span list
(** The recorded spans, oldest first. *)

val counters : _ t -> (string * int) list
(** [--stats-json]'s [persist] section: [appends], [bytes] (framed log
    bytes of every generation's file, magic included), [fsyncs],
    [synced_seq] (the last record an fsync covers, on the appends'
    sequence), [replayed], [checkpoints] (published),
    [checkpoint_errors] ({!checkpoint_failed}), [hook_errors],
    [sync_errors] (failed {!tick} syncs). *)

val info : _ t -> (string * string) list
(** INFO's [persist_*] lines: [persist_dir], [persist_fsync],
    [persist_gen], each of {!counters} as [persist_<name>], and
    [persist_last_save], [persist_recover_ms], [persist_tear]. *)
