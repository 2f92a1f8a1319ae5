(** Transaction-lifecycle telemetry.

    The paper's performance story is a story about {e why} transactions
    abort: classic [size] aborting against updates (§3.3), elastic
    parses removing false read-validation conflicts (§4.3), snapshot
    reads never aborting anyone (§5.1).  This library makes those
    claims observable: the STM emits one {!event} per lifecycle point
    (begin, read, write, lock acquisition, commit, abort) into a
    pluggable {!sink}, tagged with a full abort-cause taxonomy and a
    per-call-site label, and this module aggregates and exports them.

    The library sits {e below} the STM: it knows nothing about
    transactions beyond the event vocabulary, so [lib/core] can depend
    on it without a cycle.  Timestamps and thread ids are stamped by
    the emitter (virtual ticks and virtual thread ids under the
    simulator — fully deterministic per seed; wall-clock nanoseconds
    and domain ids under real domains).

    Three backends:
    - {!Recorder} — deterministic in-order event log for single-domain
      use (the simulator);
    - {!Ring} — lock-free per-domain ring buffers with padded write
      cursors for {!Polytm_runtime.Domain_runtime}, drained at quiesce;
    - {!Agg} — streaming per-site aggregation when only the summary is
      wanted (no event storage).

    Three exporters ({!Export}): a pretty-printed table, JSON, and the
    Chrome trace-event format loadable in Perfetto / [chrome://tracing]
    with one lane per (virtual) thread. *)

(** {1 Abort-cause taxonomy} *)

type cause =
  | Read_validation  (** classic read-set validation failed *)
  | Lock_busy  (** a needed lock stayed held past the spin budget *)
  | Elastic_cut  (** an elastic cut was impossible: the window broke *)
  | Snapshot_overwrite
      (** every retained version is newer than the snapshot *)
  | Cm_kill  (** the contention manager killed this transaction *)
  | Explicit  (** user abort, [orelse] rollback, or a user exception *)

val all_causes : cause list
(** Every constructor, in declaration order. *)

val num_causes : int

val cause_index : cause -> int
(** Position in {!all_causes}; dense, for counter arrays. *)

val cause_label : cause -> string
(** Stable machine-readable name, e.g. ["read-validation"]. *)

val cause_short : cause -> string
(** <= 5-char column heading for tables, e.g. ["rdval"]. *)

(** {1 Events} *)

type kind =
  | Begin of { sem : string; attempt : int }
      (** transaction attempt start; [attempt] counts from 1 *)
  | Read of { loc : int }  (** shared read of location [loc] *)
  | Write of { loc : int }  (** buffered write to location [loc] *)
  | Lock_acquire of { loc : int }  (** commit-time lock taken *)
  | Commit of { reads : int; writes : int; lock_hold : int }
      (** successful commit; [reads]/[writes] are final set sizes,
          [lock_hold] the ticks between first acquisition and release *)
  | Abort of { cause : cause; reads : int; writes : int }
  | Serialize of { attempt : int }
      (** the transaction escalated to the serial-irrevocable fallback
          (budget exhausted or the adaptive CM gave up on optimism);
          [attempt] is the attempt about to run under the token *)
  | Budget_exhausted of { attempts : int; cause : cause }
      (** a retry budget ran out after [attempts] tries; [cause] is the
          last abort's cause.  Followed by a [Serialize] event when the
          instance's exhaustion policy is to fall back rather than
          raise. *)
  | Park of { locs : int }
      (** a [retry]ing transaction parked on its wait set of [locs]
          locations (the whole instance, for NORec's coarse wakeups).
          Emitted only when the thread actually goes to sleep — a
          pre-park validation failure re-runs immediately and emits
          nothing. *)
  | Wake of { timed_out : bool }
      (** the parked thread resumed: woken by a committing writer
          ([timed_out = false]) or by its deadline ([true]).  Always
          paired with the preceding [Park] on the same thread. *)

type event = {
  time : int;  (** virtual ticks (simulator) or ns (domains) *)
  thread : int;  (** emitting (virtual) thread id *)
  serial : int;  (** transaction-attempt serial *)
  label : string;  (** call-site label from [atomically ~label], or "" *)
  kind : kind;
}

(** {1 Sinks} *)

type sink = { emit : event -> unit }

val null : sink
(** Swallows everything (for plumbing that needs {e a} sink). *)

val fan_out : sink list -> sink
(** Deliver every event to each sink, in list order. *)

(** {1 Backends} *)

(** Deterministic in-order recorder.  Single-writer: use under the
    simulator (one domain) or from one thread.  Two runs of the same
    seeded simulation produce byte-identical event lists. *)
module Recorder : sig
  type t

  val create : ?capacity:int -> ?accesses:bool -> unit -> t
  (** [capacity] bounds retained events (default 2_000_000; later
      events are dropped and counted).  [accesses:false] drops [Read]
      and [Write] events at the door — lifecycle tracing without the
      per-read cost. *)

  val sink : t -> sink
  val events : t -> event list  (** in emission order *)

  val dropped : t -> int
  val clear : t -> unit
end

(** Lock-free per-domain ring buffers.  Each emitting thread writes
    only the lane indexed by its id, so emission is a plain store plus
    a cursor bump; cursors live 16 ints apart (one cache line) to
    avoid false sharing.  A full lane overwrites its oldest events —
    the ring keeps the {e most recent} [capacity] per lane.  Drain
    after all emitters have quiesced (e.g. after [Domain.join]). *)
module Ring : sig
  type t

  val create : ?lanes:int -> ?capacity:int -> unit -> t
  (** [lanes] (default 64) and [capacity] per lane (default 8192) are
      rounded up to powers of two.  Threads are mapped to lanes by
      [thread land (lanes - 1)]; distinct threads sharing a lane can
      lose events but never corrupt memory. *)

  val sink : t -> sink

  val drain : t -> event list
  (** Merge every lane's surviving events, sorted by [(time, thread,
      serial)], and reset the rings.  Call only while no thread is
      emitting. *)

  val overwritten : t -> int
  (** Events lost to lane wrap-around since creation. *)
end

(** {1 Aggregation} *)

module Agg : sig
  type site_stats = {
    site : string;  (** call-site label ("" = unlabelled) *)
    attempts : int;  (** [Begin] events *)
    commits : int;
    aborts : int;
    aborts_by_cause : (cause * int) list;  (** all causes, taxonomy order *)
    retries : int;  (** attempts with attempt number > 1 *)
    lock_acquires : int;
    reads_committed : int;  (** summed read-set sizes at commit *)
    max_read_set : int;  (** largest read set seen at commit or abort *)
    writes_committed : int;  (** summed write-set sizes at commit *)
    lock_hold : int;  (** summed lock-hold ticks over commits *)
  }

  type snapshot = {
    sites : site_stats list;  (** sorted by label *)
    total : site_stats;  (** [site = "TOTAL"] *)
  }

  val abort_count : site_stats -> cause -> int

  type t

  val create : unit -> t

  val sink : t -> sink
  (** Streaming aggregation: counters update per event, nothing is
      stored.  Single-writer like {!Recorder} — under domains,
      aggregate a {!Ring.drain} with {!of_events} instead. *)

  val snapshot : t -> snapshot
  val of_events : event list -> snapshot
end

(** {1 JSON} *)

(** A minimal JSON document builder (no external dependency). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering; strings are escaped per RFC 8259. *)

  val pp : Format.formatter -> t -> unit
end

(** {1 Exporters} *)

module Export : sig
  val pp_table : Format.formatter -> Agg.snapshot -> unit
  (** Pretty-printed per-site table: attempts, commits, aborts by
      cause, retries, read-set sizes, lock-hold ticks. *)

  val snapshot_json : Agg.snapshot -> Json.t
  (** The aggregation snapshot as a JSON object. *)

  val events_json : event list -> Json.t
  (** Raw events as a JSON array (lossless). *)

  val chrome_trace :
    ?process_name:string -> ?extra:Json.t list -> event list -> Json.t
  (** Chrome trace-event JSON ([{"traceEvents": [...]}]) with one lane
      per thread: each transaction attempt becomes a complete ("X")
      slice from its [Begin] to its [Commit]/[Abort], named after its
      call-site label, with serial, semantics, outcome, abort cause
      and set sizes in [args]; lock acquisitions become instant
      events.  Timestamps are emitted as microseconds, so one virtual
      tick displays as 1 µs in Perfetto.  [extra] appends
      caller-supplied trace events verbatim (the server's persist
      lane, for one). *)
end
