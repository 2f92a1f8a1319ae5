(** Wire protocol of [polytmd] — a pure, incremental codec.

    The protocol is RESP-inspired, length-prefixed text: every message
    travels in a {e frame}

    {v #<body-bytes>\n<body> v}

    whose header states the exact byte length of the body.  A request
    body is an array of bulk strings ([*<n>\n] then [n] fields, each
    [$<len>\n<bytes>\n]); the first field may be a semantics hint
    ([~classic] / [~elastic] / [~snapshot]) — the paper's tx-begin
    hint, carried across the process boundary — followed by the
    operation name and its arguments.  A response body is typed by its
    first byte: [+] simple string, [:] integer, [$] bulk, [_] nil,
    [-<CODE> <msg>] error, [*] array.

    The outer length prefix is what keeps a malformed body from
    desynchronising the stream: the decoder always knows where the
    next frame starts, so a frame whose body fails to parse is
    consumed whole and surfaced as a typed [`Bad] item — the session
    answers with a protocol-error reply and keeps going.  Only a
    corrupt {e header} (the framing itself is gone) is unrecoverable:
    the decoder latches [`Corrupt] and the session closes the
    connection.

    This module performs no I/O and touches no sockets: encoders
    append to a caller-supplied {!Obuf.t}, the decoder is fed byte
    slices and hands back parsed frames.  That is what makes it
    testable by the qcheck round-trip/fuzz suite without a file
    descriptor in sight. *)

(** {1 Requests} *)

type kind = Kmap | Kset | Kqueue
(** The three hostable structure families, backed by
    [Polytm_structs]'s [Stm_map], [Stm_hash_set] and [Stm_queue]. *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

type cmd =
  | Ping
  | New of kind * string  (** create (idempotently) a named structure *)
  | Get of string * int  (** map lookup *)
  | Put of string * int * string  (** map bind; replies 1 if the key is new *)
  | Del of string * int  (** map unbind; replies 1 if the key existed *)
  | Contains of string * int  (** membership: map or set *)
  | Add of string * int  (** set insert; replies 1 if absent before *)
  | Remove of string * int  (** set delete; replies 1 if present before *)
  | Size of string  (** element count: map, set or queue *)
  | Snapshot_iter of string
      (** consistent full iteration; defaults to [Snapshot] semantics *)
  | Enq of string * string  (** queue push-back *)
  | Deq of string  (** queue pop-front; bulk or nil *)
  | Blpop of string * int
      (** blocking queue pop-front with a timeout in milliseconds
          ([0] = wait indefinitely): parks the session's transaction on
          the empty queue until a producer's commit fills it, then
          replies [Array [Bulk name; Bulk value]]; replies [Nil] on
          timeout or server drain.  Refused inside [MULTI] and bounced
          [BUSY] when the server-wide waiter budget is spent. *)
  | Btake of string * int
      (** like {!Blpop} but replies the bare [Bulk value] *)
  | Watch of string
      (** subscribe to change notifications for a structure: after a
          transaction that mutates it commits, the session emits a
          [Push] frame carrying the structure's name.  Notifications
          coalesce, they do not queue: the commits made before the
          session next takes its marks yield one push.  A push frame
          is one line, so a name holding a newline is refused with
          [Bad_op]. *)
  | Unwatch of string  (** drop a {!Watch} subscription *)
  | Multi  (** open a batch: following commands queue up *)
  | Multi_end
      (** execute the queued batch as {e one} transaction; replies an
          array with one element per queued command *)
  | Info
      (** server introspection: replies one [Bulk] of "key:value"
          lines — uptime, per-structure op counts (keyed
          [struct_"name"], the name quoted as [%S] quotes it, so no
          name can end a line), waiting gauge, and (when durability is
          on) persist stats — so smoke jobs and operators need not
          scrape [--stats-json] files *)
  | Bgsave
      (** force a checkpoint now: folds every structure inside a
          snapshot transaction (writers stay live) and truncates the
          op log up to the captured bound vector; replies [Simple
          "OK"] when the checkpoint is published, an [Err] when
          persistence is off or a checkpoint is already running *)
  | Lastsave
      (** unix time (seconds) of the last published checkpoint, [Int
          0] if none yet; [Err] when persistence is off *)
  | Debug_abort of { budget : int option; deadline_us : int option }
      (** test/probe op (disabled unless the server enables debug ops):
          a transaction that explicitly aborts every attempt, so the
          budget-exhaustion and deadline reply paths can be exercised
          deterministically *)

type request = { hint : Polytm.Semantics.t option; cmd : cmd }
(** [hint] is the per-request transaction-semantics hint; [None] lets
    the server pick the operation's default ([Snapshot] for
    {!Snapshot_iter}, [Classic] otherwise). *)

val cmd_name : cmd -> string
(** Wire operation name, e.g. ["SNAPSHOT-ITER"]. *)

val is_mutation : cmd -> bool
(** Whether the command can change a structure's contents — the set
    the durability layer arms for op-log appends.  Conditional
    mutations ([DEQ] of an empty queue) count: arming is free when the
    transaction commits read-only. *)

(** {1 Responses} *)

(** Typed error codes, one per failure family the session can report. *)
type err_code =
  | Proto  (** malformed frame or unparsable command *)
  | Busy  (** backpressure: the in-flight limit was exceeded *)
  | Deadline  (** the per-op deadline passed ([Deadline_exceeded]) *)
  | Exhausted  (** the per-op retry budget ran out ([Exhausted]) *)
  | No_struct  (** unknown structure name *)
  | Bad_op  (** operation/structure kind mismatch, or misuse *)
  | Sem_violation
      (** the semantics hint forbids the operation (e.g. a write under
          a [~snapshot] hint) *)

val err_code_to_string : err_code -> string
val err_code_of_string : string -> err_code option

type response =
  | Simple of string  (** status line; must contain no newline *)
  | Int of int
  | Bulk of string  (** arbitrary bytes *)
  | Nil
  | Error of err_code * string
  | Array of response list
  | Push of string
      (** server-initiated notification ([>name] on the wire): the
          watched structure [name] changed.  Unlike every other
          response it is {e not} paired with a request — clients with
          active watches must tolerate [Push] frames between replies
          (replies to their own requests still arrive in order). *)

val ok : response
val pong : response
val queued : response

(** {1 Encoding}

    Encoders append one complete frame.  Each frame is sized first and
    reserved once, then written with the writer's unchecked stores:
    a single pass with no intermediate buffers. *)

module Obuf = Polytm_util.Obuf
(** The server's one byte writer: replies, request frames and the op
    log's records all go through it. *)

val write_request : Buffer.t -> request -> unit
(** One request frame, appended to a [Buffer.t] (for clients and
    tests). *)

val write_cmds : Obuf.t -> cmd list -> unit
(** The hint-free request frames of the commands, concatenated: the
    payload of an op-log or checkpoint record, parsed back on replay
    by {!iter_requests}. *)

val iter_requests :
  (request -> unit) -> Bytes.t -> int -> int -> [ `Ok | `Partial | `Bad of string ]
(** [iter_requests f buf off len] parses the request frames that fill
    the [len] bytes of [buf] from [off] (a record's payload) where they
    lie, with the parser and the frame-header scan of {!Decoder}, and
    calls [f] on each in order; [f] must not modify [buf].  It stops at
    the first frame that does not parse: [`Partial] when the region
    ends inside a frame, [`Bad m] when a frame's header or body is
    malformed. *)

val write_response_obuf : Obuf.t -> response -> unit
(** One complete frame, with no intermediate allocation.
    @raise Invalid_argument, writing nothing, if a {!Simple}, {!Error}
    or {!Push} payload contains a newline (they are line-delimited on
    the wire). *)

(** Body-fragment writers for streaming encoders: a producer that
    knows its output is one big array (the snapshot fast path) can
    encode items into a scratch {!Obuf} as it walks the structure and
    wrap them with {!write_framed_array}, never materialising the
    response tree.  The emitted bytes equal
    [write_response_obuf ob (Array items)]. *)

val obuf_add_int_item : Obuf.t -> int -> unit
(** [:n\n] *)

val obuf_add_bulk : Obuf.t -> string -> unit
(** [$len\nbytes\n] *)

val obuf_add_array_header : Obuf.t -> int -> unit
(** [*n\n] *)

val write_framed_array : Obuf.t -> count:int -> items:Obuf.t -> unit
(** Frame header + [*count\n] + the pre-encoded [items] body. *)

(** {1 Incremental decoding} *)

val default_max_frame : int
(** 8 MiB: the most body bytes a decoder accepts in one frame unless
    {!Decoder.create} says otherwise. *)

module Decoder : sig
  type t

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] (default {!default_max_frame}) bounds a single
      frame's body; a header announcing more is treated as corrupt, so
      a hostile peer cannot make the decoder buffer unboundedly. *)

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t b off len] appends bytes; call after every read. *)

  val feed_string : t -> string -> unit

  val reserve : t -> int -> Bytes.t * int
  (** [reserve t n] makes room for [n] more bytes and returns the
      internal buffer with its fill offset, so a [read] can deposit
      bytes directly (no intermediate buffer, no {!feed} blit).
      Follow with {!commit}.  The pair is invalidated by any other
      decoder call. *)

  val commit : t -> int -> unit
  (** Publish [n] bytes deposited after {!reserve}. *)

  val buffered : t -> int
  (** Bytes fed and not yet consumed as frames. *)

  type 'a item =
    [ `Ok of 'a  (** a well-formed frame *)
    | `Bad of string
      (** a complete frame whose body is malformed; the frame has been
          consumed and the stream remains synchronised *)
    | `Await  (** no complete frame buffered yet *)
    | `Corrupt of string
      (** the framing itself is broken; the decoder is latched dead
          and every further call returns [`Corrupt] *) ]

  val next_request : t -> request item
  (** The next request, scanned and parsed in one pass where it lies in
      the buffer.  Only a structure name or a value is copied out, so
      the result never aliases the buffer. *)

  val next_response : t -> response item

  val next_response_brief : t -> [ `Value | `Nil | `Busy | `Err ] item
  (** Consume the next response frame returning only its class, the
      ones a load generator counts: errors split on the [BUSY] code,
      and [Nil].  The body is skipped in O(1): a snapshot reply of
      thousands of items costs one frame-length hop, so the measuring
      client never becomes the bottleneck it is measuring. *)
end
