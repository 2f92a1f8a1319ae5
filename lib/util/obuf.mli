(** A grow-only byte writer whose backing store is handed straight to
    [Unix.write]: no [Buffer.contents] copy, no per-frame string.

    One writer serves every byte the server produces: replies, request
    frames and the op log's and checkpoints' records.  [start] tracks
    the flushed prefix, so a partial write resumes where it stopped and
    the writer resets to offset 0 once drained.  Positions
    ({!length}, {!truncate}) are offsets into the backing store, stable
    across growth.

    Encoders size what they write first, {!reserve} it once, and write
    it with unchecked stores: writing past a reservation corrupts
    memory, so every caller's sizing is held byte for byte to a
    reference encoder by the tests. *)

type t = { mutable buf : Bytes.t; mutable start : int; mutable len : int }
(** [buf] holds the pending bytes from [start] to [len] ([0 <= start <=
    len <= Bytes.length buf]).  The fields are visible so that an
    encoder in another module can store a byte or a string inside a
    reservation without a call per store (the server is built without
    cross-module inlining); such an encoder writes at [len] and moves
    [len] past what it wrote, and nothing else.  Only this module
    replaces [buf] or moves [start]. *)

val create : ?initial:int -> unit -> t
val clear : t -> unit

val length : t -> int
(** Total encoded bytes (including any already-flushed prefix). *)

val pending : t -> int
(** Bytes encoded but not yet consumed. *)

val contents : t -> string
(** Copy of the pending region — tests and diagnostics only. *)

val peek : t -> Bytes.t * int * int
(** [(buf, off, len)] of the pending region, for the caller's own
    [write].  Valid until the next mutation. *)

val consumed : t -> int -> unit
(** Mark [n] pending bytes written; the writer resets to offset 0 once
    fully drained. *)

val truncate : t -> int -> unit
(** [truncate t n] cuts the written bytes back to length [n], between
    the flushed prefix and {!length}: how a record that fails midway
    is taken back.
    @raise Invalid_argument outside that range. *)

(** {1 Checked appends} *)

val add_string : t -> string -> unit

val add_obuf : t -> t -> unit
(** [add_obuf t src] appends [src]'s pending region. *)

(** {1 Sized writing} *)

val int_width : int -> int
(** Decimal width of an int, sign included: what {!unsafe_add_int}
    writes. *)

val reserve : t -> int -> unit
(** Make room for [n] more bytes past [len]: the stores that follow may
    write that many, unchecked. *)

val unsafe_add_int : t -> int -> unit
(** The decimal form of an int, {!int_width} bytes, inside a
    reservation, with no [string_of_int] string ([min_int]
    included). *)
