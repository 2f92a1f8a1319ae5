(** An open-addressed, int-keyed hash table with a Bloom-style
    signature fast path and insertion-order entry storage.

    Built for the STM's write set:

    - {!find} is screened by a 63-bit two-probe signature, so a lookup
      for a key that was never inserted — the overwhelmingly common
      case, a transactional read of an unwritten location — usually
      costs two bit operations and no memory probe;
    - entries keep a dense insertion-order index ([0 .. length-1]):
      values can be updated in place through {!set_at} without
      re-hashing, and a savepoint is just the current {!length} plus
      the saved values;
    - {!ascending} lists the entries in ascending key order (the
      STM's deadlock-free lock-acquisition order) in a reusable scratch
      array — no per-commit allocation;
    - {!reset} and {!truncate} keep the backing stores, so a retrying
      transaction reuses its descriptor.

    Keys must be non-negative.  Not thread-safe: one table belongs to
    one transaction descriptor. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy] makes an empty table.  [dummy] fills unused value
    slots; it is never returned by the accessors. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val maybe_mem : 'a t -> int -> bool
(** Signature test: [false] means the key is definitely absent;
    [true] means a {!find} probe is needed (false positives shrink as
    the table stays small). *)

val find : 'a t -> int -> int
(** Entry index of the key, or [-1] when absent.  Includes the
    signature fast path. *)

val put : 'a t -> int -> 'a -> int
(** Insert or overwrite; returns the entry index.
    @raise Invalid_argument on a negative key. *)

val add : 'a t -> int -> 'a -> int
(** Insert a key the caller knows is absent (e.g. after a negative
    {!find}), skipping the duplicate check; returns the entry index.
    Inserting a present key this way corrupts the table.
    @raise Invalid_argument on a negative key. *)

val key_at : 'a t -> int -> int
val value_at : 'a t -> int -> 'a
val set_at : 'a t -> int -> 'a -> unit
(** Entry accessors by dense index; indices are stable until
    {!truncate} or {!reset}.
    @raise Invalid_argument outside [0, length). *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Insertion order. *)

val ascending : 'a t -> int array
(** The entry indices in ascending key order (commit-time lock
    acquisition): the first {!length} cells of the returned array,
    which is scratch owned by the table — reused by the next call,
    valid until the table next changes.  The loop a caller writes over
    it allocates no closure. *)

val truncate : 'a t -> int -> unit
(** Drop every entry with index >= [n] (savepoint rollback), rebuild
    the index and tighten the signature. *)

val reset : 'a t -> unit
(** Empty the table, keeping capacity. *)
