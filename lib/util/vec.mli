(** A reusable growable flat array.

    The STM's read set and undo/cleanup logs are [Vec]s: a push per
    transactional read with no per-entry allocation (amortised array
    doubling only), validation as a cache-friendly array scan, and
    [clear]/[truncate] that keep the backing store so a retrying
    transaction reuses its descriptor instead of reallocating it.

    Cleared or truncated slots are overwritten with the [dummy]
    element passed at creation, so dropped entries do not keep dead
    objects reachable across reuses. *)

type 'a t

val create : ?capacity:int -> 'a -> 'a t
(** [create dummy] makes an empty vector.  [dummy] fills unused
    capacity; it is never returned by the accessors. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument outside [0, length). *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument outside [0, length). *)

val push : 'a t -> 'a -> unit
(** Append, doubling the backing store when full. *)

val clear : 'a t -> unit
(** Empty the vector, keeping its capacity. *)

val truncate : 'a t -> int -> unit
(** [truncate t n] drops every element at index >= [n]; no effect when
    [n >= length t]. *)

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val filter_in_place : ('a -> bool) -> 'a t -> unit
(** Keep only elements satisfying the predicate, preserving order,
    compacting in place (the STM's early release). *)

val to_array : 'a t -> 'a array
(** Fresh array copy of the live elements (savepoints). *)

val load : 'a t -> 'a array -> unit
(** Replace the contents with a copy of the array (savepoint
    restore). *)

val to_list : 'a t -> 'a list
