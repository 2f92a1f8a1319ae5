(** Transactional ordered map: fat leaves under one index.

    One index tvar maps each leaf's high key to the leaf's tvar; each
    leaf tvar holds at most 32 sorted bindings and its high key.  A
    lookup reads two tvars, an update reads the same two and writes one
    copied leaf, and a fold reads the index and about n/32 leaves.  A
    full leaf splits and an emptied leaf other than the last is
    unlinked, so the map holds at most one leaf per binding, plus one.

    Every operation is correct under whatever semantics the caller
    runs it in: [Classic], [Elastic] with any window of 1 or more, or
    [Snapshot] for the read-only ones.  Each tvar an operation writes
    is its last read before its first write or a read made after it,
    so an elastic window validates everything the operation writes.
    [size], [fold] and [to_list] honour [size_sem], so a [Snapshot] map
    gives consistent iteration that never aborts concurrent updaters
    (Section 5.1's Iterator). *)

open Polytm

exception Invariant_violation of string
(** A structural invariant did not hold mid-operation (e.g. a live
    leaf missing from the index).  Raised inside the enclosing
    transaction so the attempt's effects are discarded through the
    ordinary abort path: the transaction fails, the process survives,
    and a server can answer a typed error instead of dying. *)

module Make (S : Stm_intf.S) : sig
  type 'v t

  val create : ?size_sem:Semantics.t -> S.t -> 'v t

  val add : 'v t -> int -> 'v -> bool
  (** [add m k v] binds [k] to [v]; [false] when [k] was already bound
      (the value is replaced either way). *)

  val remove : 'v t -> int -> bool
  val find_opt : 'v t -> int -> 'v option
  val mem : 'v t -> int -> bool

  val size : 'v t -> int
  (** Atomic (or snapshot-consistent) binding count. *)

  val fold : 'v t -> ('a -> int -> 'v -> 'a) -> 'a -> 'a
  (** In-order fold, as one transaction of [size_sem]. *)

  val to_list : 'v t -> (int * 'v) list
  (** Bindings in ascending key order. *)

  val invariants_hold : 'v t -> bool
  (** Structural self-check, used by the property tests: the index's
      keys are the leaves' high keys and end at [max_int]; each leaf's
      keys strictly increase and lie above the previous leaf's high key
      and at or below its own; no leaf holds more than 32 bindings; no
      unlinked leaf is indexed; and no leaf but the last is empty. *)
end
