(** Transactional ordered map: an AVL tree whose mutable fields live in
    transactional variables.

    Lookups and updates are classic transactions (rebalancing rewrites
    several ancestors — outside any bounded elastic window); [size],
    [fold] and [to_list] honour [size_sem], so a [Snapshot] map gives
    consistent iteration that never aborts concurrent updaters
    (Section 5.1's Iterator, on a tree). *)

open Polytm

exception Invariant_violation of string
(** A structural invariant did not hold mid-operation (e.g. cached
    heights that call for a double rotation whose pivot is empty — a
    rebalance bug).  Raised inside the enclosing transaction so the attempt's
    effects are discarded through the ordinary abort path: the
    transaction fails, the process survives, and a server can answer a
    typed error instead of dying. *)

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
  (** Structural self-check (AVL balance, key order, cached heights);
      used by the property tests. *)
end
