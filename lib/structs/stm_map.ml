(** Transactional ordered map: fat leaves under one index.

    Two kinds of tvar hold the map.  One {e index} tvar holds an
    immutable [Map.Make (Int)] from each leaf's high key to that leaf's
    tvar; the last leaf's high key is [max_int].  Each {e leaf} tvar
    holds an immutable record: at most [capacity] sorted keys, their
    values, and the leaf's high key.  A leaf covers the keys above its
    predecessor's high key, up to its own.

    A GET reads two tvars, the index and then one leaf.  A PUT or DEL
    reads the same two and writes one copied leaf.  A fold, or [size],
    reads the index and every leaf: about n/B tvars for n bindings in
    leaves of about B.  A full leaf splits: its lower half stays in its
    tvar under a lower high key and its upper half moves to a new tvar.
    An emptied leaf, other than the last, is written [Dead] and dropped
    from the index, so its successor covers its range.  So at most one
    leaf is empty, and the map holds at most one leaf per binding, plus
    one.

    {b The write rule.}  Every tvar an operation writes is either the
    last read before its first write (the leaf, which it writes first)
    or a read made after that write: a split or an unlink reads the
    index again only once the leaf is written.  An elastic transaction
    validates at commit its last [elastic_window] reads before its
    first write and every read after it, so under any window of 1 or
    more the map validates everything it writes.  The index read that
    a window may drop only located the leaf, and that location cannot
    go wrong.  A leaf's range loses keys only at its top (a split lowers
    its high key) and gains them only at its bottom (its predecessor is
    unlinked), and a [Dead] leaf never comes back.  So a live leaf whose
    high key is at least [k] still covers [k].  A leaf that is [Dead],
    or whose high key is below [k], sends the lookup back to the index.
    The map is therefore correct under whatever semantics a caller
    runs it in; [size], [fold] and [to_list] run in [size_sem], so a
    [Snapshot] map iterates consistently without aborting updaters
    (Section 5.1's Iterator). *)

open Polytm

exception Invariant_violation of string
(** A structural invariant did not hold mid-operation.  Raised {e
    inside} the enclosing transaction, so it propagates through the
    abort path: the attempt's effects are discarded, locks released,
    accounting done — the transaction fails, the process survives.  A
    server catches it per-request and answers a typed error. *)

module Index = Map.Make (Int)

(* Bindings per leaf.  A split leaves two leaves of about half. *)
let capacity = 32

(* Typed [int]: left generic, every probe of the key array would call
   the C primitives [caml_equal] and [caml_lessthan] instead of
   comparing two machine words inline. *)
let rec search (keys : int array) (k : int) lo hi =
  if lo >= hi then -(lo + 1)
  else
    let mid = (lo + hi) lsr 1 in
    let c = Array.unsafe_get keys mid in
    if c = k then mid
    else if c < k then search keys k (mid + 1) hi
    else search keys k lo mid

(* The position of [k] in the sorted [keys], or [-(i + 1)] where [i] is
   the position it would take. *)
let position (keys : int array) (k : int) = search keys k 0 (Array.length keys)

let insert_at a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let remove_at a i =
  let b = Array.sub a 0 (Array.length a - 1) in
  Array.blit a (i + 1) b i (Array.length b - i);
  b

module Make (S : Stm_intf.S) = struct
  type 'v leaf = { keys : int array; vals : 'v array; high : int }
  type 'v slot = Live of 'v leaf | Dead

  type 'v t = {
    stm : S.t;
    index : 'v slot S.tvar Index.t S.tvar;
    size_sem : Semantics.t;
  }

  let create ?(size_sem = Semantics.Classic) stm =
    let last =
      S.tvar stm (Live { keys = [||]; vals = [||]; high = max_int })
    in
    { stm; index = S.tvar stm (Index.singleton max_int last); size_sem }

  (* The leaf covering [k] and its tvar.  A leaf that no longer covers
     [k] was split or unlinked after [idx] was read, and either rewrote
     the index: finding the index unchanged means the map is broken. *)
  let rec locate tx t k stale =
    let idx = S.read tx t.index in
    if idx == stale then
      raise (Invariant_violation "stm_map: a leaf does not cover its range");
    let _, l = Index.find_first (fun h -> h >= k) idx in
    match S.read tx l with
    | Live r when k <= r.high -> (l, r)
    | Live _ | Dead -> locate tx t k idx

  let locate tx t k = locate tx t k Index.empty

  (* Rewrite the index, read again after the leaf [l] was written, from
     [l]'s entry under [high]. *)
  let reindex tx t l high f =
    let idx = S.read tx t.index in
    match Index.find_opt high idx with
    | Some l' when l' == l -> S.write tx t.index (f idx)
    | _ -> raise (Invariant_violation "stm_map: a live leaf is not indexed")

  (* [keys] and [vals], one binding over [capacity], replace the leaf
     [l] whose high key is [high]. *)
  let split tx t l high keys vals =
    let n = Array.length keys in
    let h = n / 2 in
    let mid = keys.(h - 1) in
    S.write tx l
      (Live
         { keys = Array.sub keys 0 h; vals = Array.sub vals 0 h; high = mid });
    let upper =
      S.tvar t.stm
        (Live
           {
             keys = Array.sub keys h (n - h);
             vals = Array.sub vals h (n - h);
             high;
           })
    in
    reindex tx t l high (fun idx -> Index.add mid l (Index.add high upper idx))

  let add t k v =
    S.atomically ~label:"add" t.stm (fun tx ->
        let l, r = locate tx t k in
        let i = position r.keys k in
        if i >= 0 then begin
          let vals = Array.copy r.vals in
          vals.(i) <- v;
          S.write tx l (Live { r with vals });
          false
        end
        else begin
          let i = -i - 1 in
          let keys = insert_at r.keys i k and vals = insert_at r.vals i v in
          if Array.length keys <= capacity then
            S.write tx l (Live { r with keys; vals })
          else split tx t l r.high keys vals;
          true
        end)

  let remove t k =
    S.atomically ~label:"remove" t.stm (fun tx ->
        let l, r = locate tx t k in
        let i = position r.keys k in
        if i < 0 then false
        else begin
          if Array.length r.keys > 1 || r.high = max_int then
            let keys = remove_at r.keys i and vals = remove_at r.vals i in
            S.write tx l (Live { r with keys; vals })
          else begin
            S.write tx l Dead;
            reindex tx t l r.high (Index.remove r.high)
          end;
          true
        end)

  let find_opt t k =
    S.atomically ~label:"find" t.stm (fun tx ->
        let _, r = locate tx t k in
        let i = position r.keys k in
        if i >= 0 then Some r.vals.(i) else None)

  let mem t k = Option.is_some (find_opt t k)

  (* Leaves in key order, as one transaction of [size_sem].  Only a
     fold that cuts its reads (an elastic one) can meet a leaf unlinked
     since it read the index; that leaf held nothing. *)
  let fold_leaves t f init =
    S.atomically ~sem:t.size_sem ~label:"fold" t.stm (fun tx ->
        Index.fold
          (fun _ l acc ->
            match S.read tx l with Live r -> f acc r | Dead -> acc)
          (S.read tx t.index) init)

  let rec fold_bindings f r i acc =
    if i = Array.length r.keys then acc
    else fold_bindings f r (i + 1) (f acc r.keys.(i) r.vals.(i))

  let fold t f init = fold_leaves t (fun acc r -> fold_bindings f r 0 acc) init

  let size t = fold_leaves t (fun n r -> n + Array.length r.keys) 0

  let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

  (* Structure check for tests: see the interface. *)
  let invariants_hold t =
    S.atomically ~label:"invariants" t.stm (fun tx ->
        (* Keys strictly increase from above [lo] (the previous leaf's
           high key, [None] for the first leaf) up to [high]. *)
        let rec ordered keys i lo high =
          i = Array.length keys
          || (let k = keys.(i) in
              (match lo with None -> true | Some p -> p < k)
              && k <= high
              && ordered keys (i + 1) (Some k) high)
        in
        let rec check lo = function
          | [] -> false
          | (high, l) :: rest -> (
              match S.read tx l with
              | Dead -> false
              | Live r ->
                  let n = Array.length r.keys in
                  r.high = high
                  && Array.length r.vals = n
                  && n <= capacity
                  && ordered r.keys 0 lo high
                  &&
                  match rest with
                  | [] -> high = max_int
                  | _ -> n > 0 && check (Some high) rest)
        in
        check None (Index.bindings (S.read tx t.index)))
end
