(** Transactional ordered map (AVL tree over per-node transactional
    variables).

    The sequential AVL algorithm, with every mutable field (child
    pointers, heights, values) in a tvar and each operation delimited
    by one transaction — sequential-code preservation on a structure
    with non-trivial rebalancing.  Lookups and updates run classically
    (rotations rewrite several ancestors, which a bounded elastic
    window cannot protect); read-only aggregates ([size], [fold],
    [to_list]) honour [size_sem], so a [Snapshot] map supports
    consistent iteration that never aborts concurrent inserts —
    Section 5.1's Iterator story on a tree.

    An insert or delete retraces as the sequential algorithm does: up
    from the changed leaf only while subtree heights change, a level
    or two on a random tree.  Every ancestor it does not visit is a
    set of reads the transaction neither logs, validates nor conflicts
    on. *)

open Polytm

exception Invariant_violation of string
(** A structural invariant did not hold mid-operation.  Raised {e
    inside} the enclosing transaction, so it propagates through the
    abort path: the attempt's effects are discarded, locks released,
    accounting done — the transaction fails, the process survives.  A
    server catches it per-request and answers a typed error. *)

module Make (S : Stm_intf.S) = struct
  type 'v node = Leaf | Node of 'v cell

  and 'v cell = {
    key : int;
    value : 'v S.tvar;
    left : 'v node S.tvar;
    right : 'v node S.tvar;
    height : int S.tvar;
  }

  type 'v t = { stm : S.t; root : 'v node S.tvar; size_sem : Semantics.t }

  let create ?(size_sem = Semantics.Classic) stm =
    { stm; root = S.tvar stm Leaf; size_sem }

  let node_height tx = function
    | Leaf -> 0
    | Node c -> S.read tx c.height

  (* What an update did to the subtree it ran on: nothing (the key was
     already bound, for [add]; absent, for [remove]), a change of shape
     at the same height, or a change of height.  Only the last makes
     the parent retrace: its balance and height are functions of its
     children's heights alone. *)
  type change = Unchanged | Same_height | New_height

  let left c = c.left
  let right c = c.right

  let set_height tx c ~old h = if h <> old then S.write tx c.height h

  (* [c], the root of the subtree in [ptr] with stored height [h0], has
     a child [x] (the node [xn], height [hx]) on the side [near]
     selects, two taller than its sibling of height [hf] on the side
     [far] selects.  Rotate [x] up, first rotating [x]'s [far] child up
     inside it when that grandchild is the taller one, and return the
     subtree's new height.  A height is written only where it changed.
     [xa]/[xb] are [x]'s near and far children, [ya]/[yb] those of the
     double rotation's pivot [y]. *)
  let rotate tx ptr c ~h0 ~near ~far xn x ~hx ~hf =
    let xa = S.read tx (near x) in
    let xb = S.read tx (far x) in
    let ha = node_height tx xa in
    let hb = node_height tx xb in
    if ha >= hb then begin
      S.write tx (near c) xb;
      let hc = 1 + max hb hf in
      set_height tx c ~old:h0 hc;
      S.write tx (far x) (Node c);
      let h = 1 + max ha hc in
      set_height tx x ~old:hx h;
      S.write tx ptr xn;
      h
    end
    else
      match xb with
      | Leaf ->
          raise
            (Invariant_violation
               "stm_map.rebalance: the taller grandchild is empty")
      | Node y ->
          let ya = S.read tx (near y) in
          let yb = S.read tx (far y) in
          let hya = node_height tx ya in
          let hyb = node_height tx yb in
          S.write tx (far x) ya;
          let hx' = 1 + max ha hya in
          set_height tx x ~old:hx hx';
          S.write tx (near c) yb;
          let hc = 1 + max hyb hf in
          set_height tx c ~old:h0 hc;
          S.write tx (near y) xn;
          S.write tx (far y) (Node c);
          let h = 1 + max hx' hc in
          set_height tx y ~old:hb h;
          S.write tx ptr xb;
          h

  (* Restore the AVL invariant at [c], the cell in [ptr], after one
     child subtree changed height by one.  Each child's height is read
     once.  Returns whether the subtree's height changed: when it did
     not, no ancestor's balance or height can have, so the caller stops
     retracing there. *)
  let rebalance tx ptr c =
    let l = S.read tx c.left in
    let r = S.read tx c.right in
    let hl = node_height tx l in
    let hr = node_height tx r in
    let h0 = S.read tx c.height in
    let h =
      match (l, r) with
      | Node x, _ when hl > hr + 1 ->
          rotate tx ptr c ~h0 ~near:left ~far:right l x ~hx:hl ~hf:hr
      | _, Node x when hr > hl + 1 ->
          rotate tx ptr c ~h0 ~near:right ~far:left r x ~hx:hr ~hf:hl
      | _ ->
          let h = 1 + max hl hr in
          set_height tx c ~old:h0 h;
          h
    in
    h <> h0

  (* Retrace one level up from a child subtree that underwent [change]. *)
  let retrace tx ptr c = function
    | New_height -> if rebalance tx ptr c then New_height else Same_height
    | (Unchanged | Same_height) as change -> change

  let make_cell stm k v =
    {
      key = k;
      value = S.tvar stm v;
      left = S.tvar stm Leaf;
      right = S.tvar stm Leaf;
      height = S.tvar stm 1;
    }

  let add t k v =
    S.atomically ~label:"add" t.stm (fun tx ->
        let rec go ptr =
          match S.read tx ptr with
          | Leaf ->
              S.write tx ptr (Node (make_cell t.stm k v));
              New_height
          | Node c ->
              if k = c.key then begin
                S.write tx c.value v;
                Unchanged
              end
              else retrace tx ptr c (go (if k < c.key then c.left else c.right))
        in
        go t.root <> Unchanged)

  let find_opt t k =
    S.atomically ~label:"find" t.stm (fun tx ->
        let rec go ptr =
          match S.read tx ptr with
          | Leaf -> None
          | Node c ->
              if k = c.key then Some (S.read tx c.value)
              else go (if k < c.key then c.left else c.right)
        in
        go t.root)

  let mem t k = Option.is_some (find_opt t k)

  (* Unlink the minimum cell of the subtree rooted at [c] in [ptr];
     returns it and whether the subtree's height changed. *)
  let rec take_min tx ptr c =
    match S.read tx c.left with
    | Leaf ->
        S.write tx ptr (S.read tx c.right);
        (c, true)
    | Node l ->
        let m, shrank = take_min tx c.left l in
        (m, shrank && rebalance tx ptr c)

  let remove t k =
    S.atomically ~label:"remove" t.stm (fun tx ->
        let rec go ptr =
          match S.read tx ptr with
          | Leaf -> Unchanged
          | Node c -> (
              if k <> c.key then
                retrace tx ptr c (go (if k < c.key then c.left else c.right))
              else
                match (S.read tx c.left, S.read tx c.right) with
                | Leaf, other | other, Leaf ->
                    S.write tx ptr other;
                    New_height
                | (Node _ as l), Node r ->
                    (* Replace by the successor: splice the right
                       subtree's minimum into this slot, in a cell
                       that starts at the removed node's height so
                       that [rebalance] sees exactly whether the
                       height changed. *)
                    let m, shrank = take_min tx c.right r in
                    let cell =
                      {
                        key = m.key;
                        value = S.tvar t.stm (S.read tx m.value);
                        left = S.tvar t.stm l;
                        right = S.tvar t.stm (S.read tx c.right);
                        height = S.tvar t.stm (S.read tx c.height);
                      }
                    in
                    S.write tx ptr (Node cell);
                    if shrank then retrace tx ptr cell New_height
                    else Same_height)
        in
        go t.root <> Unchanged)

  let fold t f init =
    S.atomically ~sem:t.size_sem ~label:"fold" t.stm (fun tx ->
        let rec go acc ptr =
          match S.read tx ptr with
          | Leaf -> acc
          | Node c ->
              let acc = go acc c.left in
              let acc = f acc c.key (S.read tx c.value) in
              go acc c.right
        in
        go init t.root)

  let size t = fold t (fun n _ _ -> n + 1) 0

  let to_list t = List.rev (fold t (fun acc k v -> (k, v) :: acc) [])

  (* Structure check for tests: AVL balance and key order. *)
  let invariants_hold t =
    S.atomically ~label:"invariants" t.stm (fun tx ->
        let rec check lo hi ptr =
          match S.read tx ptr with
          | Leaf -> Some 0
          | Node c -> (
              if (match lo with Some l -> c.key <= l | None -> false) then None
              else if (match hi with Some h -> c.key >= h | None -> false)
              then None
              else
                match
                  (check lo (Some c.key) c.left, check (Some c.key) hi c.right)
                with
                | Some hl, Some hr when abs (hl - hr) <= 1 ->
                    let h = 1 + max hl hr in
                    if S.read tx c.height = h then Some h else None
                | _ -> None)
        in
        Option.is_some (check None None t.root))
end
