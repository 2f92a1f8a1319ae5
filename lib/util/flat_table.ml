(* Entries live in insertion order in [keys]/[vals]; [slots] is the
   open-addressed index (entry index or -1) over a power-of-two array;
   [signature] is a 63-bit two-probe Bloom filter of every key ever
   inserted since the last [reset]/[truncate]. *)

type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable vals : 'a array;
  mutable count : int;
  mutable slots : int array;
  mutable mask : int;  (** [Array.length slots - 1]; -1 while empty *)
  mutable signature : int;
  mutable order : int array;  (** scratch for {!ascending} *)
}

let create ?(capacity = 0) dummy =
  {
    dummy;
    keys = (if capacity <= 0 then [||] else Array.make capacity 0);
    vals = (if capacity <= 0 then [||] else Array.make capacity dummy);
    count = 0;
    slots = [||];
    mask = -1;
    signature = 0;
    order = [||];
  }

let[@inline] length t = t.count
let[@inline] is_empty t = t.count = 0

(* Multiplicative mixing: tvar ids are sequential small ints, so
   spread them before masking with a power of two. *)
let[@inline] hash k =
  let h = k * 0x9E3779B1 in
  (h lxor (h lsr 16)) land max_int

(* Two probe bits inside the 63 usable bits of an OCaml int: the first
   in [0,31], the second in [31,62]. *)
let[@inline] key_signature k =
  let h = hash k in
  (1 lsl (h land 31)) lor (1 lsl (31 + ((h lsr 5) land 31)))

let[@inline] maybe_mem t k =
  let s = key_signature k in
  t.signature land s = s

let rec probe t k i =
  match t.slots.(i) with
  | -1 -> -1
  | e when t.keys.(e) = k -> e
  | _ -> probe t k ((i + 1) land t.mask)

(* Entry index for [k], or -1; the Bloom signature screens out misses
   without touching the slot array (the hot case: a transactional read
   of a location never written by this transaction). *)
let[@inline] find t k =
  if t.count = 0 || not (maybe_mem t k) then -1
  else probe t k (hash k land t.mask)

(* Put entry [e] in the first free slot from [i] on.  A top-level loop
   over its arguments: a local closure over the table and the entry
   would be allocated on every insert. *)
let rec place t e i =
  if t.slots.(i) = -1 then t.slots.(i) <- e else place t e ((i + 1) land t.mask)

let rebuild_slots t size =
  t.slots <- Array.make size (-1);
  t.mask <- size - 1;
  for e = 0 to t.count - 1 do
    place t e (hash t.keys.(e) land t.mask)
  done

let grow_entries t =
  let cap = Array.length t.keys in
  if t.count = cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let nkeys = Array.make ncap 0 and nvals = Array.make ncap t.dummy in
    Array.blit t.keys 0 nkeys 0 t.count;
    Array.blit t.vals 0 nvals 0 t.count;
    t.keys <- nkeys;
    t.vals <- nvals
  end

let add t k v =
  if k < 0 then invalid_arg "Flat_table.add: negative key";
  grow_entries t;
  (* Keep the load factor at or below 1/2. *)
  if (t.count + 1) * 2 > t.mask + 1 then
    rebuild_slots t (max 16 ((t.mask + 1) * 2));
  let e = t.count in
  t.keys.(e) <- k;
  t.vals.(e) <- v;
  t.count <- e + 1;
  (* One hash feeds the slot probe and both signature bits. *)
  let h = hash k in
  place t e (h land t.mask);
  t.signature <-
    t.signature lor (1 lsl (h land 31)) lor (1 lsl (31 + ((h lsr 5) land 31)));
  e

let put t k v =
  if k < 0 then invalid_arg "Flat_table.put: negative key";
  let e = find t k in
  if e >= 0 then begin
    t.vals.(e) <- v;
    e
  end
  else add t k v

let key_at t e =
  if e < 0 || e >= t.count then invalid_arg "Flat_table.key_at";
  t.keys.(e)

let value_at t e =
  if e < 0 || e >= t.count then invalid_arg "Flat_table.value_at";
  t.vals.(e)

let iter f t =
  for e = 0 to t.count - 1 do
    f t.keys.(e) t.vals.(e)
  done

(* In-place quicksort (middle pivot, with insertion sort for short
   spans) of the entry-index prefix [order[lo..hi]] keyed by [keys]:
   no allocation, monomorphic int comparisons, well-behaved on the
   already-sorted input of a repeated commit-time iteration. *)
let rec sort_range keys order lo hi =
  if hi - lo < 8 then
    for i = lo + 1 to hi do
      let e = order.(i) and k = keys.(order.(i)) in
      let j = ref (i - 1) in
      while !j >= lo && keys.(order.(!j)) > k do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- e
    done
  else begin
    let pivot = keys.(order.((lo + hi) / 2)) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while keys.(order.(!i)) < pivot do
        incr i
      done;
      while keys.(order.(!j)) > pivot do
        decr j
      done;
      if !i <= !j then begin
        let tmp = order.(!i) in
        order.(!i) <- order.(!j);
        order.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    if lo < !j then sort_range keys order lo !j;
    if !i < hi then sort_range keys order !i hi
  end

(* Keys are unique, so insertion order strictly ascending means the
   sorted order IS the insertion order — the common case for write
   sets built by ordered traversals, worth a linear scan to detect. *)
let inserted_ascending t =
  let ok = ref true in
  let i = ref 1 in
  while !ok && !i < t.count do
    if t.keys.(!i - 1) > t.keys.(!i) then ok := false else incr i
  done;
  !ok

(* The entry indices in ascending key order, in the first [count]
   cells of the reused scratch array: no allocation once it has grown
   to the table's capacity. *)
let ascending t =
  if Array.length t.order < t.count then
    t.order <- Array.make (Array.length t.keys) 0;
  for i = 0 to t.count - 1 do
    t.order.(i) <- i
  done;
  if not (inserted_ascending t) then sort_range t.keys t.order 0 (t.count - 1);
  t.order

let recompute_signature t =
  let s = ref 0 in
  for e = 0 to t.count - 1 do
    s := !s lor key_signature t.keys.(e)
  done;
  t.signature <- !s

let truncate t n =
  if n < 0 then invalid_arg "Flat_table.truncate";
  if n < t.count then begin
    Array.fill t.vals n (t.count - n) t.dummy;
    t.count <- n;
    if t.mask >= 0 then begin
      Array.fill t.slots 0 (t.mask + 1) (-1);
      for e = 0 to t.count - 1 do
        place t e (hash t.keys.(e) land t.mask)
      done
    end;
    recompute_signature t
  end

let reset t =
  if t.count > 0 then begin
    Array.fill t.vals 0 t.count t.dummy;
    if t.mask >= 0 then Array.fill t.slots 0 (t.mask + 1) (-1);
    t.count <- 0;
    t.signature <- 0
  end
