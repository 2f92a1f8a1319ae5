type 'a t = { dummy : 'a; mutable data : 'a array; mutable len : int }

let create ?(capacity = 0) dummy =
  {
    dummy;
    data = (if capacity <= 0 then [||] else Array.make capacity dummy);
    len = 0;
  }

let[@inline] length t = t.len
let[@inline] is_empty t = t.len = 0
let[@inline never] erase t =
  (* Erase, so entries dropped by reuse do not keep dead objects
     reachable across transactions. *)
  Array.fill t.data 0 t.len t.dummy

let[@inline] clear t =
  if t.len > 0 then erase t;
  t.len <- 0

let[@inline] get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  Array.unsafe_get t.data i

let[@inline] set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  Array.unsafe_set t.data i x

let[@inline never] grow t =
  let cap = Array.length t.data in
  let ncap = if cap = 0 then 8 else cap * 2 in
  let ndata = Array.make ncap t.dummy in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let[@inline] push t x =
  if t.len = Array.length t.data then grow t;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let truncate t n =
  if n < 0 then invalid_arg "Vec.truncate";
  if n < t.len then begin
    Array.fill t.data n (t.len - n) t.dummy;
    t.len <- n
  end

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (Array.unsafe_get t.data i)
  done;
  !acc

let filter_in_place keep t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let x = Array.unsafe_get t.data i in
    if keep x then begin
      if !j < i then Array.unsafe_set t.data !j x;
      incr j
    end
  done;
  truncate t !j

let to_array t = Array.sub t.data 0 t.len

let load t arr =
  clear t;
  let n = Array.length arr in
  if n > Array.length t.data then t.data <- Array.make (max n 8) t.dummy;
  Array.blit arr 0 t.data 0 n;
  t.len <- n

let to_list t = List.init t.len (fun i -> Array.unsafe_get t.data i)
