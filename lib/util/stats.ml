type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

  (* Welford's online update: numerically stable single-pass variance. *)
  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let summary t =
    { n = t.n; mean = t.mean; stddev = stddev t; min = t.min; max = t.max }
end

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let percentile data p =
  if Array.length data = 0 then invalid_arg "Stats.percentile: empty data";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy data in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median data = percentile data 50.

type histogram = {
  bucket_width : float;
  lo : float;
  counts : int array;
}

let histogram ~buckets ~lo ~hi data =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  if hi <= lo then invalid_arg "Stats.histogram: hi must exceed lo";
  let width = (hi -. lo) /. float_of_int buckets in
  let counts = Array.make buckets 0 in
  let clamp i = Stdlib.max 0 (Stdlib.min (buckets - 1) i) in
  Array.iter
    (fun x ->
      let i = clamp (int_of_float ((x -. lo) /. width)) in
      counts.(i) <- counts.(i) + 1)
    data;
  { bucket_width = width; lo; counts }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.4g stddev=%.4g min=%.4g max=%.4g" s.n s.mean
    s.stddev s.min s.max

(* ---- HDR-style latency histogram --------------------------------------- *)

module Hist = struct
  (* Log-linear bucketing (the HdrHistogram layout): values below
     [2 * sub_count] get their own bucket; above that, each power of
     two is split into [sub_count] linear sub-buckets, so the relative
     quantization error is bounded by 1/sub_count everywhere.  With
     [sub_bits = 6] that is <= 1.6% — plenty for latency percentiles —
     and the whole non-negative int range fits in < 4k buckets. *)

  let sub_bits = 6
  let sub_count = 1 lsl sub_bits

  (* Highest bucket index reachable for max_int (msb 61 on 64-bit):
     shift = 61 - sub_bits, top < 2 * sub_count. *)
  let num_buckets = ((62 - sub_bits) * sub_count) + (2 * sub_count)

  type t = {
    counts : int array;
    mutable total : int;
    sum : Float.Array.t;
        (** one element: float, since sums of ns values overflow int,
            and in a float array, so [record] stores it unboxed where
            a mutable float field would allocate a box per call *)
    mutable vmin : int;
    mutable vmax : int;
  }

  let create () =
    {
      counts = Array.make num_buckets 0;
      total = 0;
      sum = Float.Array.make 1 0.;
      vmin = max_int;
      vmax = 0;
    }

  let clear t =
    Array.fill t.counts 0 num_buckets 0;
    t.total <- 0;
    Float.Array.set t.sum 0 0.;
    t.vmin <- max_int;
    t.vmax <- 0

  let msb v =
    (* Position of the highest set bit (v > 0), by binary search. *)
    let v = ref v and r = ref 0 in
    if !v lsr 32 <> 0 then (r := !r + 32; v := !v lsr 32);
    if !v lsr 16 <> 0 then (r := !r + 16; v := !v lsr 16);
    if !v lsr 8 <> 0 then (r := !r + 8; v := !v lsr 8);
    if !v lsr 4 <> 0 then (r := !r + 4; v := !v lsr 4);
    if !v lsr 2 <> 0 then (r := !r + 2; v := !v lsr 2);
    if !v lsr 1 <> 0 then incr r;
    !r

  let index v =
    if v < 2 * sub_count then v
    else
      let m = msb v in
      let shift = m - sub_bits in
      (shift * sub_count) + (v lsr shift)

  (* Inclusive value range covered by bucket [i] (inverse of [index]). *)
  let bounds i =
    if i < 2 * sub_count then (i, i)
    else
      let shift = (i / sub_count) - 1 in
      let top = i - (shift * sub_count) in
      (top lsl shift, ((top + 1) lsl shift) - 1)

  let record t v =
    let v = if v < 0 then 0 else v in
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.total <- t.total + 1;
    Float.Array.set t.sum 0 (Float.Array.get t.sum 0 +. float_of_int v);
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v

  let count t = t.total
  let max t = if t.total = 0 then 0 else t.vmax
  let min t = if t.total = 0 then 0 else t.vmin
  let mean t =
    if t.total = 0 then 0. else Float.Array.get t.sum 0 /. float_of_int t.total

  let merge_into ~into src =
    Array.iteri
      (fun i c -> if c <> 0 then into.counts.(i) <- into.counts.(i) + c)
      src.counts;
    into.total <- into.total + src.total;
    Float.Array.set into.sum 0
      (Float.Array.get into.sum 0 +. Float.Array.get src.sum 0);
    if src.total > 0 then begin
      if src.vmin < into.vmin then into.vmin <- src.vmin;
      if src.vmax > into.vmax then into.vmax <- src.vmax
    end

  let percentile t p =
    if p < 0. || p > 100. then invalid_arg "Stats.Hist.percentile";
    if t.total = 0 then 0
    else begin
      let rank =
        let r = int_of_float (ceil (p /. 100. *. float_of_int t.total)) in
        if r < 1 then 1 else Stdlib.min r t.total
      in
      let acc = ref 0 and i = ref 0 and res = ref t.vmax in
      (try
         while !i < num_buckets do
           acc := !acc + t.counts.(!i);
           if !acc >= rank then begin
             (* Report the bucket's upper bound, clamped to the true
                extremes so p0/p100 are exact. *)
             let _, hi = bounds !i in
             res := Stdlib.max t.vmin (Stdlib.min hi t.vmax);
             raise Exit
           end;
           incr i
         done
       with Exit -> ());
      !res
    end

  let buckets t =
    let out = ref [] in
    for i = num_buckets - 1 downto 0 do
      if t.counts.(i) <> 0 then
        let lo, hi = bounds i in
        out := (lo, hi, t.counts.(i)) :: !out
    done;
    !out

  let pp ppf t =
    Format.fprintf ppf "n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d" (count t)
      (mean t) (percentile t 50.) (percentile t 95.) (percentile t 99.)
      (max t)
end
