(* Tests for the utility layer: RNG determinism and distribution,
   statistics accumulators, and the binary heap. *)

open Polytm_util

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_bound_invalid () =
  let r = Rng.create 7 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let c = Rng.split a in
  Alcotest.(check bool) "split streams differ" true (Rng.int64 b <> Rng.int64 c)

let test_rng_uniformity () =
  (* Chi-squared-ish sanity check on 8 buckets. *)
  let r = Rng.create 11 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let i = Rng.int r 8 in
    buckets.(i) <- buckets.(i) + 1
  done;
  let expect = n / 8 in
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket within 5%" true
        (abs (c - expect) < expect / 20))
    buckets

let test_rng_shuffle_permutation () =
  let r = Rng.create 13 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_stats_acc () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  let s = Stats.Acc.summary acc in
  Alcotest.(check int) "count" 8 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.mean;
  (* Sample stddev of this classic data set: sqrt(32/7). *)
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (32. /. 7.)) s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Stats.max

let test_stats_acc_single () =
  let acc = Stats.Acc.create () in
  Stats.Acc.add acc 3.5;
  Alcotest.(check (float 1e-9)) "variance of one sample" 0. (Stats.Acc.variance acc)

let test_stats_percentile () =
  let data = [| 15.; 20.; 35.; 40.; 50. |] in
  Alcotest.(check (float 1e-9)) "median" 35. (Stats.median data);
  Alcotest.(check (float 1e-9)) "p0" 15. (Stats.percentile data 0.);
  Alcotest.(check (float 1e-9)) "p100" 50. (Stats.percentile data 100.);
  Alcotest.(check (float 1e-9)) "p25" 20. (Stats.percentile data 25.);
  Alcotest.(check (float 1e-9)) "p90" 46. (Stats.percentile data 90.)

let test_stats_percentile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty data")
    (fun () -> ignore (Stats.percentile [||] 50.))

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "empty mean" 0. (Stats.mean []);
  Alcotest.(check (float 1e-9)) "mean" 2. (Stats.mean [ 1.; 2.; 3. ])

let test_stats_histogram () =
  let h = Stats.histogram ~buckets:4 ~lo:0. ~hi:4. [| 0.5; 1.5; 1.7; 3.2; 9.; -1. |] in
  Alcotest.(check (array int)) "counts" [| 2; 2; 0; 2 |] h.Stats.counts

let test_heap_sorts () =
  let h = Heap.create ~cmp:compare in
  let input = [ 5; 3; 8; 1; 9; 2; 7; 4; 6; 0 ] in
  List.iter (Heap.push h) input;
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted output" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (drain [])

let test_heap_empty () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h)

let test_heap_peek () =
  let h = Heap.create ~cmp:compare in
  Heap.push h 4;
  Heap.push h 2;
  Alcotest.(check (option int)) "peek min" (Some 2) (Heap.peek h);
  Alcotest.(check int) "length" 2 (Heap.length h)

let test_heap_filter () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 1; 2; 3; 4; 5; 6 ];
  Heap.filter_in_place h (fun x -> x mod 2 = 0);
  Alcotest.(check int) "length after filter" 3 (Heap.length h);
  Alcotest.(check (option int)) "min after filter" (Some 2) (Heap.pop h)

let heap_property =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun input ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) input;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare input)

let percentile_property =
  QCheck.Test.make ~name:"percentile is bounded by min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_bound_exclusive 1000.)) (float_bound_inclusive 100.))
    (fun (data, p) ->
      let arr = Array.of_list data in
      let v = Stats.percentile arr p in
      let lo = Array.fold_left min infinity arr
      and hi = Array.fold_left max neg_infinity arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let test_rng_copy_and_pick () =
  let a = Rng.create 21 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b);
  let arr = [| 5; 6; 7 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick from array" true
      (Array.exists (( = ) (Rng.pick a arr)) arr)
  done;
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick a [||]))

let test_heap_pop_exn_and_to_list () =
  let h = Heap.create ~cmp:compare in
  Alcotest.check_raises "pop_exn empty" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h));
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "to_list holds all" [ 1; 2; 3 ]
    (List.sort compare (Heap.to_list h));
  Alcotest.(check int) "pop_exn min" 1 (Heap.pop_exn h)

let test_stats_pp () =
  let acc = Stats.Acc.create () in
  Stats.Acc.add acc 1.0;
  Stats.Acc.add acc 3.0;
  let s = Format.asprintf "%a" Stats.pp_summary (Stats.Acc.summary acc) in
  Alcotest.(check bool) "mentions n=2" true
    (let rec find i =
       i + 3 <= String.length s && (String.sub s i 3 = "n=2" || find (i + 1))
     in
     find 0)

(* A server records two latencies per request, so [Hist.record] must
   allocate nothing: its float sum is stored unboxed.  The mean checks
   that the sum still adds up. *)
let test_hist_record_allocates_nothing () =
  let h = Stats.Hist.create () in
  Stats.Hist.record h 1;
  let w0 = Gc.minor_words () in
  for v = 1 to 10_000 do
    Stats.Hist.record h v
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 10k records" 0. words;
  Alcotest.(check (float 1e-9)) "mean"
    (float_of_int (1 + (10_000 * 10_001 / 2)) /. 10_001.)
    (Stats.Hist.mean h)

let suite =
  ( "util",
    [
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
      Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
      Alcotest.test_case "rng invalid bound" `Quick test_rng_bound_invalid;
      Alcotest.test_case "rng float range" `Quick test_rng_float_range;
      Alcotest.test_case "rng split" `Quick test_rng_split_independent;
      Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
      Alcotest.test_case "rng shuffle" `Quick test_rng_shuffle_permutation;
      Alcotest.test_case "stats acc" `Quick test_stats_acc;
      Alcotest.test_case "stats acc single" `Quick test_stats_acc_single;
      Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
      Alcotest.test_case "stats percentile invalid" `Quick test_stats_percentile_invalid;
      Alcotest.test_case "stats mean" `Quick test_stats_mean;
      Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
      Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
      Alcotest.test_case "heap empty" `Quick test_heap_empty;
      Alcotest.test_case "heap peek" `Quick test_heap_peek;
      Alcotest.test_case "heap filter" `Quick test_heap_filter;
      Alcotest.test_case "rng copy and pick" `Quick test_rng_copy_and_pick;
      Alcotest.test_case "heap pop_exn/to_list" `Quick
        test_heap_pop_exn_and_to_list;
      Alcotest.test_case "stats pp" `Quick test_stats_pp;
      Alcotest.test_case "hist record allocates nothing" `Quick
        test_hist_record_allocates_nothing;
      Test_seed.to_alcotest heap_property;
      Test_seed.to_alcotest percentile_property;
    ] )
