(** Reproduction of the paper's data figures.

    Figure 4 is the schedule-enumeration result (delegated to
    {!Polytm_history.Program}); Figures 5, 7 and 9 are the collection
    benchmark sweeps.  All three throughput figures share the same
    workload and differ only in which systems they plot, so {!run_all}
    executes the full matrix once and the figure builders slice it. *)

module A = Polytm_structs.Adapters
module AM = Polytm_structs.Adapters.Make (Polytm_runtime.Sim_runtime)
module T = Polytm_telemetry

(** Which transactional search structure backs the STM systems.  The
    paper benchmarks the linked list; the hash and skip-list variants
    are extra explorations (operations are O(n/buckets) and O(log n),
    so their absolute speedups over the sequential *list* baseline run
    higher — the interesting part is how the semantics mix behaves on
    different conflict footprints). *)
type structure = List_structure | Hash_structure | Skiplist_structure

let structure_name = function
  | List_structure -> "list"
  | Hash_structure -> "hash"
  | Skiplist_structure -> "skiplist"

type params = {
  spec : Workload.spec;
  duration : int;  (** virtual ticks per run *)
  threads_list : int list;
  seed : int;
  cores : int;  (** effective hardware parallelism (see {!Harness}) *)
  structure : structure;
}

let default_params =
  {
    spec = Workload.default_spec;
    duration = 300_000;
    threads_list = [ 1; 2; 4; 8; 16; 32; 64 ];
    seed = 42;
    cores = 16;
    structure = List_structure;
  }

let paper_params =
  {
    default_params with
    spec = Workload.paper_spec;
    duration = 1_000_000;
  }

(* ---- systems ---------------------------------------------------------- *)

type system = {
  sys_label : string;
  make : unit -> A.set * (exn -> bool) * (unit -> T.Agg.snapshot option);
}

let plain make_set =
  fun () -> (make_set (), (fun _ -> false), fun () -> None)

let seq_system = { sys_label = "sequential"; make = plain AM.seq }

let collection_system =
  { sys_label = "concurrent collection (COW)"; make = plain AM.cow }

(* STM transactions abandoned after [max_attempts] retries surface as
   Too_many_attempts; the harness counts the operation as failed and
   moves on, mimicking the paper's forever-retrying size operations
   without hanging the run. *)
let stm_system ?(structure = List_structure) ?(extend_on_stale = true) ?trace
    sys_label profile =
  {
    sys_label;
    make =
      (fun () ->
        let stm = AM.S.create ~max_attempts:200 ~extend_on_stale () in
        (* Streaming aggregation sink: per-site commit/abort/retry
           counters, no event storage.  Emission is uncharged under the
           simulator, so installing it does not perturb the measured
           virtual time.  [trace] additionally records the full event
           stream (for Chrome-trace export). *)
        let agg = T.Agg.create () in
        let sink =
          match trace with
          | None -> T.Agg.sink agg
          | Some r -> T.fan_out [ T.Agg.sink agg; T.Recorder.sink r ]
        in
        AM.S.set_sink stm (Some sink);
        let set =
          match structure with
          | List_structure -> AM.stm_list ~profile stm
          | Hash_structure -> AM.stm_hash ~profile stm
          | Skiplist_structure -> AM.stm_skiplist ~profile stm
        in
        ( set,
          (function AM.S.Too_many_attempts _ -> true | _ -> false),
          fun () -> Some (T.Agg.snapshot agg) ));
  }

(* The paper's comparator is plain TL2, which has no timestamp
   extension: stale reads abort.  The relaxed systems keep their own
   mechanisms (cuts, multiversion reads). *)
let classic_system_of ?trace structure =
  stm_system ?trace ~structure ~extend_on_stale:false
    "classic transactions (TL2)" A.classic_profile

let elastic_system_of ?trace structure =
  stm_system ?trace ~structure "elastic + classic transactions"
    A.elastic_classic_profile

let mixed_system_of ?trace structure =
  stm_system ?trace ~structure "mixed (elastic + snapshot)" A.mixed_profile

let classic_system = classic_system_of List_structure
let mixed_system = mixed_system_of List_structure

(* ---- sweeping --------------------------------------------------------- *)

type point = {
  threads : int;
  throughput : float;
  speedup : float;  (** normalised over the sequential baseline *)
  completed : int;
  failed : int;
  latency : Polytm_util.Stats.Hist.t;
      (** per-operation virtual-tick latency distribution *)
  telemetry : T.Agg.snapshot option;
}

type series = { series_label : string; points : point list }

type figure = {
  fig_id : string;
  title : title_info;
  series : series list;
  baseline_throughput : float;
}

and title_info = { caption : string; paper_claim : string }

let sequential_baseline p =
  let r =
    Harness.run ~cores:p.cores ~make:seq_system.make ~spec:p.spec ~threads:1
      ~duration:p.duration ~seed:p.seed ()
  in
  r.Harness.throughput

let run_series ?(progress = fun _ -> ()) p ~baseline sys =
  let points =
    List.map
      (fun threads ->
        progress (Printf.sprintf "%s @ %d threads" sys.sys_label threads);
        let r =
          Harness.run ~cores:p.cores ~label:sys.sys_label ~make:sys.make
            ~spec:p.spec ~threads ~duration:p.duration ~seed:(p.seed + threads)
            ()
        in
        {
          threads;
          throughput = r.Harness.throughput;
          speedup = r.Harness.throughput /. baseline;
          completed = r.Harness.completed;
          failed = r.Harness.failed;
          latency = r.Harness.latency;
          telemetry = r.Harness.telemetry;
        })
      p.threads_list
  in
  { series_label = sys.sys_label; points }

type matrix = {
  params : params;
  baseline : float;
  classic : series;
  collection : series;
  elastic : series;
  mixed : series;
}

let run_all ?(progress = fun _ -> ()) p =
  let baseline = sequential_baseline p in
  let sweep sys = run_series ~progress p ~baseline sys in
  {
    params = p;
    baseline;
    classic = sweep (classic_system_of p.structure);
    collection = sweep collection_system;
    elastic = sweep (elastic_system_of p.structure);
    mixed = sweep (mixed_system_of p.structure);
  }

(* ---- figures ---------------------------------------------------------- *)

let fig5_of m =
  {
    fig_id = "fig5";
    title =
      {
        caption =
          "Throughput (normalised over sequential) of classic transactions \
           and the existing concurrent collection";
        paper_claim =
          "the existing collection performs ~2.2x faster than classic \
           transactions on 64 threads";
      };
    series = [ m.classic; m.collection ];
    baseline_throughput = m.baseline;
  }

let fig7_of m =
  {
    fig_id = "fig7";
    title =
      {
        caption =
          "Throughput (normalised over sequential) of elastic+classic \
           transactions, classic transactions alone, and the concurrent \
           collection";
        paper_claim =
          "elastic+classic peaks ~3.5x above classic alone and ~1.6x above \
           the collection, but degrades between 32 and 64 threads because \
           the classic size keeps aborting";
      };
    series = [ m.classic; m.collection; m.elastic ];
    baseline_throughput = m.baseline;
  }

let fig9_of m =
  {
    fig_id = "fig9";
    title =
      {
        caption =
          "Throughput (normalised over sequential) of the mixed transactions \
           (elastic parses + snapshot size), classic transactions and the \
           collection";
        paper_claim =
          "the mixed model runs ~4.3x faster than classic and ~1.9x above \
           the collection on 64 threads, and keeps scaling to the maximum \
           thread count";
      };
    series = [ m.classic; m.collection; m.mixed ];
    baseline_throughput = m.baseline;
  }

let fig5 ?progress p = fig5_of (run_all ?progress p)
let fig7 ?progress p = fig7_of (run_all ?progress p)
let fig9 ?progress p = fig9_of (run_all ?progress p)

(* ---- headline ratios (Section 3.3 / 4.3 / 5.2 claims) ------------------ *)

type claim = {
  claim_label : string;
  paper_value : float;
  measured : float;
}

let speedup_at s threads =
  match List.find_opt (fun pt -> pt.threads = threads) s.points with
  | Some pt -> pt.speedup
  | None -> nan

let peak s = List.fold_left (fun acc pt -> max acc pt.speedup) 0. s.points

let claims m =
  let top = List.fold_left max 1 m.params.threads_list in
  let at s = speedup_at s top in
  [
    {
      claim_label =
        Printf.sprintf "Fig.5: collection / classic at %d threads" top;
      paper_value = 2.2;
      measured = at m.collection /. at m.classic;
    };
    {
      claim_label = "Fig.7: peak elastic+classic / peak classic";
      paper_value = 3.5;
      measured = peak m.elastic /. peak m.classic;
    };
    {
      claim_label = "Fig.7: peak elastic+classic / peak collection";
      paper_value = 1.6;
      measured = peak m.elastic /. peak m.collection;
    };
    {
      claim_label = Printf.sprintf "Fig.9: mixed / classic at %d threads" top;
      paper_value = 4.3;
      measured = at m.mixed /. at m.classic;
    };
    {
      claim_label = Printf.sprintf "Fig.9: mixed / collection at %d threads" top;
      paper_value = 1.9;
      measured = at m.mixed /. at m.collection;
    };
  ]
