(** The [polytmd] driver: listeners, event loops, graceful shutdown,
    and observability export.

    Topology: one event loop ({!Evloop}) per domain, [workers] in all.
    Loop 0 runs on the domain that calls {!run} and is also the
    acceptor: the listening sockets are non-blocking descriptors in its
    [select], and it hands each accepted connection to the
    least-loaded loop, itself included.  Loops 1..[workers]-1 run on a
    spawned domain each.  A loop multiplexes all of its connections
    over one readiness cycle, so a parked or slow session never
    monopolises a domain.  All loops share one {!Registry} — and
    therefore one STM instance per algorithm over the domains runtime
    — which is the whole point: transactions from different
    connections really do contend and compose on the same tvars.  No
    domain idles beside the loops: in OCaml 5 every minor collection
    stops every domain, so an idle acceptor domain would take part in
    each of them (DESIGN §S19, "One domain per loop").

    Shutdown ([SIGTERM]/[SIGINT], or [max_seconds], which loop 0 checks
    once per cycle) is graceful, and each loop's own job.  When loop 0
    first sees the stop flag, it closes the listeners (no new
    connections) and wakes every other loop; each loop drains its
    sessions — in-flight requests are answered and flushed, never
    dropped, a waiting pop answers [Nil] and a watch's wait is
    cancelled — and exits once its last connection closes.  Only then
    are the other loops' domains joined and the stats/trace files
    written.  Whatever ends [run], a listener that cannot bind or a
    final log sync that fails included, it closes the op log and
    restores the caller's signal handlers before it returns or
    raises. *)

module T = Polytm_telemetry
module S = Registry.S
module Hist = Polytm_util.Stats.Hist
module Oplog = Polytm_persist.Oplog

type listener = Tcp of string * int | Unix_sock of string

type config = {
  listeners : listener list;
  workers : int;
  shards : int;
      (** independent STM instances per algorithm; single-key requests
          hash-route to their owner shard, cross-shard batches commit
          through the two-phase protocol (DESIGN.md §S20) *)
  limits : Limits.t;
  prestructs : (Wire.kind * string * Registry.algo) list;
      (** structures created before accepting (so clients need no
          setup round-trip), each pinned to an algorithm *)
  default_algo : Registry.algo;
      (** algorithm for structures created over the wire ([NEW]
          carries no algo) *)
  stats_json : string option;  (** write a stats snapshot here on exit *)
  trace : string option;  (** write a Chrome/Perfetto trace here on exit *)
  max_seconds : float option;  (** self-terminate after this long *)
  quiet : bool;
  persist_dir : string option;
      (** durability root ([--dir]): op log + checkpoints + manifest.
          [None] (the default) disables persistence entirely — no
          hooks installed, no arming, byte-identical behaviour to the
          pre-durability server *)
  fsync : Polytm_persist.Aof.policy;
      (** when log appends reach the disk: [`Always] fsyncs before any
          mutation is acked (group commit per pipelined batch),
          [`Everysec] syncs from a background thread, [`No] leaves it
          to the OS *)
  checkpoint_sec : float;
      (** automatic checkpoint cadence; [0.] disables (BGSAVE still
          works) *)
}

let default_config =
  {
    listeners = [ Tcp ("127.0.0.1", 7411) ];
    workers = 4;
    shards = 1;
    limits = Limits.default;
    prestructs = [];
    default_algo = `Tl2;
    stats_json = None;
    trace = None;
    max_seconds = None;
    quiet = false;
    persist_dir = None;
    fsync = `Everysec;
    checkpoint_sec = 60.;
  }

(* Accept-level backpressure: connections held across all loops before
   accepted sockets are closed instead of served. *)
let max_conns = 1024

(* Telemetry ring slots per lane. *)
let ring_capacity = 1 lsl 14

(* ---- listeners --------------------------------------------------------- *)

(* A non-blocking listening socket: loop 0 serves sessions, so an
   [accept] that finds nothing must return to it, never block. *)
let open_listener l =
  let fd, addr =
    match l with
    | Tcp (host, port) ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        let addr =
          try Unix.inet_addr_of_string host with _ -> Unix.inet_addr_loopback
        in
        (fd, Unix.ADDR_INET (addr, port))
    | Unix_sock path ->
        (try Unix.unlink path with _ -> ());
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
  in
  try
    Unix.bind fd addr;
    Unix.listen fd 128;
    Unix.set_nonblock fd;
    (l, fd)
  with e ->
    Unix.close fd;
    raise e

let close_listeners =
  List.iter (fun (l, fd) ->
      (try Unix.close fd with _ -> ());
      match l with
      | Unix_sock path -> ( try Unix.unlink path with _ -> ())
      | Tcp _ -> ())

(* Every listener, or none: a failure closes those already open. *)
let rec open_listeners = function
  | [] -> []
  | l :: rest -> (
      let opened = open_listener l in
      try opened :: open_listeners rest
      with e ->
        close_listeners [ opened ];
        raise e)

(* ---- stats export ------------------------------------------------------ *)

let hist_json h =
  let pct p = float_of_int (Hist.percentile h p) /. 1000. in
  T.Json.Obj
    [
      ("count", T.Json.Int (Hist.count h));
      ("mean_us", T.Json.Float (Hist.mean h /. 1000.));
      ("p50_us", T.Json.Float (pct 50.));
      ("p95_us", T.Json.Float (pct 95.));
      ("p99_us", T.Json.Float (pct 99.));
      ("max_us", T.Json.Float (float_of_int (Hist.max h) /. 1000.));
    ]

(* Per-shard STM counters, labelled ["<algo>/<shard>"]: the scaling
   story in one table — commit/abort totals per instance show whether
   load actually spread across the shards, and the multi counters show
   how much of it paid the cross-shard two-phase protocol. *)
let shard_stats_json registry =
  let per algo =
    List.mapi
      (fun i stm ->
        let st = S.stats stm in
        ( Printf.sprintf "%s/%d" (Registry.algo_name algo) i,
          T.Json.Obj
            [
              ("starts", T.Json.Int st.S.starts);
              ("commits", T.Json.Int st.S.commits);
              ("aborts", T.Json.Int st.S.aborts);
              ("serial_commits", T.Json.Int st.S.serial_commits);
              ("multi_commits", T.Json.Int st.S.multi_commits);
              ("multi_escalations", T.Json.Int st.S.multi_escalations);
              ("parks", T.Json.Int st.S.parks);
              ("wakes", T.Json.Int st.S.wakes);
            ] ))
      (Registry.instances registry algo)
  in
  T.Json.Obj (per `Tl2 @ per `Norec)

let stats_json_doc ~elapsed_s ~registry ?persist (stats : Session.stats)
    ~events_lost agg_snapshot =
  let sem_name i = Polytm.Semantics.to_string (Session.sem_of_index i) in
  T.Json.Obj
    ((* the durability counters appear only when persistence is on, so
        a persistence-off run's stats document is byte-identical to
        the pre-durability server's *)
     (match persist with
     | None -> []
     | Some kvs ->
         [
           ( "persist",
             T.Json.Obj (List.map (fun (k, v) -> (k, T.Json.Int v)) kvs) );
         ])
    @ [
      ( "server",
        T.Json.Obj
          [
            ("elapsed_s", T.Json.Float elapsed_s);
            ("requests", T.Json.Int stats.Session.requests);
            ("replies", T.Json.Int stats.Session.replies);
            ("busy", T.Json.Int stats.Session.busy);
            ("proto_errors", T.Json.Int stats.Session.proto_errors);
            ("deadline_errors", T.Json.Int stats.Session.deadline_errors);
            ("exhausted_errors", T.Json.Int stats.Session.exhausted_errors);
            ("sem_errors", T.Json.Int stats.Session.sem_errors);
            ("other_errors", T.Json.Int stats.Session.other_errors);
            ( "latency",
              T.Json.Obj
                (("all", hist_json (Session.latency_all stats))
                :: List.init 3 (fun i ->
                       (sem_name i, hist_json stats.Session.lat_by_sem.(i))))
            );
          ] );
        ("shards", shard_stats_json registry);
        ("telemetry", T.Export.snapshot_json agg_snapshot);
        ("telemetry_events_lost", T.Json.Int events_lost);
      ])

(* The op log's spans (checkpoints, recovery, fsyncs and the waits for
   them) as complete slices on a synthetic thread of their own, so
   they line up under the transaction lanes in Perfetto. *)
let persist_lane log =
  let tid = 9999 in
  match Oplog.spans log with
  | [] -> []
  | spans ->
      T.Json.Obj
        [
          ("name", T.Json.Str "thread_name");
          ("ph", T.Json.Str "M");
          ("pid", T.Json.Int 0);
          ("tid", T.Json.Int tid);
          ("args", T.Json.Obj [ ("name", T.Json.Str "persist") ]);
        ]
      :: List.map
           (fun (s : Oplog.span) ->
             T.Json.Obj
               [
                 ("name", T.Json.Str s.name);
                 ("cat", T.Json.Str "persist");
                 ("ph", T.Json.Str "X");
                 ("ts", T.Json.Int s.ts_us);
                 ("dur", T.Json.Int (max 1 s.dur_us));
                 ("pid", T.Json.Int 0);
                 ("tid", T.Json.Int tid);
               ])
           spans

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

(* ---- the server -------------------------------------------------------- *)

type handle = {
  registry : Registry.t;
  stop : bool Atomic.t;
  stats : Session.stats;  (** merged totals, valid after [run] returns *)
}

let run ?registry cfg =
  let registry =
    match registry with
    | Some r -> r
    | None ->
        Registry.create ~shards:cfg.shards ~default_algo:cfg.default_algo ()
  in
  Limits.validate cfg.limits;
  if cfg.workers < 1 then invalid_arg "Server: workers must be >= 1";
  if cfg.shards < 1 then invalid_arg "Server: shards must be >= 1";
  if cfg.listeners = [] then invalid_arg "Server: no listeners";
  (* Recovery runs first — before pre-created structures, so a
     recovered structure wins a name tie (the prestruct ensure then
     just converges on it), and before anything can commit.  The
     server refuses to serve on a recovery failure: coming up empty
     over a corrupt data directory would silently discard the store. *)
  let recovered =
    match cfg.persist_dir with
    | None -> None
    | Some dir -> (
        match Persist.recover ~dir registry with
        | Ok r -> Some (dir, r)
        | Error m -> failwith ("recovery failed: " ^ m))
  in
  List.iter
    (fun (kind, name, algo) ->
      match Registry.ensure ~algo registry kind name with
      | Ok _ -> ()
      | Error _ ->
          invalid_arg (Printf.sprintf "Server: prestruct %S conflicts" name))
    cfg.prestructs;
  (* Activation (fresh generation checkpoint + hook install) comes
     after the prestructs so the startup checkpoint captures them —
     their creation predates the hooks, so only the checkpoint records
     them. *)
  let persist =
    Option.map
      (fun (dir, r) ->
        match Persist.activate ~dir ~policy:cfg.fsync registry r with
        | Ok p ->
            if not cfg.quiet then
              Printf.printf
                "polytmd: recovered %d records in %.1f ms (tail: %s)\n%!"
                r.Persist.r_replayed r.Persist.r_ms
                (match r.Persist.r_tear with None -> "clean" | Some m -> m);
            p
        | Error m -> failwith ("persistence unavailable: " ^ m))
      recovered
  in
  (* From here on, every exit undoes what [run] changed outside
     itself: a run that cannot bind its listeners closes the op log
     and drops its hooks before it raises, and once the signal
     handlers are installed, the caller's are restored on the way out,
     whatever ends the run. *)
  let listeners =
    ref
      (try open_listeners cfg.listeners
       with e ->
         Option.iter Persist.stop persist;
         raise e)
  in
  let unlisten () =
    close_listeners !listeners;
    listeners := []
  in
  (* Telemetry: a lock-free ring so the request path never takes a
     lock for observability; drained once after the loops join. *)
  let ring =
    if cfg.stats_json <> None || cfg.trace <> None then
      Some (T.Ring.create ~lanes:(cfg.workers + 1) ~capacity:ring_capacity ())
    else None
  in
  (* Every instance of both routers shares the ring: lanes are picked
     per domain, so transactions from any shard of either algorithm
     interleave safely in the same sink. *)
  let all_instances () =
    Registry.instances registry `Tl2 @ Registry.instances registry `Norec
  in
  Option.iter
    (fun r ->
      let sink = Some (T.Ring.sink r) in
      List.iter (fun stm -> S.set_sink stm sink) (all_instances ()))
    ring;
  let stop = Atomic.make false in
  let on_signal = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  let prev_term = Sys.signal Sys.sigterm on_signal in
  let prev_int = Sys.signal Sys.sigint on_signal in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  (* The persistence housekeeper: the [`Everysec] group sync and the
     automatic checkpoint cadence.  A plain systhread — both duties
     are I/O-bound and sub-second-latency-tolerant.  A failed sync
     counts in [sync_errors], a failed checkpoint in
     [checkpoint_errors]. *)
  let persist_stop = Atomic.make false in
  let persist_thread =
    Option.map
      (fun p ->
        Thread.create
          (fun () ->
            let rec go last_sync last_ckpt =
              if not (Atomic.get persist_stop) then begin
                Thread.delay 0.2;
                let now = Unix.gettimeofday () in
                let last_sync =
                  if cfg.fsync = `Everysec && now -. last_sync >= 1.0 then begin
                    Oplog.tick p.Persist.log;
                    now
                  end
                  else last_sync
                in
                let last_ckpt =
                  if
                    cfg.checkpoint_sec > 0.
                    && now -. last_ckpt >= cfg.checkpoint_sec
                  then begin
                    ignore (Persist.bgsave registry p.Persist.log);
                    now
                  end
                  else last_ckpt
                in
                go last_sync last_ckpt
              end
            in
            let t0 = Unix.gettimeofday () in
            go t0 t0)
          ())
      persist
  in
  let t_start = Unix.gettimeofday () in
  let worker_stats = Array.init cfg.workers (fun _ -> Session.create_stats ()) in
  let serve () =
    let loops =
      Array.init cfg.workers (fun _ ->
          Evloop.create ~stop:(fun () -> Atomic.get stop) ())
    in
    let loop_doms =
      Array.init (cfg.workers - 1) (fun i ->
          Domain.spawn (fun () -> Evloop.run loops.(i + 1)))
    in
    (* Dispatch to the least-loaded loop so one loop never aggregates
       every long-lived connection while the others idle. *)
    let pick_loop () =
      let best = ref 0 and best_load = ref max_int in
      Array.iteri
        (fun i l ->
          let n = Evloop.load l in
          if n < !best_load then begin
            best := i;
            best_load := n
          end)
        loops;
      !best
    in
    let total_load () =
      Array.fold_left (fun acc l -> acc + Evloop.load l) 0 loops
    in
    (* One connection per readable listener per cycle of loop 0.  An
       accept that finds nothing (EAGAIN, ECONNABORTED, EINTR) returns
       to the loop. *)
    let accept lfd =
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
          if total_load () >= max_conns then
            (* accept-level backpressure *)
            (try Unix.close fd with _ -> ())
          else begin
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
            let i = pick_loop () in
            Evloop.add_conn loops.(i)
              ~on_close:(fun () -> try Unix.close fd with _ -> ())
              ~limits:cfg.limits ~registry ~stats:worker_stats.(i) fd
          end
      | exception Unix.Unix_error (_, _, _) -> ()
    in
    (* [max_seconds]: one clock read per cycle of loop 0. *)
    let tick =
      match cfg.max_seconds with
      | None -> ignore
      | Some s ->
          fun () ->
            if Unix.gettimeofday () -. t_start >= s then Atomic.set stop true
    in
    (* When loop 0 first sees the stop flag: no new connections, and
       the other loops, which wait with no tick, are woken to see the
       flag too.  Each loop then drains its own sessions. *)
    let closing () =
      unlisten ();
      Array.iteri (fun i l -> if i > 0 then Evloop.post l ignore) loops
    in
    Evloop.run loops.(0)
      ~listen:{ Evloop.fds = List.map snd !listeners; accept; tick; closing };
    Array.iter Domain.join loop_doms
  in
  (* After a drain every session has answered and flushed, so every
     armed record is appended; [Persist.stop] syncs the tail and
     closes the log.  Its final sync is the one step that can raise
     (a failed write or fsync); the handlers and sinks are restored
     whatever it does, and a failure of [serve] wins over its own. *)
  let finish () =
    unlisten ();
    Atomic.set persist_stop true;
    Option.iter Thread.join persist_thread;
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigterm prev_term;
        Sys.set_signal Sys.sigint prev_int;
        Sys.set_signal Sys.sigpipe prev_pipe;
        List.iter (fun stm -> S.set_sink stm None) (all_instances ()))
      (fun () -> Option.iter Persist.stop persist)
  in
  (match serve () with
  | () -> finish ()
  | exception e ->
      (try finish () with _ -> ());
      raise e);
  let elapsed_s = Unix.gettimeofday () -. t_start in
  let stats = Session.create_stats () in
  Array.iter (fun s -> Session.merge_stats ~into:stats s) worker_stats;
  let events = match ring with Some r -> T.Ring.drain r | None -> [] in
  let events_lost = match ring with Some r -> T.Ring.overwritten r | None -> 0 in
  Option.iter
    (fun path ->
      let doc =
        stats_json_doc ~elapsed_s ~registry
          ?persist:(Option.map (fun p -> Oplog.counters p.Persist.log) persist)
          stats ~events_lost (T.Agg.of_events events)
      in
      write_file path (T.Json.to_string doc))
    cfg.stats_json;
  Option.iter
    (fun path ->
      write_file path
        (T.Json.to_string
           (T.Export.chrome_trace ~process_name:"polytmd"
              ~extra:
                (match persist with
                | Some p -> persist_lane p.Persist.log
                | None -> [])
              events)))
    cfg.trace;
  if not cfg.quiet then
    Printf.printf
      "polytmd: served %d requests (%d replies, %d busy, %d proto errors) in %.1fs\n%!"
      stats.Session.requests stats.Session.replies stats.Session.busy
      stats.Session.proto_errors elapsed_s;
  { registry; stop; stats }
