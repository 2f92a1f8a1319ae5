(* polytmd — the PolyTM transactional store daemon.

   Hosts named STM structures (maps, hash sets, queues) over TCP
   and/or Unix-domain sockets, speaking the length-prefixed protocol
   of Polytm_server.Wire.  Every request runs as one transaction whose
   semantics comes from the request's hint (~classic / ~elastic /
   ~snapshot) — the paper's polymorphic-transaction interface, served
   over a socket.  See DESIGN.md §S16. *)

module Srv = Polytm_server.Server
module Limits = Polytm_server.Limits
module Wire = Polytm_server.Wire
open Cmdliner

let listen_t =
  Arg.(value & opt_all string []
       & info [ "listen"; "l" ] ~docv:"ADDR"
           ~doc:"Listen address: $(b,HOST:PORT) for TCP or
                 $(b,unix:PATH) for a Unix-domain socket.  A stale socket
                 at PATH (one nothing accepts on) is replaced; the
                 daemon refuses to start over a live one or over
                 anything that is not a socket.  Repeatable.
                 Default: 127.0.0.1:7411.")

let workers_t =
  Arg.(value & opt int 4
       & info [ "workers"; "w" ] ~docv:"N"
           ~doc:
             (Printf.sprintf
                "Event loops serving connections, one per domain.  The \
                 first runs on the daemon's own domain and accepts every \
                 connection, handing each to the least-loaded loop; each \
                 other loop gets a domain of its own, so N loops run N \
                 domains.  Each loop waits with select(2), which takes no \
                 fd at or above %d (FD_SETSIZE): a connection whose fd is \
                 that high is closed on arrival and counted in INFO's \
                 fd_refused."
                Limits.fd_limit))

let shards_t =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"K"
           ~doc:"Independent STM instances per algorithm.  Keys
                 hash-route to their owner shard, so single-key
                 requests never contend across shards; MULTI batches
                 spanning shards commit through the cross-shard
                 two-phase protocol.  Default 1 (the classic
                 single-instance server).")

let max_inflight_t =
  Arg.(value & opt int Limits.default.Limits.max_inflight
       & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Pipelined requests admitted per read batch before the
                 server answers BUSY.")

let max_multi_t =
  Arg.(value & opt int Limits.default.Limits.max_multi
       & info [ "max-multi" ] ~docv:"N"
           ~doc:"Commands accepted inside one MULTI batch.")

let budget_t =
  Arg.(value & opt (some int) None
       & info [ "op-budget" ] ~docv:"N"
           ~doc:"Optimistic retry budget per operation; exhaustion is
                 reported to the client as an EXHAUSTED error.")

let deadline_t =
  Arg.(value & opt (some int) None
       & info [ "op-deadline-us" ] ~docv:"USEC"
           ~doc:"Per-operation deadline in microseconds; expiry is
                 reported to the client as a DEADLINE error.")

let debug_ops_t =
  Arg.(value & flag
       & info [ "debug-ops" ]
           ~doc:"Accept DEBUG-ABORT probe requests (tests and CI).")

let struct_t =
  Arg.(value & opt_all string []
       & info [ "struct" ] ~docv:"KIND:NAME[@ALGO]"
           ~doc:"Create a structure before accepting connections, e.g.
                 $(b,map:accounts) or $(b,queue:jobs).  An optional
                 $(b,@tl2) or $(b,@norec) suffix pins the structure to
                 that algorithm's STM instance (default: the server's
                 $(b,--algo)), so a NORec map can be hosted next to a
                 TL2 queue.  Repeatable.")

let algo_t =
  let algo_conv = Arg.enum [ ("tl2", `Tl2); ("norec", `Norec) ] in
  Arg.(value & opt algo_conv `Tl2
       & info [ "algo" ] ~docv:"ALGO"
           ~doc:"STM algorithm backing structures created over the
                 wire and $(b,--struct) entries without an explicit
                 $(b,@ALGO) suffix: $(b,tl2) or $(b,norec).")

let stats_json_t =
  Arg.(value & opt (some string) None
       & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"On exit, write a JSON snapshot of server counters,
                 latency percentiles per semantics class, and the
                 telemetry commit/abort table.")

let trace_t =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"On exit, write a Chrome/Perfetto trace of transaction
                 lifecycle events.")

let max_seconds_t =
  Arg.(value & opt (some float) None
       & info [ "max-seconds" ] ~docv:"SEC"
           ~doc:"Self-terminate (gracefully) after this long — for
                 smoke tests; normally the daemon runs until SIGTERM.")

let quiet_t =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No exit summary.")

let dir_t =
  Arg.(value & opt (some string) None
       & info [ "dir" ] ~docv:"DIR"
           ~doc:"Durability root: append-only op log, checkpoints and
                 manifest live here, and the store recovers from it on
                 startup.  Omitting $(b,--dir) runs fully in memory
                 (the pre-durability server, byte for byte).")

let fsync_t =
  let fsync_conv =
    Arg.enum [ ("always", `Always); ("everysec", `Everysec); ("no", `No) ]
  in
  Arg.(value & opt fsync_conv `Everysec
       & info [ "fsync" ] ~docv:"WHEN"
           ~doc:"When op-log appends reach the disk: $(b,always) syncs
                 before any mutation is acknowledged (group commit per
                 pipelined batch), $(b,everysec) syncs from a
                 background thread (at most ~1s of acked writes at
                 risk), $(b,no) leaves it to the OS.  Only meaningful
                 with $(b,--dir).")

let checkpoint_sec_t =
  Arg.(value & opt float 60.
       & info [ "checkpoint-sec" ] ~docv:"SEC"
           ~doc:"Automatic checkpoint cadence: fold every structure
                 into a fresh checkpoint and truncate the op log every
                 SEC seconds.  0 disables the cadence (BGSAVE still
                 checkpoints on demand).  Only meaningful with
                 $(b,--dir).")

let parse_listener s =
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Ok (Srv.Unix_sock (String.sub s 5 (String.length s - 5)))
  else
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        with
        | Some port -> Ok (Srv.Tcp (host, port))
        | None -> Error (Printf.sprintf "bad port in %S" s))
    | None -> Error (Printf.sprintf "bad listen address %S (want HOST:PORT or unix:PATH)" s)

let parse_struct ~default_algo s =
  let algo_res, spec =
    match String.index_opt s '@' with
    | Some i -> (
        let a = String.sub s (i + 1) (String.length s - i - 1) in
        match Polytm_server.Registry.algo_of_name a with
        | Some algo -> (Ok algo, String.sub s 0 i)
        | None ->
            ( Error
                (Printf.sprintf "bad algo %S in %S (want tl2 or norec)" a s),
              s ))
    | None -> (Ok default_algo, s)
  in
  match algo_res with
  | Error _ as e -> e
  | Ok algo -> (
      match String.index_opt spec ':' with
      | Some i -> (
          let kind = String.sub spec 0 i in
          let name = String.sub spec (i + 1) (String.length spec - i - 1) in
          match Wire.kind_of_string kind with
          | Some k when name <> "" -> Ok (k, name, algo)
          | _ -> Error (Printf.sprintf "bad struct spec %S" s))
      | None ->
          Error (Printf.sprintf "bad struct spec %S (want KIND:NAME[@ALGO])" s))

let collect parse = function
  | [] -> Ok []
  | xs ->
      List.fold_left
        (fun acc x ->
          match (acc, parse x) with
          | Ok l, Ok v -> Ok (l @ [ v ])
          | (Error _ as e), _ -> e
          | _, Error m -> Error m)
        (Ok []) xs

let refused_exit = 1

let main listen workers shards max_inflight max_multi op_budget op_deadline_us
    debug_ops structs default_algo stats_json trace max_seconds quiet dir fsync
    checkpoint_sec =
  let listeners =
    match collect parse_listener listen with
    | Ok [] -> Ok [ Srv.Tcp ("127.0.0.1", 7411) ]
    | r -> r
  in
  match (listeners, collect (parse_struct ~default_algo) structs) with
  | Error m, _ | _, Error m -> `Error (false, m)
  | Ok listeners, Ok prestructs -> (
      let limits =
        {
          Limits.default with
          Limits.max_inflight;
          max_multi;
          op_budget;
          op_deadline_us;
          debug_ops;
        }
      in
      let cfg =
        {
          Srv.listeners;
          workers;
          shards;
          limits;
          prestructs;
          default_algo;
          stats_json;
          trace;
          max_seconds;
          quiet;
          persist_dir = dir;
          fsync;
          checkpoint_sec;
        }
      in
      (* A configuration the server rejects is a usage error (exit
         124, like a bad flag); a refusal to start over the data
         directory or the listeners — recovery, activation, bind — is
         the daemon's own failure, and so is a final op-log sync that
         fails at shutdown: one line, exit 1. *)
      let refused m =
        prerr_endline ("polytmd: " ^ m);
        `Ok refused_exit
      in
      match Srv.run cfg with
      | _handle -> `Ok Cmd.Exit.ok
      | exception Invalid_argument m -> `Error (false, m)
      | exception Failure m -> refused m
      | exception Unix.Unix_error (e, fn, arg) ->
          refused (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e)))

let () =
  let doc =
    "PolyTM transactional store daemon: named STM structures served \
     over TCP/Unix sockets with per-request semantics hints."
  in
  let term =
    Term.(ret
            (const main $ listen_t $ workers_t $ shards_t $ max_inflight_t
           $ max_multi_t
           $ budget_t $ deadline_t $ debug_ops_t $ struct_t $ algo_t
           $ stats_json_t $ trace_t $ max_seconds_t $ quiet_t $ dir_t
           $ fsync_t $ checkpoint_sec_t))
  in
  let exits =
    Cmd.Exit.info refused_exit
      ~doc:
        "when the daemon refuses to start (recovery refused the data \
         directory, activating persistence failed, or a listener could \
         not be bound or its Unix socket path was taken; no file of the \
         data directory is removed), or \
         when the op log's last sync at shutdown fails: writes \
         acknowledged under --fsync everysec or no may then be lost."
    :: Cmd.Exit.defaults
  in
  exit (Cmd.eval' (Cmd.v (Cmd.info "polytmd" ~version:"1.0.0" ~doc ~exits) term))
