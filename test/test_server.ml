(* End-to-end tests for the polytmd session layer, driven
   deterministically over [Unix.socketpair] — no TCP, no timing
   assumptions.  The session runs in its own domain; because one
   session executes its requests sequentially and the reply order is
   the request order, every assertion below is exact.

   Covered here, per DESIGN.md §S16:
   - a pipelined mixed-semantics workload against a sequential oracle;
   - MULTI batches: all-or-nothing execution, rejection of unresolvable
     batches, semantics violations discarding the whole batch;
   - BUSY backpressure under a shrunk in-flight limit, replies in
     request order;
   - deterministic DEADLINE / EXHAUSTED typed error replies via the
     DEBUG-ABORT probe;
   - graceful shutdown: in-flight requests drained and answered, locks
     released (the registry remains fully usable afterwards). *)

module Wire = Polytm_server.Wire
module Limits = Polytm_server.Limits
module Registry = Polytm_server.Registry
module Session = Polytm_server.Session
module Evloop = Polytm_server.Evloop
module Persist = Polytm_server.Persist
module Server = Polytm_server.Server
module Sem = Polytm.Semantics
module S = Registry.S

(* ---- plumbing ---------------------------------------------------------- *)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let encode reqs =
  let b = Buffer.create 256 in
  List.iter (Wire.write_request b) reqs;
  Buffer.contents b

(* Read exactly [n] responses. *)
let recv_n fd n =
  let dec = Wire.Decoder.create () in
  let buf = Bytes.create 65536 in
  let out = ref [] in
  let got = ref 0 in
  while !got < n do
    (let rec pop () =
       if !got < n then
         match Wire.Decoder.next_response dec with
         | `Ok r ->
             out := r :: !out;
             incr got;
             pop ()
         | `Await -> ()
         | `Bad m -> Alcotest.failf "malformed reply: %s" m
         | `Corrupt m -> Alcotest.failf "corrupt reply stream: %s" m
     in
     pop ());
    if !got < n then
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> Alcotest.failf "server closed with %d/%d replies" !got n
      | len -> Wire.Decoder.feed dec buf 0 len
  done;
  List.rev !out

(* Run [f client_fd registry stats stop_flag] against a live session.
   [?shards] sizes the registry's per-algorithm router (default: the
   classic single-instance server). *)
let with_session ?(limits = Limits.default) ?(shards = 1) f =
  let server_fd, client_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let registry = Registry.create ~shards () in
  let stats = Session.create_stats () in
  let stop = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Evloop.handle
          ~stop:(fun () -> Atomic.get stop)
          ~limits ~registry ~stats server_fd)
  in
  let finally () =
    (try Unix.shutdown client_fd Unix.SHUTDOWN_SEND with _ -> ());
    Domain.join dom;
    (try Unix.close client_fd with _ -> ());
    try Unix.close server_fd with _ -> ()
  in
  match f client_fd registry stats (stop, server_fd) with
  | v ->
      finally ();
      v
  | exception e ->
      finally ();
      raise e

(* Run [f client_fds registry] against [conns] live sessions sharing
   one registry — one socketpair and one session domain each. *)
let with_sessions ?(limits = Limits.default) ?(shards = 1) ~conns f =
  let registry = Registry.create ~shards () in
  let stop = Atomic.make false in
  let pairs =
    Array.init conns (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let doms =
    Array.map
      (fun (server_fd, _) ->
        Domain.spawn (fun () ->
            Evloop.handle
              ~stop:(fun () -> Atomic.get stop)
              ~limits ~registry ~stats:(Session.create_stats ()) server_fd))
      pairs
  in
  let finally () =
    Array.iter
      (fun (_, cfd) ->
        try Unix.shutdown cfd Unix.SHUTDOWN_SEND with _ -> ())
      pairs;
    Array.iter Domain.join doms;
    Array.iter
      (fun (sfd, cfd) ->
        (try Unix.close cfd with _ -> ());
        try Unix.close sfd with _ -> ())
      pairs
  in
  match f (Array.map snd pairs) registry with
  | v ->
      finally ();
      v
  | exception e ->
      finally ();
      raise e

let rec pp_resp = function
  | Wire.Simple s -> "+" ^ s
  | Wire.Int n -> ":" ^ string_of_int n
  | Wire.Bulk s -> "$" ^ String.escaped s
  | Wire.Nil -> "_"
  | Wire.Error (c, m) -> "-" ^ Wire.err_code_to_string c ^ " " ^ m
  | Wire.Array l -> "[" ^ String.concat "; " (List.map pp_resp l) ^ "]"
  | Wire.Push s -> ">" ^ s

let resp_t : Wire.response Alcotest.testable =
  Alcotest.testable (fun ppf r -> Format.pp_print_string ppf (pp_resp r)) ( = )

let resps_t = Alcotest.(list resp_t)

let req ?hint cmd = { Wire.hint; cmd }

(* ---- pipelined mixed-semantics workload vs a sequential oracle --------- *)

(* The oracle interprets the same command stream against plain OCaml
   structures.  Because one session is sequential, the transactional
   answers must be exactly the oracle's, whatever semantics each
   request is hinted with. *)
let oracle_step maps sets queue cmd : Wire.response =
  match cmd with
  | Wire.Put (_, k, v) ->
      let fresh = not (Hashtbl.mem maps k) in
      Hashtbl.replace maps k v;
      Wire.Int (if fresh then 1 else 0)
  | Wire.Get (_, k) -> (
      match Hashtbl.find_opt maps k with
      | Some v -> Wire.Bulk v
      | None -> Wire.Nil)
  | Wire.Del (_, k) ->
      let had = Hashtbl.mem maps k in
      Hashtbl.remove maps k;
      Wire.Int (if had then 1 else 0)
  | Wire.Contains (s, k) ->
      if s = "m" then Wire.Int (if Hashtbl.mem maps k then 1 else 0)
      else Wire.Int (if Hashtbl.mem sets k then 1 else 0)
  | Wire.Add (_, k) ->
      let fresh = not (Hashtbl.mem sets k) in
      Hashtbl.replace sets k ();
      Wire.Int (if fresh then 1 else 0)
  | Wire.Remove (_, k) ->
      let had = Hashtbl.mem sets k in
      Hashtbl.remove sets k;
      Wire.Int (if had then 1 else 0)
  | Wire.Size s ->
      Wire.Int
        (if s = "m" then Hashtbl.length maps
         else if s = "s" then Hashtbl.length sets
         else Queue.length queue)
  | Wire.Snapshot_iter s ->
      if s = "m" then
        Wire.Array
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) maps []
          |> List.sort compare
          |> List.map (fun (k, v) -> Wire.Array [ Wire.Int k; Wire.Bulk v ]))
      else if s = "s" then
        Wire.Array
          (Hashtbl.fold (fun k () acc -> k :: acc) sets []
          |> List.sort compare
          |> List.map (fun k -> Wire.Int k))
      else
        Wire.Array
          (Queue.fold (fun acc v -> Wire.Bulk v :: acc) [] queue |> List.rev)
  | Wire.Enq (_, v) ->
      Queue.push v queue;
      Wire.ok
  | Wire.Deq _ -> (
      match Queue.take_opt queue with
      | Some v -> Wire.Bulk v
      | None -> Wire.Nil)
  | _ -> Alcotest.fail "oracle: unexpected command"

let gen_op rng : Wire.request =
  let k = Random.State.int rng 24 in
  let v = "v" ^ string_of_int (Random.State.int rng 100) in
  match Random.State.int rng 13 with
  | 0 | 1 -> req ~hint:Sem.Classic (Wire.Put ("m", k, v))
  | 2 | 3 -> req ~hint:Sem.Elastic (Wire.Get ("m", k))
  | 4 -> req ~hint:Sem.Classic (Wire.Del ("m", k))
  | 5 -> req ~hint:Sem.Elastic (Wire.Contains ("m", k))
  | 6 -> req ~hint:Sem.Classic (Wire.Add ("s", k))
  | 7 -> req ~hint:Sem.Classic (Wire.Remove ("s", k))
  | 8 -> req ~hint:Sem.Elastic (Wire.Contains ("s", k))
  | 9 -> req (Wire.Size (if k mod 3 = 0 then "m" else if k mod 3 = 1 then "s" else "q"))
  | 10 ->
      req ~hint:Sem.Snapshot
        (Wire.Snapshot_iter
           (if k mod 3 = 0 then "m" else if k mod 3 = 1 then "s" else "q"))
  | 11 -> req ~hint:Sem.Classic (Wire.Enq ("q", v))
  | _ -> req ~hint:Sem.Classic (Wire.Deq "q")

let test_pipeline_matches_oracle ?(shards = 1) () =
  let rng = Random.State.make [| 0xBEEF |] in
  let ops = List.init 150 (fun _ -> gen_op rng) in
  let setup =
    [
      req (Wire.New (Wire.Kmap, "m"));
      req (Wire.New (Wire.Kset, "s"));
      req (Wire.New (Wire.Kqueue, "q"));
    ]
  in
  let maps = Hashtbl.create 64 and sets = Hashtbl.create 64 in
  let queue = Queue.create () in
  let expected =
    List.map (fun (r : Wire.request) -> oracle_step maps sets queue r.Wire.cmd) ops
  in
  let limits = { Limits.default with Limits.max_inflight = 4096 } in
  with_session ~limits ~shards (fun fd _reg stats _ ->
      write_all fd (encode setup);
      let got_setup = recv_n fd (List.length setup) in
      Alcotest.check resps_t "setup replies"
        [ Wire.ok; Wire.ok; Wire.ok ] got_setup;
      (* the whole mixed-semantics workload, pipelined in one write *)
      write_all fd (encode ops);
      let got = recv_n fd (List.length ops) in
      Alcotest.check resps_t "pipelined replies match the oracle" expected got;
      Alcotest.(check int) "no busy" 0 stats.Session.busy;
      Alcotest.(check int) "no protocol errors" 0 stats.Session.proto_errors)

(* ---- MULTI atomicity --------------------------------------------------- *)

let test_multi_commits_atomically () =
  with_session (fun fd _ _ _ ->
      write_all fd
        (encode
           [
             req (Wire.New (Wire.Kmap, "m"));
             req Wire.Multi;
             req (Wire.Put ("m", 1, "a"));
             req (Wire.Put ("m", 2, "b"));
             req (Wire.Del ("m", 3));
             req Wire.Multi_end;
             req (Wire.Get ("m", 1));
             req (Wire.Size "m");
           ]);
      let got = recv_n fd 8 in
      Alcotest.check resps_t "batch executes as one transaction"
        [
          Wire.ok;
          Wire.ok;
          Wire.queued;
          Wire.queued;
          Wire.queued;
          Wire.Array [ Wire.Int 1; Wire.Int 1; Wire.Int 0 ];
          Wire.Bulk "a";
          Wire.Int 2;
        ]
        got)

let test_multi_unresolvable_executes_nothing () =
  with_session (fun fd _ _ _ ->
      write_all fd
        (encode
           [
             req (Wire.New (Wire.Kmap, "m"));
             req Wire.Multi;
             req (Wire.Put ("m", 7, "x"));
             req (Wire.Get ("ghost", 1));
             req Wire.Multi_end;
             req (Wire.Contains ("m", 7));
           ]);
      match recv_n fd 6 with
      | [ _; _; _; _; Wire.Error (Wire.No_struct, _); Wire.Int 0 ] -> ()
      | got ->
          Alcotest.failf "batch with unknown structure leaked effects: %s"
            (String.concat " | " (List.map pp_resp got)))

let test_multi_snapshot_write_discards_batch () =
  with_session (fun fd _ stats _ ->
      write_all fd
        (encode
           [
             req (Wire.New (Wire.Kmap, "m"));
             req ~hint:Sem.Snapshot Wire.Multi;
             req (Wire.Put ("m", 9, "z"));
             req Wire.Multi_end;
             req (Wire.Contains ("m", 9));
           ]);
      (match recv_n fd 5 with
      | [ _; _; _; Wire.Error (Wire.Sem_violation, _); Wire.Int 0 ] -> ()
      | got ->
          Alcotest.failf "snapshot-hinted write was not rejected atomically: %s"
            (String.concat " | " (List.map pp_resp got)));
      Alcotest.(check int) "counted as semantics violation" 1
        stats.Session.sem_errors)

(* ---- BUSY backpressure ------------------------------------------------- *)

let test_busy_under_shrunk_inflight_limit () =
  let limits = { Limits.default with Limits.max_inflight = 2 } in
  with_session ~limits (fun fd _ stats _ ->
      (* One write delivers one read batch over a socketpair, so the
         admission decision is deterministic: 2 admitted, 3 refused —
         and replies stay in request order. *)
      write_all fd (encode (List.init 5 (fun _ -> req Wire.Ping)));
      let got = recv_n fd 5 in
      (match got with
      | [ Wire.Simple "PONG"; Wire.Simple "PONG";
          Wire.Error (Wire.Busy, _); Wire.Error (Wire.Busy, _);
          Wire.Error (Wire.Busy, _) ] ->
          ()
      | _ ->
          Alcotest.failf "expected 2 PONG then 3 BUSY in order, got %s"
            (String.concat " | " (List.map pp_resp got)));
      Alcotest.(check int) "busy counted" 3 stats.Session.busy;
      (* the connection survives backpressure *)
      write_all fd (encode [ req Wire.Ping ]);
      Alcotest.check resps_t "still serving" [ Wire.pong ] (recv_n fd 1))

(* ---- typed liveness error replies -------------------------------------- *)

let test_deadline_and_budget_replies () =
  let limits = { Limits.default with Limits.debug_ops = true } in
  with_session ~limits (fun fd _ stats _ ->
      write_all fd
        (encode
           [
             req (Wire.Debug_abort { budget = Some 3; deadline_us = None });
             req (Wire.Debug_abort { budget = None; deadline_us = Some 0 });
             req Wire.Ping;
           ]);
      (match recv_n fd 3 with
      | [ Wire.Error (Wire.Exhausted, m1); Wire.Error (Wire.Deadline, _);
          Wire.Simple "PONG" ] ->
          Alcotest.(check bool) "attempts reported" true
            (String.length m1 > 0)
      | got ->
          Alcotest.failf "expected EXHAUSTED, DEADLINE, PONG; got %s"
            (String.concat " | " (List.map pp_resp got)));
      Alcotest.(check int) "exhausted counted" 1 stats.Session.exhausted_errors;
      Alcotest.(check int) "deadline counted" 1 stats.Session.deadline_errors)

(* The server-wide limits apply to a request that sets none:
   [--op-budget 5] exhausts a DEBUG-ABORT without a budget after 5
   attempts, and [--op-deadline-us 0] passes the deadline of one without
   a deadline. *)
let test_server_wide_limits () =
  let probe = req (Wire.Debug_abort { budget = None; deadline_us = None }) in
  let run limits =
    with_session ~limits:{ limits with Limits.debug_ops = true }
      (fun fd _ _ _ ->
        write_all fd (encode [ probe ]);
        recv_n fd 1)
  in
  (match run { Limits.default with Limits.op_budget = Some 5 } with
  | [ Wire.Error (Wire.Exhausted, m) ] ->
      Alcotest.(check string) "EXHAUSTED after the server's budget"
        "retry budget spent after 5 attempts" m
  | got ->
      Alcotest.failf "--op-budget 5: expected EXHAUSTED, got %s"
        (String.concat " | " (List.map pp_resp got)));
  match run { Limits.default with Limits.op_deadline_us = Some 0 } with
  | [ Wire.Error (Wire.Deadline, _) ] -> ()
  | got ->
      Alcotest.failf "--op-deadline-us 0: expected DEADLINE, got %s"
        (String.concat " | " (List.map pp_resp got))

let test_debug_ops_gated () =
  with_session (fun fd _ _ _ ->
      write_all fd
        (encode [ req (Wire.Debug_abort { budget = None; deadline_us = None }) ]);
      match recv_n fd 1 with
      | [ Wire.Error (Wire.Bad_op, _) ] -> ()
      | got ->
          Alcotest.failf "DEBUG-ABORT should be refused by default, got %s"
            (String.concat " | " (List.map pp_resp got)))

(* ---- graceful shutdown -------------------------------------------------- *)

let test_shutdown_drains_and_releases () =
  let puts = List.init 40 (fun i -> req (Wire.Put ("m", i, "v"))) in
  let registry_after =
    with_session (fun fd reg _ (stop, server_fd) ->
        write_all fd (encode (req (Wire.New (Wire.Kmap, "m")) :: puts));
        let got = recv_n fd 41 in
        Alcotest.(check int) "every in-flight request answered" 41
          (List.length got);
        List.iter
          (function
            | Wire.Error _ -> Alcotest.fail "unexpected error during load"
            | _ -> ())
          got;
        (* Stop flag plus SHUTDOWN_RECEIVE: the EOF wakes the
           single-session loop, which has no tick, and the session
           must exit cleanly (Domain.join in the harness would hang
           otherwise). *)
        Atomic.set stop true;
        (try Unix.shutdown server_fd Unix.SHUTDOWN_RECEIVE with _ -> ());
        reg)
  in
  (* Locks released: the same registry serves a fresh session with no
     leftover lock wedging its transactions. *)
  let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let stats = Session.create_stats () in
  let dom =
    Domain.spawn (fun () ->
        Evloop.handle ~limits:Limits.default ~registry:registry_after ~stats
          server_fd)
  in
  write_all client_fd
    (encode
       [
         req (Wire.Size "m");
         req ~hint:Sem.Snapshot (Wire.Snapshot_iter "m");
         req (Wire.Put ("m", 1000, "late"));
       ]);
  let got = recv_n client_fd 3 in
  (match got with
  | [ Wire.Int 40; Wire.Array items; Wire.Int 1 ] ->
      Alcotest.(check int) "snapshot sees all committed puts" 40
        (List.length items)
  | _ ->
      Alcotest.failf "registry unusable after shutdown: %s"
        (String.concat " | " (List.map pp_resp got)));
  Unix.shutdown client_fd Unix.SHUTDOWN_SEND;
  Domain.join dom;
  Unix.close client_fd;
  Unix.close server_fd

(* ---- blocking ops and subscriptions ------------------------------------ *)

let eventually ?(timeout_s = 10.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    pred ()
    || Unix.gettimeofday () -. t0 <= timeout_s
       && begin
            Unix.sleepf 0.002;
            go ()
          end
  in
  go ()

(* Enqueue through the registry from the test domain — a second
   "producer connection" without a second session. *)
let produce reg name v =
  match Registry.resolve reg (Wire.Enq (name, v)) with
  | Ok r ->
      ignore (r.Registry.run () : Wire.response);
      (* a session marks watched structures dirty post-commit *)
      Registry.touch reg r
  | Error _ -> Alcotest.fail "producer could not resolve ENQ"

(* The acceptance-criteria scenario: the server answers a BLPOP issued
   {e before} the corresponding push.  The session parks (observable as
   a registered waiter — no polling loop to hide in) and the producer's
   commit wakes it. *)
let test_blpop_before_push () =
  with_session (fun fd reg _ _ ->
      write_all fd (encode [ req (Wire.New (Wire.Kqueue, "q")) ]);
      Alcotest.check resps_t "queue created" [ Wire.ok ] (recv_n fd 1);
      write_all fd (encode [ req (Wire.Blpop ("q", 0)) ]);
      (* The consumer must actually be parked before anything is
         produced: a waiter registered on the TL2 instance. *)
      Alcotest.(check bool) "consumer parked on the empty queue" true
        (eventually (fun () -> S.waiting (Registry.stm reg) = 1));
      produce reg "q" "job-1";
      Alcotest.check resps_t "woken by the producer's commit"
        [ Wire.Array [ Wire.Bulk "q"; Wire.Bulk "job-1" ] ]
        (recv_n fd 1);
      Alcotest.(check bool) "no waiter leaked" true
        (eventually (fun () -> S.waiting (Registry.stm reg) = 0));
      (* BTAKE takes an already-present element without parking. *)
      produce reg "q" "job-2";
      write_all fd (encode [ req (Wire.Btake ("q", 0)) ]);
      Alcotest.check resps_t "BTAKE replies the bare value"
        [ Wire.Bulk "job-2" ] (recv_n fd 1))

let test_blocking_timeout_and_refusals () =
  with_session (fun fd reg _ _ ->
      write_all fd (encode [ req (Wire.New (Wire.Kqueue, "q")) ]);
      Alcotest.check resps_t "queue created" [ Wire.ok ] (recv_n fd 1);
      (* Timing out is data, not an error: Nil, like Redis. *)
      write_all fd (encode [ req (Wire.Btake ("q", 30)) ]);
      Alcotest.check resps_t "timeout replies Nil" [ Wire.Nil ] (recv_n fd 1);
      Alcotest.(check bool) "timed-out waiter deregistered" true
        (eventually (fun () -> S.waiting (Registry.stm reg) = 0));
      (* A snapshot-hinted blocking op is a typed semantics violation
         (retry cannot park a read-only snapshot). *)
      write_all fd (encode [ req ~hint:Sem.Snapshot (Wire.Blpop ("q", 10)) ]);
      (match recv_n fd 1 with
      | [ Wire.Error (Wire.Sem_violation, _) ] -> ()
      | got ->
          Alcotest.failf "snapshot BLPOP should be SEM, got %s"
            (String.concat " | " (List.map pp_resp got)));
      (* Inside MULTI a parking op is refused up front. *)
      write_all fd
        (encode
           [ req Wire.Multi; req (Wire.Blpop ("q", 0)); req Wire.Multi_end ]);
      match recv_n fd 3 with
      | [ Wire.Simple "OK"; Wire.Error (Wire.Bad_op, _); Wire.Array [] ] -> ()
      | got ->
          Alcotest.failf "BLPOP in MULTI should be BADOP, got %s"
            (String.concat " | " (List.map pp_resp got)))

(* The waiter budget is one server-wide account, not a per-instance
   table: a slot consumed by a waiter parked against the TL2 instance
   must refuse admission to a blocking op on the NORec one, and
   vice versa.  (The old per-instance check let two backends jointly
   park 2x the cap, and K shards would have made it Kx.) *)
let test_blpop_busy_when_wait_table_full () =
  let limits = { Limits.default with Limits.max_waiters = 1 } in
  with_session ~limits (fun fd reg stats _ ->
      write_all fd (encode [ req (Wire.New (Wire.Kqueue, "q")) ]);
      Alcotest.check resps_t "queue created" [ Wire.ok ] (recv_n fd 1);
      (match Registry.ensure ~algo:`Norec reg Wire.Kqueue "nq" with
      | Ok `Created -> ()
      | _ -> Alcotest.fail "could not create the NORec queue");
      (* Take the single budget slot the way a parked waiter from
         another session does: reserve before parking. *)
      Alcotest.(check bool) "slot reserved" true
        (Registry.reserve_waiter reg ~limit:limits.Limits.max_waiters);
      Alcotest.(check bool) "budget exhausted for a second waiter" false
        (Registry.reserve_waiter reg ~limit:limits.Limits.max_waiters);
      (* Blocking ops now bounce on BOTH backends' structures — the
         instances cannot jointly exceed the cap. *)
      write_all fd
        (encode [ req (Wire.Blpop ("q", 0)); req (Wire.Blpop ("nq", 0)) ]);
      (match recv_n fd 2 with
      | [ Wire.Error (Wire.Busy, _); Wire.Error (Wire.Busy, _) ] -> ()
      | got ->
          Alcotest.failf "full waiter budget should be BUSY twice, got %s"
            (String.concat " | " (List.map pp_resp got)));
      (* Releasing the slot restores service; the wake hands it back. *)
      Registry.release_waiter reg;
      write_all fd (encode [ req (Wire.Blpop ("nq", 0)) ]);
      Alcotest.(check bool) "waiter admitted after release" true
        (eventually (fun () -> Registry.waiting reg = 1));
      produce reg "nq" "wake";
      Alcotest.check resps_t "woken after the slot freed up"
        [ Wire.Array [ Wire.Bulk "nq"; Wire.Bulk "wake" ] ]
        (recv_n fd 1);
      Alcotest.(check bool) "budget returned on wake" true
        (eventually (fun () -> Registry.waiting reg = 0));
      (* A pop that finds its item and one that times out. *)
      produce reg "q" "ready";
      write_all fd
        (encode [ req (Wire.Btake ("q", 0)); req (Wire.Btake ("q", 30)) ]);
      Alcotest.check resps_t "taken, then timed out"
        [ Wire.Bulk "ready"; Wire.Nil ]
        (recv_n fd 2);
      (* One latency sample per pop that ran: the parked one, the taken
         one and the timed-out one — none for the two BUSY refusals,
         and one, not two, for a pop that tried on the loop thread and
         then parked. *)
      Alcotest.(check int) "latency samples" 3
        (Polytm_util.Stats.Hist.count (Session.latency_all stats)))

let test_watch_pushes_notifications () =
  with_sessions ~conns:2 (fun fds _reg ->
      let fd = fds.(0) and writer = fds.(1) in
      (* a lost push fails the test instead of hanging it *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      write_all fd
        (encode [ req (Wire.New (Wire.Kmap, "m")); req (Wire.Watch "m") ]);
      Alcotest.check resps_t "watch accepted" [ Wire.ok; Wire.ok ]
        (recv_n fd 2);
      (* A mutation committed by another client pushes a frame: the
         writer's session marks the watched map once its PUT committed. *)
      write_all writer (encode [ req (Wire.Put ("m", 1, "x")) ]);
      Alcotest.check resps_t "the other client's PUT" [ Wire.Int 1 ]
        (recv_n writer 1);
      Alcotest.check resps_t "push notification arrives" [ Wire.Push "m" ]
        (recv_n fd 1);
      (* Requests are still served while watching, and UNWATCH stops
         the pushes. *)
      write_all fd (encode [ req (Wire.Get ("m", 1)); req (Wire.Unwatch "m") ]);
      Alcotest.check resps_t "served while watching"
        [ Wire.Bulk "x"; Wire.ok ] (recv_n fd 2);
      write_all writer (encode [ req (Wire.Put ("m", 2, "y")) ]);
      Alcotest.check resps_t "a PUT after UNWATCH" [ Wire.Int 1 ]
        (recv_n writer 1);
      write_all fd (encode [ req Wire.Ping ]);
      (* No Push frame precedes the PONG: the subscription is gone. *)
      Alcotest.check resps_t "no push after UNWATCH" [ Wire.pong ]
        (recv_n fd 1))

(* Every dirty flag lives on the TL2 control shard, so one session
   watching a TL2 map and a NORec map parks in one wait transaction
   instead of polling the two algorithms in turn. *)
let test_idle_watches_on_both_algorithms_park () =
  with_sessions ~conns:2 (fun fds reg ->
      let fd = fds.(0) and writer = fds.(1) in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      (match Registry.ensure ~algo:`Norec reg Wire.Kmap "n" with
      | Ok `Created -> ()
      | _ -> Alcotest.fail "could not create the NORec map");
      write_all fd
        (encode
           [
             req (Wire.New (Wire.Kmap, "m"));
             req (Wire.Watch "m");
             req (Wire.Watch "n");
           ]);
      Alcotest.check resps_t "both watches accepted"
        [ Wire.ok; Wire.ok; Wire.ok ]
        (recv_n fd 3);
      let starts () =
        List.fold_left
          (fun n stm -> n + (S.stats stm).S.starts)
          0
          (Registry.instances reg `Tl2 @ Registry.instances reg `Norec)
      in
      let before = starts () in
      Unix.sleepf 0.3;
      let idle = starts () - before in
      if idle > 0 then
        Alcotest.failf "an idle session started %d transactions in 300 ms" idle;
      write_all writer (encode [ req (Wire.Put ("n", 1, "x")) ]);
      Alcotest.check resps_t "the other client's PUT" [ Wire.Int 1 ]
        (recv_n writer 1);
      Alcotest.check resps_t "the NORec map's change is pushed"
        [ Wire.Push "n" ] (recv_n fd 1))

(* A pop that takes nothing changed nothing, so it marks no watcher:
   neither a DEQ of the empty queue nor a timed-out BTAKE pushes.  The
   pause before each PING gives a wrongly made mark time to push. *)
let test_empty_pop_marks_nothing () =
  with_session (fun fd _reg _ _ ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      write_all fd
        (encode [ req (Wire.New (Wire.Kqueue, "q")); req (Wire.Watch "q") ]);
      Alcotest.check resps_t "watching the queue" [ Wire.ok; Wire.ok ]
        (recv_n fd 2);
      List.iter
        (fun (what, cmd) ->
          write_all fd (encode [ req cmd ]);
          Alcotest.check resps_t what [ Wire.Nil ] (recv_n fd 1);
          Unix.sleepf 0.05;
          write_all fd (encode [ req Wire.Ping ]);
          Alcotest.check resps_t (what ^ " pushed nothing") [ Wire.pong ]
            (recv_n fd 1))
        [ ("DEQ of the empty queue", Wire.Deq "q");
          ("timed-out BTAKE", Wire.Btake ("q", 30)) ];
      write_all fd (encode [ req (Wire.Enq ("q", "a")) ]);
      Alcotest.check resps_t "ENQ pushes" [ Wire.ok; Wire.Push "q" ]
        (recv_n fd 2);
      write_all fd (encode [ req (Wire.Blpop ("q", 0)) ]);
      Alcotest.check resps_t "a BLPOP that takes the item pushes"
        [ Wire.Array [ Wire.Bulk "q"; Wire.Bulk "a" ]; Wire.Push "q" ]
        (recv_n fd 2))

(* Shutdown must answer parked waiters — a session waiting in the STM
   cannot be allowed to sleep through its own drain.  A single-session
   loop waits with no tick, so the stop flag alone cannot wake it: the
   socket nudge does, and the pop that hears its client's EOF, or the
   drain that follows, answers [Nil]. *)
let test_shutdown_wakes_parked_waiter () =
  with_session (fun fd reg _ (stop, server_fd) ->
      write_all fd (encode [ req (Wire.New (Wire.Kqueue, "q")) ]);
      Alcotest.check resps_t "queue created" [ Wire.ok ] (recv_n fd 1);
      write_all fd (encode [ req (Wire.Blpop ("q", 0)) ]);
      Alcotest.(check bool) "session parked with no timeout" true
        (eventually (fun () -> S.waiting (Registry.stm reg) = 1));
      Atomic.set stop true;
      (try Unix.shutdown server_fd Unix.SHUTDOWN_RECEIVE with _ -> ());
      Alcotest.check resps_t "parked BLPOP answered Nil on drain"
        [ Wire.Nil ] (recv_n fd 1);
      Alcotest.(check bool) "no waiter survives the drain" true
        (eventually (fun () -> S.waiting (Registry.stm reg) = 0)))

(* No wait holds a thread.  The session is driven with no event loop:
   a call to its [submit] fails the test, and its [post] queues the
   closure for the test to run later, as the loop runs what is posted
   to it.  A BLPOP parks until a later ENQ's wake posts its resume, a
   BTAKE times out when the loop's timer says so, and watches on a TL2
   map and a NORec map each push after a mark. *)
let test_waits_post_to_their_loop () =
  let server_fd, fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock server_fd;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let reg = Registry.create () in
  let posted = Queue.create () in
  let threads = ref 0 in
  let services =
    {
      Session.submit = (fun _ -> incr threads);
      post = (fun f -> Queue.push f posted);
    }
  in
  let sess =
    Session.create ~limits:Limits.default ~registry:reg
      ~stats:(Session.create_stats ()) ~services server_fd
  in
  (* After each call into the session: an exception there would only
     tear the session down, its cause on stderr, so fail at once. *)
  let check_calm what =
    Alcotest.(check int) (what ^ ": no wait asked for a thread") 0 !threads;
    Alcotest.(check int) (what ^ ": no handler raised") 0
      (Atomic.get reg.Registry.handler_errors)
  in
  let send reqs =
    write_all fd (encode reqs);
    Session.on_readable sess;
    check_calm "on_readable"
  in
  let run_posted () =
    let n = ref 0 in
    while not (Queue.is_empty posted) do
      incr n;
      (Queue.pop posted) ()
    done;
    check_calm "a posted resume";
    !n
  in
  let waiting what n =
    Alcotest.(check int) (what ^ ": STM waiters") n (S.waiting (Registry.stm reg))
  in
  let mark name v =
    match Registry.resolve reg (Wire.Put (name, 1, v)) with
    | Ok r ->
        ignore (r.Registry.run () : Wire.response);
        Registry.touch reg r
    | Error _ -> Alcotest.fail "resolve PUT"
  in
  (match Registry.ensure ~algo:`Norec reg Wire.Kmap "n" with
  | Ok `Created -> ()
  | _ -> Alcotest.fail "could not create the NORec map");
  send
    [
      req (Wire.New (Wire.Kqueue, "q"));
      req (Wire.New (Wire.Kmap, "m"));
      req (Wire.Blpop ("q", 0));
    ];
  Alcotest.check resps_t "created" [ Wire.ok; Wire.ok ] (recv_n fd 2);
  waiting "the BLPOP registered" 1;
  Alcotest.(check int) "it holds a waiter slot" 1 (Registry.waiting reg);
  Alcotest.(check int) "nothing posted while it waits" 0 (run_posted ());
  produce reg "q" "job";
  Alcotest.(check int) "the ENQ's commit posted one resume" 1 (run_posted ());
  Alcotest.check resps_t "the resume answers the BLPOP"
    [ Wire.Array [ Wire.Bulk "q"; Wire.Bulk "job" ] ]
    (recv_n fd 1);
  waiting "the BLPOP's wait cancelled" 0;
  Alcotest.(check int) "its slot returned" 0 (Registry.waiting reg);
  send [ req (Wire.Btake ("q", 30)) ];
  waiting "the BTAKE registered" 1;
  Alcotest.(check bool) "its timeout is the loop's deadline" true
    (Session.deadline sess < max_int);
  Unix.sleepf 0.04;
  Session.on_deadline sess (Polytm_runtime.Domain_runtime.now ());
  check_calm "on_deadline";
  Alcotest.check resps_t "the timer answers Nil" [ Wire.Nil ] (recv_n fd 1);
  waiting "the BTAKE's wait cancelled" 0;
  Alcotest.(check int) "no deadline left" max_int (Session.deadline sess);
  send [ req (Wire.Watch "m"); req (Wire.Watch "n") ];
  Alcotest.check resps_t "watching both" [ Wire.ok; Wire.ok ] (recv_n fd 2);
  waiting "one watch wait registered" 1;
  List.iter
    (fun name ->
      mark name "x";
      Alcotest.(check int) (name ^ "'s mark posted one resume") 1 (run_posted ());
      Alcotest.check resps_t (name ^ " pushed") [ Wire.Push name ] (recv_n fd 1);
      waiting (name ^ ": the watch registered again") 1)
    [ "m"; "n" ];
  (* UNWATCH cancels the watch wait and the pop parks in the same batch:
     the parked session registers its watch again and keeps pushing. *)
  send [ req (Wire.Unwatch "n"); req (Wire.Blpop ("q", 0)) ];
  Alcotest.check resps_t "unwatched" [ Wire.ok ] (recv_n fd 1);
  waiting "a parked pop and a watch" 2;
  mark "m" "y";
  Alcotest.(check int) "the mark posted one resume" 1 (run_posted ());
  Alcotest.check resps_t "pushed while the pop waits" [ Wire.Push "m" ]
    (recv_n fd 1);
  produce reg "q" "last";
  Alcotest.(check int) "the ENQ posted the pop's resume" 1 (run_posted ());
  Alcotest.check resps_t "the pop answers"
    [ Wire.Array [ Wire.Bulk "q"; Wire.Bulk "last" ] ]
    (recv_n fd 1);
  Session.teardown sess;
  waiting "teardown cancels the watch" 0;
  Unix.close fd;
  Unix.close server_fd

(* A drain that finds pops waiting on a TL2 and a NORec queue of a
   sharded registry, and a session watching both algorithms, answers
   every pop and leaves no wait registered on any instance.  The loop
   is woken by a post, as a server's loop 0 wakes its other loops, so
   the drain itself, not a client's EOF, ends the waits. *)
let test_drain_leaves_no_wait () =
  let reg = Registry.create ~shards:4 () in
  let stop = Atomic.make false in
  let loop = Evloop.create ~stop:(fun () -> Atomic.get stop) () in
  let dom = Domain.spawn (fun () -> Evloop.run loop) in
  let pairs =
    Array.init 3 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  Array.iter
    (fun (sfd, cfd) ->
      Unix.setsockopt_float cfd Unix.SO_RCVTIMEO 10.;
      Evloop.add_conn loop ~limits:Limits.default ~registry:reg
        ~stats:(Session.create_stats ()) sfd)
    pairs;
  let fd i = snd pairs.(i) in
  List.iter
    (fun (algo, kind, name) ->
      match Registry.ensure ~algo reg kind name with
      | Ok `Created -> ()
      | _ -> Alcotest.failf "could not create %s" name)
    [
      (`Tl2, Wire.Kqueue, "q");
      (`Norec, Wire.Kqueue, "nq");
      (`Tl2, Wire.Kmap, "m");
      (`Norec, Wire.Kmap, "n");
    ];
  write_all (fd 2) (encode [ req (Wire.Watch "m"); req (Wire.Watch "n") ]);
  Alcotest.check resps_t "watching" [ Wire.ok; Wire.ok ] (recv_n (fd 2) 2);
  write_all (fd 0) (encode [ req (Wire.Blpop ("q", 0)) ]);
  write_all (fd 1) (encode [ req (Wire.Btake ("nq", 0)) ]);
  Alcotest.(check bool) "both pops wait" true
    (eventually (fun () -> Registry.waiting reg = 2));
  let all = Registry.instances reg `Tl2 @ Registry.instances reg `Norec in
  let registered () = List.fold_left (fun n stm -> n + S.waiting stm) 0 all in
  Alcotest.(check int) "two pops and a watch registered" 3 (registered ());
  Atomic.set stop true;
  Evloop.post loop ignore;
  Alcotest.check resps_t "the TL2 pop answers Nil" [ Wire.Nil ] (recv_n (fd 0) 1);
  Alcotest.check resps_t "the NORec pop answers Nil" [ Wire.Nil ]
    (recv_n (fd 1) 1);
  Domain.join dom;
  List.iteri
    (fun i stm ->
      Alcotest.(check int) (Printf.sprintf "instance %d: no wait" i) 0
        (S.waiting stm))
    all;
  Alcotest.(check int) "no waiter slot held" 0 (Registry.waiting reg);
  Array.iter
    (fun (sfd, cfd) ->
      Unix.close cfd;
      Unix.close sfd)
    pairs

(* The drain ends every wait itself, with no commit to wake it.  The
   session is driven with no loop, as in "waits post to their loop": a
   BLPOP waits on an empty queue beside a watch, and a second BLPOP, on
   a queue that holds an item, arrives behind it.  The drain answers
   both [Nil]: the waiting one freeing its slot, the later one without
   dequeuing, so a DEQ afterwards still gets the item.  No wait is left
   registered and nothing was posted. *)
let test_drain_answers_pops_nil () =
  let server_fd, fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock server_fd;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let reg = Registry.create () in
  let posted = ref 0 in
  let services =
    {
      Session.submit = (fun _ -> Alcotest.fail "a wait asked for a thread");
      post = (fun _ -> incr posted);
    }
  in
  let sess =
    Session.create ~limits:Limits.default ~registry:reg
      ~stats:(Session.create_stats ()) ~services server_fd
  in
  List.iter
    (fun (kind, name) ->
      match Registry.ensure reg kind name with
      | Ok `Created -> ()
      | _ -> Alcotest.failf "could not create %s" name)
    [ (Wire.Kqueue, "empty"); (Wire.Kqueue, "full"); (Wire.Kmap, "m") ];
  produce reg "full" "item";
  write_all fd
    (encode [ req (Wire.Watch "m"); req (Wire.Blpop ("empty", 0)) ]);
  Session.on_readable sess;
  Alcotest.check resps_t "watching" [ Wire.ok ] (recv_n fd 1);
  Alcotest.(check int) "a pop and a watch wait" 2
    (S.waiting (Registry.stm reg));
  Alcotest.(check int) "the pop holds a slot" 1 (Registry.waiting reg);
  write_all fd (encode [ req (Wire.Blpop ("full", 0)) ]);
  Session.begin_drain sess;
  Alcotest.check resps_t "both pops answer Nil" [ Wire.Nil; Wire.Nil ]
    (recv_n fd 2);
  Alcotest.(check int) "no wait left" 0 (S.waiting (Registry.stm reg));
  Alcotest.(check int) "no slot held" 0 (Registry.waiting reg);
  Alcotest.(check int) "nothing posted" 0 !posted;
  Alcotest.(check int) "no handler raised" 0
    (Atomic.get reg.Registry.handler_errors);
  Alcotest.(check bool) "the session is done" true (Session.finished sess);
  (match Registry.resolve reg (Wire.Deq "full") with
  | Ok r ->
      Alcotest.check resp_t "a later DEQ gets the item" (Wire.Bulk "item")
        (r.Registry.run ())
  | Error _ -> Alcotest.fail "resolve DEQ");
  Session.teardown sess;
  Unix.close fd;
  Unix.close server_fd

(* A client that hangs up while its BLPOP waits takes nothing: one
   loop serves two connections, the first parks a BLPOP and closes,
   and on the second INFO reports no waiter, an ENQ is acked and the
   DEQ after it gets the item.  The parked session must still read its
   connection to hear the EOF, end the wait and free its slot before
   the ENQ's commit can hand the dead pop the item.  The pop's [Nil]
   goes to a closed peer (the runner ignores SIGPIPE). *)
let test_hung_up_pop_takes_nothing () =
  let reg = Registry.create () in
  let stop = Atomic.make false in
  let loop = Evloop.create ~stop:(fun () -> Atomic.get stop) () in
  let dom = Domain.spawn (fun () -> Evloop.run loop) in
  let pairs =
    Array.init 2 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  Array.iter
    (fun (sfd, cfd) ->
      Unix.setsockopt_float cfd Unix.SO_RCVTIMEO 10.;
      Evloop.add_conn loop ~limits:Limits.default ~registry:reg
        ~stats:(Session.create_stats ()) sfd)
    pairs;
  let a = snd pairs.(0) and b = snd pairs.(1) in
  write_all b (encode [ req (Wire.New (Wire.Kqueue, "q")) ]);
  Alcotest.check resps_t "queue created" [ Wire.ok ] (recv_n b 1);
  write_all a (encode [ req (Wire.Blpop ("q", 0)) ]);
  Alcotest.(check bool) "the BLPOP waits" true
    (eventually (fun () -> Registry.waiting reg = 1));
  Unix.close a;
  Alcotest.(check bool) "the hang-up frees its waiter slot" true
    (eventually (fun () -> Registry.waiting reg = 0));
  write_all b
    (encode [ req Wire.Info; req (Wire.Enq ("q", "item")); req (Wire.Deq "q") ]);
  (match recv_n b 3 with
  | [ Wire.Bulk info; enq; deq ] ->
      Alcotest.(check bool) "INFO: waiting:0" true
        (List.mem "waiting:0" (String.split_on_char '\n' info));
      Alcotest.check resps_t "ENQ acked, DEQ gets the item"
        [ Wire.ok; Wire.Bulk "item" ] [ enq; deq ]
  | got ->
      Alcotest.failf "INFO, ENQ, DEQ: got %s"
        (String.concat " | " (List.map pp_resp got)));
  Alcotest.(check int) "no wait left registered" 0 (S.waiting (Registry.stm reg));
  Atomic.set stop true;
  Unix.shutdown b Unix.SHUTDOWN_SEND;
  Domain.join dom;
  Array.iter (fun (sfd, _) -> Unix.close sfd) pairs;
  Unix.close b

(* INFO's [ops] counts each client request once: SNAPSHOT-ITER's
   stream path counts as the same command inside MULTI does. *)
let test_snapshot_iter_counts_once () =
  with_session (fun fd reg _ _ ->
      let ops () = List.assoc "struct_\"m\"" (Registry.info reg) in
      write_all fd (encode [ req (Wire.New (Wire.Kmap, "m")) ]);
      Alcotest.check resps_t "created" [ Wire.ok ] (recv_n fd 1);
      write_all fd (encode (List.init 5 (fun _ -> req (Wire.Snapshot_iter "m"))));
      ignore (recv_n fd 5);
      Alcotest.(check string) "five streamed SNAPSHOT-ITERs"
        "kind=map,algo=tl2,ops=5" (ops ());
      write_all fd
        (encode
           [ req Wire.Multi; req (Wire.Snapshot_iter "m"); req Wire.Multi_end ]);
      ignore (recv_n fd 3);
      Alcotest.(check string) "and one inside MULTI" "kind=map,algo=tl2,ops=6"
        (ops ()))

(* A loop waits with [select], which cannot take an fd at or above
   FD_SETSIZE: such a connection is closed where it enters the loop and
   counted in INFO, and the loop keeps serving its other connections.
   The high fd is a [dup2] of one socket, so the test opens a handful
   of fds. *)
let test_unselectable_fd_refused () =
  let reg = Registry.create () in
  let stop = Atomic.make false in
  let loop = Evloop.create ~stop:(fun () -> Atomic.get stop) () in
  let dom = Domain.spawn (fun () -> Evloop.run loop) in
  let hs, hc = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let high : Unix.file_descr = Obj.magic Limits.fd_limit in
  (try Unix.dup2 ~cloexec:true hs high
   with Unix.Unix_error (e, _, _) ->
     Alcotest.failf "dup2 onto fd %d: %s" Limits.fd_limit (Unix.error_message e));
  Unix.close hs;
  let ns, nc = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float hc Unix.SO_RCVTIMEO 10.;
  Unix.setsockopt_float nc Unix.SO_RCVTIMEO 10.;
  let stats = Session.create_stats () in
  Evloop.add_conn loop
    ~on_close:(fun () -> Unix.close high)
    ~limits:Limits.default ~registry:reg ~stats high;
  Evloop.add_conn loop ~limits:Limits.default ~registry:reg ~stats ns;
  Alcotest.(check int) "the refused fd is closed" 0
    (Unix.read hc (Bytes.create 1) 0 1);
  write_all nc (encode [ req Wire.Ping; req Wire.Info ]);
  (match recv_n nc 2 with
  | [ Wire.Simple "PONG"; Wire.Bulk info ] ->
      let lines = String.split_on_char '\n' info in
      Alcotest.(check bool) "INFO states the limit" true
        (List.mem (Printf.sprintf "fd_limit:%d" Limits.fd_limit) lines);
      Alcotest.(check bool) "INFO counts the refusal" true
        (List.mem "fd_refused:1" lines)
  | got ->
      Alcotest.failf "PING then INFO, got %s"
        (String.concat " | " (List.map pp_resp got)));
  Atomic.set stop true;
  Unix.shutdown nc Unix.SHUTDOWN_SEND;
  Domain.join dom;
  List.iter Unix.close [ hc; ns; nc ]

(* A handler that raises ends its own connection, never its loop: one
   loop serves two connections, and the first one's fd is made a
   directory's by [dup2], so its read raises EISDIR, which no handler
   expects.  That session is torn down and its fd closed, the other
   connection keeps being served, and INFO counts the fault. *)
let test_raising_handler_ends_its_connection () =
  let reg = Registry.create () in
  let stop = Atomic.make false in
  let loop = Evloop.create ~stop:(fun () -> Atomic.get stop) () in
  let dom = Domain.spawn (fun () -> Evloop.run loop) in
  let fs, fc = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ns, nc = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let dir = Unix.openfile "." [ Unix.O_RDONLY ] 0 in
  Unix.dup2 ~cloexec:true dir fs;
  Unix.close dir;
  Unix.setsockopt_float nc Unix.SO_RCVTIMEO 10.;
  let closed = Atomic.make false in
  Evloop.add_conn loop
    ~on_close:(fun () ->
      Unix.close fs;
      Atomic.set closed true)
    ~limits:Limits.default ~registry:reg ~stats:(Session.create_stats ()) fs;
  Evloop.add_conn loop ~limits:Limits.default ~registry:reg
    ~stats:(Session.create_stats ()) ns;
  Alcotest.(check bool) "the raising session's fd is closed" true
    (eventually (fun () -> Atomic.get closed));
  write_all nc (encode [ req Wire.Ping; req Wire.Info ]);
  (match recv_n nc 2 with
  | [ Wire.Simple "PONG"; Wire.Bulk info ] ->
      Alcotest.(check bool) "INFO counts the fault" true
        (List.mem "handler_errors:1" (String.split_on_char '\n' info))
  | got ->
      Alcotest.failf "PING then INFO, got %s"
        (String.concat " | " (List.map pp_resp got)));
  Atomic.set stop true;
  Unix.shutdown nc Unix.SHUTDOWN_SEND;
  Domain.join dom;
  List.iter Unix.close [ fc; ns; nc ]

(* A request's latency sample is its service time on the loop, so a
   pipelined batch of n transactional requests records n samples, each
   in its semantics' histogram: a MULTI batch is one transaction and
   its queued commands none.  PING, NEW and the like run no
   transaction and record none. *)
let test_latency_samples_per_request () =
  with_session (fun fd _ stats _ ->
      let counts () =
        ( Polytm_util.Stats.Hist.count (Session.latency_all stats),
          Array.to_list
            (Array.map Polytm_util.Stats.Hist.count stats.Session.lat_by_sem) )
      in
      let check what want =
        Alcotest.(check (pair int (list int))) what want (counts ())
      in
      write_all fd (encode [ req (Wire.New (Wire.Kmap, "m")) ]);
      Alcotest.check resps_t "created" [ Wire.ok ] (recv_n fd 1);
      check "NEW records nothing" (0, [ 0; 0; 0 ]);
      let batch =
        [
          req ~hint:Sem.Elastic (Wire.Get ("m", 1));
          req ~hint:Sem.Classic (Wire.Put ("m", 1, "a"));
          req Wire.Ping;
          req ~hint:Sem.Elastic (Wire.Get ("m", 1));
          req (Wire.Put ("m", 2, "b"));
          req (Wire.Size "m");
          req (Wire.Snapshot_iter "m");
          req ~hint:Sem.Snapshot (Wire.Contains ("m", 2));
          req Wire.Multi;
          req (Wire.Get ("m", 1));
          req (Wire.Del ("m", 2));
          req Wire.Multi_end;
          req ~hint:Sem.Elastic (Wire.Contains ("m", 1));
        ]
      in
      write_all fd (encode batch);
      ignore (recv_n fd (List.length batch));
      check "nine transactions: four classic, three elastic, two snapshot"
        (9, [ 4; 3; 2 ]);
      write_all fd (encode (List.init 10 (fun _ -> req Wire.Ping)));
      ignore (recv_n fd 10);
      check "a batch of PINGs records none" (9, [ 4; 3; 2 ]))

(* ---- sharded server: --shards K behind the same wire protocol ---------- *)

(* Cross-shard MULTI, spanning snapshots, blocking and WATCH against an
   8-shard registry: every reply must be exactly the single-instance
   one — sharding is invisible on the wire. *)
let test_sharded_server_surface () =
  with_session ~shards:8 (fun fd reg _ _ ->
      Alcotest.(check int) "registry routes across 8 shards" 8
        (Registry.shard_count reg);
      write_all fd
        (encode
           [ req (Wire.New (Wire.Kmap, "m")); req (Wire.New (Wire.Kqueue, "q")) ]);
      Alcotest.check resps_t "created" [ Wire.ok; Wire.ok ] (recv_n fd 2);
      (* Point ops hash-route to owner shards. *)
      let n = 32 in
      write_all fd
        (encode
           (List.init n (fun k -> req (Wire.Put ("m", k, "v" ^ string_of_int k)))));
      Alcotest.check resps_t "every put lands fresh on its owner shard"
        (List.init n (fun _ -> Wire.Int 1))
        (recv_n fd n);
      (* Aggregates span shards: SIZE counts them all, SNAPSHOT-ITER
         merges the parts in global key order. *)
      write_all fd
        (encode
           [ req (Wire.Size "m"); req ~hint:Sem.Snapshot (Wire.Snapshot_iter "m") ]);
      Alcotest.check resps_t "spanning aggregates"
        [
          Wire.Int n;
          Wire.Array
            (List.init n (fun k ->
                 Wire.Array [ Wire.Int k; Wire.Bulk ("v" ^ string_of_int k) ]));
        ]
        (recv_n fd 2);
      (* A MULTI batch whose keys live on different shards commits as
         one cross-shard transaction; its effects land together. *)
      write_all fd
        (encode
           [
             req Wire.Multi;
             req (Wire.Put ("m", 100, "hundred"));
             req (Wire.Put ("m", 101, "hundred-one"));
             req (Wire.Del ("m", 0));
             req Wire.Multi_end;
             req (Wire.Size "m");
           ]);
      Alcotest.check resps_t "cross-shard MULTI commits atomically"
        [
          Wire.ok;
          Wire.queued;
          Wire.queued;
          Wire.queued;
          Wire.Array [ Wire.Int 1; Wire.Int 1; Wire.Int 1 ];
          Wire.Int (n + 1);
        ]
        (recv_n fd 6);
      (* A snapshot write inside a spanning MULTI still discards the
         whole batch with a typed error. *)
      write_all fd
        (encode
           [
             req ~hint:Sem.Snapshot Wire.Multi;
             req (Wire.Put ("m", 200, "nope"));
             req (Wire.Put ("m", 201, "nope"));
             req Wire.Multi_end;
             req (Wire.Contains ("m", 200));
           ]);
      (match recv_n fd 5 with
      | [ Wire.Simple "OK"; Wire.Simple "QUEUED"; Wire.Simple "QUEUED";
          Wire.Error (Wire.Sem_violation, _); Wire.Int 0 ] ->
          ()
      | got ->
          Alcotest.failf "snapshot write in spanning MULTI: %s"
            (String.concat " | " (List.map pp_resp got)));
      (* Blocking pops park on the queue's home shard and are woken by
         a commit there. *)
      write_all fd (encode [ req (Wire.Blpop ("q", 0)) ]);
      Alcotest.(check bool) "consumer parked on the home shard" true
        (eventually (fun () -> Registry.waiting reg = 1));
      produce reg "q" "job";
      Alcotest.check resps_t "woken by the producer's commit"
        [ Wire.Array [ Wire.Bulk "q"; Wire.Bulk "job" ] ]
        (recv_n fd 1);
      (* WATCH still observes commits: the session marks the map on
         the control shard after the PUT committed on its owner shard,
         so the reply leaves before the push. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      write_all fd (encode [ req (Wire.Watch "m") ]);
      Alcotest.check resps_t "watch accepted" [ Wire.ok ] (recv_n fd 1);
      write_all fd (encode [ req (Wire.Put ("m", 7, "update")) ]);
      Alcotest.check resps_t "push notification crosses the shard router"
        [ Wire.Int 0; Wire.Push "m" ] (recv_n fd 2))

(* ---- registry creation races (4 connections) ---------------------------- *)

(* First touch: four connections race NEW on the same names, then
   write through whichever instance they resolved.  All writes must
   land in ONE converged structure — a loser writing to an orphaned
   duplicate would simply vanish from the final snapshot. *)
let test_first_touch_creation_race () =
  with_sessions ~conns:4 (fun fds reg ->
      let n = Array.length fds in
      let barrier = Atomic.make 0 in
      let drivers =
        Array.mapi
          (fun i fd ->
            Domain.spawn (fun () ->
                (* all four fire their NEW batch as close together as
                   the scheduler allows *)
                Atomic.incr barrier;
                while Atomic.get barrier < n do
                  Domain.cpu_relax ()
                done;
                write_all fd
                  (encode
                     [
                       req (Wire.New (Wire.Kmap, "x"));
                       req (Wire.New (Wire.Kqueue, "jobs"));
                       req (Wire.Put ("x", i, "conn" ^ string_of_int i));
                       req (Wire.Enq ("jobs", "job" ^ string_of_int i));
                     ]);
                recv_n fd 4))
          fds
      in
      let replies = Array.map Domain.join drivers in
      (* Exactly one connection created each structure; every other
         reply is EXISTS — never an error, never a second instance. *)
      let created name_idx =
        Array.fold_left
          (fun acc rs ->
            match List.nth rs name_idx with
            | Wire.Simple "OK" -> acc + 1
            | Wire.Simple "EXISTS" -> acc
            | r -> Alcotest.failf "NEW race reply: %s" (pp_resp r))
          0 replies
      in
      Alcotest.(check int) "one creator for the map" 1 (created 0);
      Alcotest.(check int) "one creator for the queue" 1 (created 1);
      Array.iteri
        (fun i rs ->
          Alcotest.(check resp_t)
            (Printf.sprintf "conn %d's put landed" i)
            (Wire.Int 1) (List.nth rs 2))
        replies;
      (* All four writes are in the one converged map and queue. *)
      write_all fds.(0)
        (encode
           [
             req (Wire.Size "x");
             req ~hint:Sem.Snapshot (Wire.Snapshot_iter "x");
             req (Wire.Size "jobs");
           ]);
      (match recv_n fds.(0) 3 with
      | [ Wire.Int sx; Wire.Array items; Wire.Int sq ] ->
          Alcotest.(check int) "map holds all four writes" 4 sx;
          Alcotest.(check int) "snapshot sees all four" 4 (List.length items);
          Alcotest.(check int) "queue holds all four jobs" 4 sq
      | got ->
          Alcotest.failf "converged check: %s"
            (String.concat " | " (List.map pp_resp got)));
      ignore reg)

(* ---- misc surface ------------------------------------------------------ *)

let test_kind_mismatch_and_unknown () =
  with_session (fun fd _ _ _ ->
      write_all fd
        (encode
           [
             req (Wire.New (Wire.Kqueue, "q"));
             req (Wire.Get ("q", 1));
             req (Wire.New (Wire.Kmap, "q"));
             req (Wire.Deq "nope");
           ]);
      match recv_n fd 4 with
      | [ Wire.Simple "OK"; Wire.Error (Wire.Bad_op, _);
          Wire.Error (Wire.Bad_op, _); Wire.Error (Wire.No_struct, _) ] ->
          ()
      | got ->
          Alcotest.failf "typed errors expected, got %s"
            (String.concat " | " (List.map pp_resp got)))

(* A structure name may hold a newline: NEW accepts it (recovery
   replays every NEW record a log holds), and every reply built from it
   must still be one line.  A kind mismatch quotes the name, and the
   session keeps serving. *)
let test_newline_name_kind_mismatch () =
  with_session (fun fd _ _ _ ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      write_all fd
        (encode
           [
             req (Wire.New (Wire.Kmap, "a\nb"));
             req (Wire.New (Wire.Kset, "a\nb"));
             req Wire.Ping;
           ]);
      Alcotest.check resps_t "typed refusal, then PONG"
        [
          Wire.ok;
          Wire.Error (Wire.Bad_op, "\"a\\nb\" exists with kind map");
          Wire.pong;
        ]
        (recv_n fd 3))

(* A push frame is one line, so WATCH of such a name is refused: no
   later commit to it can make the watcher's loop emit a bad frame. *)
let test_newline_name_watch_refused () =
  with_sessions ~conns:2 (fun fds _reg ->
      let fd = fds.(0) and writer = fds.(1) in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      Unix.setsockopt_float writer Unix.SO_RCVTIMEO 10.;
      write_all fd
        (encode [ req (Wire.New (Wire.Kmap, "x\ny")); req (Wire.Watch "x\ny") ]);
      Alcotest.check resps_t "WATCH refused"
        [
          Wire.ok;
          Wire.Error
            (Wire.Bad_op, "cannot watch \"x\\ny\": a push frame is one line");
        ]
        (recv_n fd 2);
      write_all writer
        (encode [ req (Wire.Put ("x\ny", 1, "v")); req Wire.Ping ]);
      Alcotest.check resps_t "the other session's PUT commits"
        [ Wire.Int 1; Wire.pong ] (recv_n writer 2);
      write_all fd (encode [ req Wire.Ping ]);
      Alcotest.check resps_t "the refused watcher still answers" [ Wire.pong ]
        (recv_n fd 1))

(* INFO is one "key:value" line per fact, so a name that holds a newline
   and a key of its own must not add a line: INFO quotes it. *)
let test_newline_name_info_quoted () =
  with_session (fun fd _ _ _ ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      write_all fd
        (encode [ req (Wire.New (Wire.Kmap, "a\nuptime_sec:999")); req Wire.Info ]);
      match recv_n fd 2 with
      | [ Wire.Simple "OK"; Wire.Bulk info ] ->
          let lines = String.split_on_char '\n' info in
          let starting p =
            List.length
              (List.filter (String.starts_with ~prefix:p) lines)
          in
          Alcotest.(check int) "one uptime_sec line" 1 (starting "uptime_sec:");
          Alcotest.(check int) "one struct_ line" 1 (starting "struct_");
          Alcotest.(check bool) "the name is quoted" true
            (List.mem "struct_\"a\\nuptime_sec:999\":kind=map,algo=tl2,ops=0"
               lines)
      | got ->
          Alcotest.failf "NEW then INFO, got %s"
            (String.concat " | " (List.map pp_resp got)))

(* ---- dual-backend hosting: a NORec structure next to a TL2 one --------- *)

let test_mixed_algo_structures () =
  with_session (fun fd registry _stats _ ->
      (* Pin a NORec set before the session traffic; wire NEW keeps
         creating on the default (TL2) instance. *)
      (match Registry.ensure ~algo:`Norec registry Wire.Kset "nset" with
      | Ok `Created -> ()
      | _ -> Alcotest.fail "could not create the NORec set");
      write_all fd
        (encode
           [
             req (Wire.New (Wire.Kmap, "m"));
             req (Wire.Put ("m", 1, "one"));
             req (Wire.Add ("nset", 7));
             req ~hint:Sem.Snapshot (Wire.Snapshot_iter "nset");
             req (Wire.Get ("m", 1));
           ]);
      Alcotest.check resps_t "ops on both backends"
        [
          Wire.ok;
          Wire.Int 1;
          Wire.Int 1;
          Wire.Array [ Wire.Int 7 ];
          Wire.Bulk "one";
        ]
        (recv_n fd 5);
      Alcotest.(check bool) "entries pinned to their instances" true
        (Registry.algo_of registry "m" = Some `Tl2
        && Registry.algo_of registry "nset" = Some `Norec);
      (* A MULTI confined to the NORec instance commits atomically... *)
      write_all fd
        (encode
           [
             req Wire.Multi;
             req (Wire.Add ("nset", 8));
             req (Wire.Add ("nset", 9));
             req Wire.Multi_end;
           ]);
      Alcotest.check resps_t "NORec-only batch commits"
        [
          Wire.ok;
          Wire.queued;
          Wire.queued;
          Wire.Array [ Wire.Int 1; Wire.Int 1 ];
        ]
        (recv_n fd 4);
      (* ...while a batch spanning both instances cannot be one
         transaction: typed error, nothing executed. *)
      write_all fd
        (encode
           [
             req Wire.Multi;
             req (Wire.Put ("m", 2, "two"));
             req (Wire.Add ("nset", 10));
             req Wire.Multi_end;
             req (Wire.Contains ("nset", 10));
             req (Wire.Get ("m", 2));
           ]);
      match recv_n fd 6 with
      | [
       Wire.Simple "OK";
       Wire.Simple "QUEUED";
       Wire.Simple "QUEUED";
       Wire.Error (Wire.Bad_op, m);
       Wire.Int 0;
       Wire.Nil;
      ] ->
          Alcotest.(check bool)
            (Printf.sprintf "error names both algorithms: %s" m)
            true
            (let has needle =
               let lh = String.length m and ln = String.length needle in
               let rec at i =
                 i + ln <= lh && (String.sub m i ln = needle || at (i + 1))
               in
               at 0
             in
             has "tl2" && has "norec")
      | got ->
          Alcotest.failf "mixed-algo batch: unexpected replies %s"
            (String.concat " | " (List.map pp_resp got)))

(* ---- short-I/O fuzz: the state machine vs pathological scheduling ------ *)

(* The session must be insensitive to how bytes arrive and leave: the
   same pipelined batch, fed one byte at a time into a session whose
   peer drains replies in dribbles through shrunken kernel buffers
   (short writes, EAGAIN on both directions, reads with nothing
   buffered), must produce the exact reply byte stream of a
   well-behaved run.  This drives [Session] directly — no event loop —
   so the poke order is the property's random input. *)

(* The generated batches contain no parking op (BLPOP/BTAKE) and no
   WATCH, so neither helper hook fires. *)
let inline_services =
  { Session.submit = (fun f -> f ()); post = (fun f -> f ()) }

let drive_session ~rng ~pathological batch_bytes =
  let server_fd, client_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Unix.set_nonblock server_fd;
  Unix.set_nonblock client_fd;
  if pathological then begin
    (* Kernel buffers at their floor: a snapshot reply no longer fits,
       so flushing must survive short writes and EAGAIN tails. *)
    (try Unix.setsockopt_int server_fd Unix.SO_SNDBUF 4096 with _ -> ());
    try Unix.setsockopt_int client_fd Unix.SO_RCVBUF 4096 with _ -> ()
  end;
  let registry = Registry.create () in
  List.iter
    (fun (k, n) ->
      match Registry.ensure registry k n with
      | Ok _ -> ()
      | Error _ -> assert false)
    [ (Wire.Kmap, "m"); (Wire.Kset, "s"); (Wire.Kqueue, "q") ];
  let stats = Session.create_stats () in
  let sess =
    Session.create ~limits:Limits.default ~registry ~stats
      ~services:inline_services server_fd
  in
  let out = Buffer.create 4096 in
  let rbuf = Bytes.create 65536 in
  let len = String.length batch_bytes in
  let sent = ref 0 in
  let input_closed = ref false in
  let send n =
    (match Unix.write_substring client_fd batch_bytes !sent n with
    | w -> sent := !sent + w
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ());
    if !sent = len && not !input_closed then begin
      input_closed := true;
      Unix.shutdown client_fd Unix.SHUTDOWN_SEND
    end
  in
  let drain budget =
    match Unix.read client_fd rbuf 0 (min budget (Bytes.length rbuf)) with
    | 0 -> ()
    | n -> Buffer.add_subbytes out rbuf 0 n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  let steps = ref 0 in
  while not (Session.finished sess) do
    incr steps;
    if !steps > 2_000_000 then Alcotest.fail "fuzz driver made no progress";
    if pathological then
      match Random.State.int rng 5 with
      | 0 -> if !sent < len then send (min (1 + Random.State.int rng 3) (len - !sent))
      | 1 -> Session.on_readable sess (* often with nothing buffered *)
      | 2 -> Session.try_flush sess (* often against a full peer buffer *)
      | 3 -> drain (1 + Random.State.int rng 7)
      | _ -> drain 65536
    else begin
      if !sent < len then send (len - !sent);
      Session.on_readable sess;
      Session.try_flush sess;
      drain 65536
    end
  done;
  if Atomic.get registry.Registry.handler_errors > 0 then
    Alcotest.fail "a session handler raised (its exception is on stderr)";
  Session.teardown sess;
  (try Unix.close server_fd with _ -> ());
  (* the flushed tail is buffered in the socket; EOF ends it *)
  let rec tail () =
    match Unix.read client_fd rbuf 0 65536 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out rbuf 0 n;
        tail ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        tail ()
  in
  tail ();
  (try Unix.close client_fd with _ -> ());
  Buffer.contents out

let fuzz_batch_gen =
  QCheck.Gen.(
    let key = int_range 0 50 in
    let value =
      string_size
        ~gen:(map (fun n -> Char.chr (97 + n)) (int_range 0 25))
        (int_range 0 120)
    in
    let cmd =
      frequency
        [
          (3, map2 (fun k v -> Wire.Put ("m", k, v)) key value);
          (2, map (fun k -> Wire.Get ("m", k)) key);
          (1, map (fun k -> Wire.Del ("m", k)) key);
          (1, map (fun k -> Wire.Contains ("m", k)) key);
          (1, map (fun k -> Wire.Add ("s", k)) key);
          (1, map (fun k -> Wire.Remove ("s", k)) key);
          (1, return (Wire.Size "m"));
          (2, return (Wire.Snapshot_iter "m"));
          (1, map (fun v -> Wire.Enq ("q", v)) value);
          (1, return (Wire.Deq "q"));
          (1, return Wire.Ping);
          (1, return Wire.Multi);
          (1, return Wire.Multi_end);
        ]
    in
    let hint =
      frequency
        [
          (4, return None);
          (1, return (Some Sem.Classic));
          (1, return (Some Sem.Elastic));
          (1, return (Some Sem.Snapshot));
        ]
    in
    (* <= 60 requests: both runs stay under the in-flight admission
       bound however the reads batch up, so BUSY cannot diverge. *)
    list_size (int_range 1 60) (pair hint cmd))

let pp_batch batch =
  String.concat "; "
    (List.map
       (fun (hint, cmd) ->
         let h =
           match hint with None -> "" | Some s -> "~" ^ Sem.to_string s ^ " "
         in
         h ^ Wire.cmd_name cmd)
       batch)

let session_short_io_property =
  QCheck.Test.make ~count:30
    ~name:"short-I/O fuzz round-trips batches byte-identically"
    (QCheck.make fuzz_batch_gen ~print:pp_batch)
    (fun batch ->
      let bytes =
        encode (List.map (fun (hint, cmd) -> { Wire.hint; cmd }) batch)
      in
      let rng = Random.State.make [| Test_seed.seed; Hashtbl.hash batch |] in
      let clean = drive_session ~rng ~pathological:false bytes in
      let fuzzed = drive_session ~rng ~pathological:true bytes in
      if not (String.equal clean fuzzed) then
        QCheck.Test.fail_reportf
          "reply streams diverge: clean %d bytes, fuzzed %d bytes"
          (String.length clean) (String.length fuzzed);
      true)

(* ---- steady-state allocation probe -------------------------------------- *)

(* The reply path must not allocate per-frame strings: replies are
   encoded straight into the session's reusable output buffer and
   written from it.  [Gc.minor_words] counts every minor allocation
   exactly, and it is per-domain, so the session is driven inline on
   the test thread (the loop driving it allocates nothing per op).  Three
   budgets pin the property: a lean bound on PING (no transaction), a
   bound on GETs of a 1 KiB value that a single per-frame copy of the
   reply payload (~128 words) would already blow, and a bound on the
   benchmark's point mix, which a request parser that copies every
   field into a list exceeds.  A fourth runs the durable mix with the
   op log on. *)
let alloc_words_per_op ?persist_dir ~warm_rounds ~rounds batch n_replies =
  let server_fd, client_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Unix.set_nonblock server_fd;
  Unix.set_nonblock client_fd;
  let registry = Registry.create () in
  let persist =
    Option.map
      (fun dir ->
        match Persist.recover ~dir registry with
        | Error m -> Alcotest.failf "recover: %s" m
        | Ok r -> (
            match Persist.activate ~dir ~policy:`Everysec registry r with
            | Ok p -> p
            | Error m -> Alcotest.failf "activate: %s" m))
      persist_dir
  in
  (match Registry.ensure registry Wire.Kmap "m" with
  | Ok _ -> ()
  | Error _ -> assert false);
  let stats = Session.create_stats () in
  let sess =
    Session.create ~limits:Limits.default ~registry ~stats
      ~services:inline_services server_fd
  in
  let rbuf = Bytes.create 65536 in
  let drain () =
    let rec go () =
      match Unix.read client_fd rbuf 0 65536 with
      | 0 -> ()
      | _ -> go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
    in
    go ()
  in
  let target = ref 0 in
  let round () =
    (* the batch fits the (previously drained) kernel buffer, so the
       non-blocking write goes through whole *)
    write_all client_fd batch;
    target := !target + n_replies;
    let guard = ref 0 in
    while stats.Session.replies < !target do
      incr guard;
      if Atomic.get registry.Registry.handler_errors > 0 then
        Alcotest.fail "a session handler raised (its exception is on stderr)";
      if !guard > 10_000 then Alcotest.fail "alloc probe made no progress";
      Session.on_readable sess;
      Session.try_flush sess;
      drain ()
    done;
    Session.try_flush sess;
    drain ()
  in
  for _ = 1 to warm_rounds do
    round ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let dw = Gc.minor_words () -. w0 in
  Option.iter Persist.stop persist;
  Session.teardown sess;
  (try Unix.close server_fd with _ -> ());
  (try Unix.close client_fd with _ -> ());
  dw /. float_of_int (rounds * n_replies)

let test_steady_state_allocation () =
  let n = 256 in
  let pings = encode (List.init n (fun _ -> req Wire.Ping)) in
  let ping_words = alloc_words_per_op ~warm_rounds:2 ~rounds:4 pings n in
  (* measured 35.6 words/op; 53.7 with a cursor, a boxed frame bound
     and a queue cell per request *)
  if ping_words > 40.0 then
    Alcotest.failf "PING path allocates %.1f words/op (budget 40)" ping_words;
  (* seed one 1 KiB value, then hammer GETs of it: the ~1 KiB reply
     payload must stream through the output buffer without being
     copied into any per-frame string *)
  let seed_and_get =
    encode
      (req (Wire.Put ("m", 7, String.make 1024 'x'))
      :: List.init n (fun _ -> req (Wire.Get ("m", 7))))
  in
  let get_words =
    alloc_words_per_op ~warm_rounds:2 ~rounds:4 seed_and_get (n + 1)
  in
  (* measured 62.3 words/op of decode + transaction machinery (93.8
     when every call built its descriptor, member list and run record,
     boxed its options and wrapped the request's thunk; 113.8 with a
     cursor, a boxed frame bound and a queue cell per request, and a
     second clock read; 138.3 with the field-list parser); one
     per-frame copy of the 1 KiB payload alone is ~128 words more *)
  if get_words > 64.5 then
    Alcotest.failf "GET(1KiB) path allocates %.1f words/op (budget 64.5)"
      get_words;
  (* four GET ~elastic to one PUT ~classic of a small value over 64
     keys, as the point workload sends them: measured 67.0 words/op
     (67.5 when the write table's slot probe was a closure built per
     insert; 99.4 when every call built its descriptor, member list
     and run record, boxed its options and wrapped the request's
     thunk, and a commit built closures for its write set; 100.3 when
     every write commit kept a backup of the leaf it overwrote; 120.3
     with a cursor, a boxed frame bound and a queue cell per request,
     and two clock reads; 152.6 with the field-list parser, the
     histogram's boxed sum and the label table's hashing) *)
  let point =
    encode
      (List.init n (fun i ->
           if i mod 5 = 4 then
             req ~hint:Sem.Classic (Wire.Put ("m", i mod 64, "v"))
           else req ~hint:Sem.Elastic (Wire.Get ("m", i * 7 mod 64))))
  in
  let point_words = alloc_words_per_op ~warm_rounds:2 ~rounds:4 point n in
  if point_words > 68.7 then
    Alcotest.failf "point mix allocates %.1f words/op (budget 68.7)"
      point_words;
  (* the durable mix with the op log on (fsync everysec): GET ~elastic,
     PUT ~classic and DEL ~classic over 64 keys, half the DELs of an
     absent key.  A logged write frames its record in place and a DEL
     that deletes nothing encodes nothing *)
  let durable =
    encode
      (List.init n (fun i ->
           match i mod 4 with
           | 0 | 1 -> req ~hint:Sem.Elastic (Wire.Get ("m", i * 7 mod 64))
           | 2 -> req ~hint:Sem.Classic (Wire.Put ("m", i mod 64, "v"))
           | _ ->
               (* the key the PUT before it wrote, or one never written *)
               let k = if i / 4 mod 2 = 0 then (i - 1) mod 64 else 64 + (i mod 64) in
               req ~hint:Sem.Classic (Wire.Del ("m", k))))
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "polytm-alloc-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  let durable_words =
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Unix.rmdir dir)
      (fun () ->
        alloc_words_per_op ~persist_dir:dir ~warm_rounds:2 ~rounds:4 durable n)
  in
  (* measured 70.8 words/op, what the same batch allocates with the
     log off (71.7 when the write table's slot probe was a closure built
     per insert; 104.6 when every call built its descriptor, member list
     and run record, boxed its options and wrapped the request's
     thunk; 106.3 when every write commit kept a backup of what it
     overwrote; 126.3 with a cursor, a boxed frame bound and a queue
     cell per request, and two clock reads; 137.6 when the log was
     armed with a payload string) *)
  if durable_words > 72.5 then
    Alcotest.failf "durable mix allocates %.1f words/op (budget 72.5)"
      durable_words

(* A pop's run and a watch's take-dirty run, each with a wake through
   [try_atomically_one] as the session passes it (a prebuilt option to
   [?wake]: [~wake] would box it on every call), allocate no more than
   the same body through [try_atomically_multi [stm]].  Both bodies
   commit here (the queue holds an item per call, and the watched map
   is marked before each call), so neither registers. *)
let test_wait_one_member_words () =
  let reg = Registry.create () in
  List.iter
    (fun (kind, name) ->
      match Registry.ensure reg kind name with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "ensure")
    [ (Wire.Kqueue, "q"); (Wire.Kmap, "m") ];
  let calls = 2_000 in
  for i = 1 to 2 * (calls + 100) do
    produce reg "q" (string_of_int i)
  done;
  let pop =
    match Registry.resolve reg (Wire.Blpop ("q", 0)) with
    | Ok r -> r
    | Error _ -> Alcotest.fail "resolve BLPOP"
  in
  let w =
    match Registry.watch reg "m" with
    | Ok w -> w
    | Error _ -> Alcotest.fail "watch"
  in
  let mark =
    match Registry.resolve reg (Wire.Put ("m", 1, "v")) with
    | Ok r -> fun () -> ignore (r.Registry.run ()); Registry.touch reg r
    | Error _ -> Alcotest.fail "resolve PUT"
  in
  let stms = Registry.members pop.Registry.site and stm = [ Registry.stm reg ] in
  let pop_stm = List.hd stms and wake = Some (fun () -> ()) in
  let words f =
    for _ = 1 to 100 do
      f ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to calls do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int calls
  in
  let sem = Sem.Classic and label = "blpop@classic" in
  let committed = function
    | S.Committed _ -> ()
    | _ -> Alcotest.fail "the body did not commit"
  in
  let pop_multi =
    words (fun () ->
        committed (S.try_atomically_multi ~sem ~label stms pop.Registry.run))
  in
  let pop_wait =
    words (fun () ->
        committed
          (S.try_atomically_one ~sem ~label ?wake pop_stm pop.Registry.run))
  in
  let watch_multi =
    words (fun () ->
        mark ();
        committed
          (S.try_atomically_multi ~label:"watch-wait" stm (Registry.take_dirty reg [ w ])))
  in
  let watch_wait =
    words (fun () ->
        mark ();
        committed
          (S.try_atomically_one ~sem ~label:"watch-wait" ?wake
             (Registry.stm reg)
             (Registry.take_dirty reg [ w ])))
  in
  if pop_wait > pop_multi then
    Alcotest.failf "a pop's run allocates %.1f words, %.1f through try_atomically_multi"
      pop_wait pop_multi;
  if watch_wait > watch_multi then
    Alcotest.failf "a watch's run allocates %.1f words, %.1f through try_atomically_multi"
      watch_wait watch_multi

(* ---- the whole server, in this process -------------------------------- *)

let server_sock tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "polytm-server-%d-%s.sock" (Unix.getpid ()) tag)

(* Connect to a [Server.run] that may not be listening yet. *)
let connect_when_up sock =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
        fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.002;
        go (tries - 1)
  in
  go 1000

let serve_config ~sock ~workers ~max_seconds =
  {
    Server.default_config with
    listeners = [ Server.Unix_sock sock ];
    workers;
    max_seconds = Some max_seconds;
    quiet = true;
  }

(* A minor collection stops every domain, so the server keeps none
   idle: loop 0 runs on the domain that calls [Server.run].  A commit
   hook records the domain of each commit, and the client reads the
   record once its PUTs are acked.  With one worker a PUT from a client
   domain commits on the caller's domain; with two, the first
   connection lands on loop 0 and the second on loop 1, a domain of
   its own. *)
let test_server_runs_on_callers_domain () =
  let caller = (Domain.self () :> int) in
  let commits ~workers ~conns =
    let reg = Registry.create () in
    (match Registry.ensure ~algo:`Tl2 reg Wire.Kmap "m" with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "ensure m");
    let seen = ref [] and mu = Mutex.create () in
    S.set_commit_hook (Registry.stm reg)
      (Some
         (fun _ ->
           Mutex.protect mu (fun () ->
               seen := (Domain.self () :> int) :: !seen)));
    let sock = server_sock (Printf.sprintf "domain%d" workers) in
    let client =
      Domain.spawn (fun () ->
          let fds = List.init conns (fun _ -> connect_when_up sock) in
          List.iteri
            (fun i fd ->
              write_all fd (encode [ req (Wire.Put ("m", i, "v")) ]);
              Alcotest.check resps_t "PUT acked" [ Wire.Int 1 ] (recv_n fd 1))
            fds;
          List.iter Unix.close fds;
          Mutex.protect mu (fun () -> List.rev !seen))
    in
    ignore (Server.run ~registry:reg (serve_config ~sock ~workers ~max_seconds:0.5));
    Domain.join client
  in
  Alcotest.(check (list int)) "one worker: the PUT commits on the caller's domain"
    [ caller ] (commits ~workers:1 ~conns:1);
  match commits ~workers:2 ~conns:2 with
  | [ a; b ] ->
      Alcotest.(check int) "two workers: the first connection's PUT, on loop 0"
        caller a;
      Alcotest.(check bool) "the second connection's PUT, on another domain"
        true (b <> caller)
  | got -> Alcotest.failf "two workers: %d commits, want 2" (List.length got)

(* [Server.run] drains on stop.  Two workers and three connections:
   least-loaded dispatch puts the first on loop 0, the second on loop
   1 and the third on loop 0 again.  The first two park a [BLPOP q 0]
   and a [BTAKE q 0], the third watches a map.  At [max_seconds] both
   pops answer Nil and the watcher's connection ends, so loop 1, which
   waits with no tick, was woken; [Server.run] returns within a second
   of its deadline, with no waiter slot held and no wait registered on
   any instance.  The listener is closed and its path unlinked, so a
   connect afterwards fails.  [Server.run] runs on a domain of its
   own, so a loop that never wakes fails the test instead of hanging
   it. *)
let test_server_drains_on_stop () =
  let sock = server_sock "drain" in
  let reg = Registry.create () in
  List.iter
    (fun (kind, name) ->
      match Registry.ensure reg kind name with
      | Ok _ -> ()
      | Error _ -> Alcotest.failf "ensure %s" name)
    [ (Wire.Kqueue, "q"); (Wire.Kmap, "m") ];
  let max_seconds = 0.5 in
  let returned = Atomic.make false in
  let t0 = Unix.gettimeofday () in
  let server =
    Domain.spawn (fun () ->
        ignore
          (Server.run ~registry:reg (serve_config ~sock ~workers:2 ~max_seconds));
        Atomic.set returned true;
        Unix.gettimeofday ())
  in
  let pop0 = connect_when_up sock in
  write_all pop0 (encode [ req (Wire.Blpop ("q", 0)) ]);
  Alcotest.(check bool) "the first pop waits" true
    (eventually (fun () -> Registry.waiting reg = 1));
  let pop1 = connect_when_up sock in
  write_all pop1 (encode [ req (Wire.Btake ("q", 0)) ]);
  Alcotest.(check bool) "the second pop waits" true
    (eventually (fun () -> Registry.waiting reg = 2));
  let watcher = connect_when_up sock in
  write_all watcher (encode [ req (Wire.Watch "m") ]);
  Alcotest.check resps_t "watching" [ Wire.ok ] (recv_n watcher 1);
  Alcotest.check resps_t "the loop 0 pop answers Nil" [ Wire.Nil ]
    (recv_n pop0 1);
  Alcotest.(check bool) "the pop waited for the deadline" true
    (Unix.gettimeofday () -. t0 >= max_seconds);
  Alcotest.check resps_t "the loop 1 pop answers Nil" [ Wire.Nil ]
    (recv_n pop1 1);
  Alcotest.(check int) "the watcher's connection ends" 0
    (Unix.read watcher (Bytes.create 16) 0 16);
  List.iter Unix.close [ pop0; pop1; watcher ];
  Alcotest.(check bool) "Server.run returns within a second of its deadline"
    true
    (eventually ~timeout_s:(max_seconds +. 1.) (fun () -> Atomic.get returned)
    && Domain.join server -. t0 <= max_seconds +. 1.);
  Alcotest.(check int) "no waiter slot held" 0 (Registry.waiting reg);
  List.iteri
    (fun i stm ->
      Alcotest.(check int) (Printf.sprintf "instance %d: no wait" i) 0
        (S.waiting stm))
    (Registry.instances reg `Tl2 @ Registry.instances reg `Norec);
  let late = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect late (Unix.ADDR_UNIX sock) with
  | () -> Alcotest.fail "a connect after the drain succeeded"
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) -> ());
  Unix.close late;
  Alcotest.(check bool) "the socket path is unlinked" false (Sys.file_exists sock)

(* A BGSAVE's thread is joined when it finishes, not when its loop
   exits: after 20 BGSAVEs one after another on one connection, each
   answered OK, the loop soon holds at most one helper thread. *)
let test_bgsave_threads_joined () =
  let dir = Test_persist.fresh_dir "bgsave-join" in
  Test_persist.run_loop_session ~dir ~policy:`Always (fun fd _ _ loop ->
      write_all fd (encode [ req (Wire.New (Wire.Kmap, "m")) ]);
      Alcotest.check resps_t "NEW" [ Wire.ok ] (recv_n fd 1);
      for i = 1 to 20 do
        write_all fd (encode [ req (Wire.Put ("m", i, "v")); req Wire.Bgsave ]);
        Alcotest.check resps_t
          (Printf.sprintf "PUT and BGSAVE %d" i)
          [ Wire.Int 1; Wire.ok ] (recv_n fd 2)
      done;
      Alcotest.(check bool) "the loop holds at most one helper" true
        (eventually (fun () -> List.length loop.Evloop.helpers <= 1)));
  Test_persist.rm_rf dir

(* ---- a Unix socket path is replaced only when stale ------------------- *)

let ping fd =
  write_all fd (encode [ req Wire.Ping ]);
  recv_n fd 1

(* What [Server.run] raised when it refused to start, if it did. *)
let refusal sock =
  match
    Server.run ~registry:(Registry.create ())
      (serve_config ~sock ~workers:1 ~max_seconds:0.1)
  with
  | _ -> None
  | exception Failure m -> Some m

(* A regular file at the socket's path is not the server's to delete:
   the run refuses to start and the file keeps its bytes. *)
let test_listener_keeps_a_file () =
  let sock = server_sock "file" in
  let oc = open_out_bin sock in
  output_string oc "data";
  close_out oc;
  let raised = refusal sock in
  let kept =
    if Sys.file_exists sock then Some (Test_persist.read_file sock) else None
  in
  Test_persist.rm_rf sock;
  Alcotest.(check (option bool)) "the run refuses: not a socket" (Some true)
    (Option.map (fun m -> Test_persist.mentions m "is not a socket") raised);
  Alcotest.(check (option string)) "the file is intact" (Some "data") kept

(* A socket that accepts belongs to a running server: a second run on
   its path refuses to start, and the first still answers there. *)
let test_listener_keeps_a_live_socket () =
  let sock = server_sock "live" in
  let first =
    Domain.spawn (fun () ->
        ignore
          (Server.run ~registry:(Registry.create ())
             (serve_config ~sock ~workers:1 ~max_seconds:1.0)))
  in
  Fun.protect
    ~finally:(fun () -> Domain.join first)
    (fun () ->
      let c = connect_when_up sock in
      Alcotest.check resps_t "the first server answers" [ Wire.pong ] (ping c);
      Alcotest.(check (option bool)) "a second run refuses: in use" (Some true)
        (Option.map (fun m -> Test_persist.mentions m "in use") (refusal sock));
      let c2 = connect_when_up sock in
      Alcotest.check resps_t "the first server still answers on its path"
        [ Wire.pong ] (ping c2);
      List.iter Unix.close [ c; c2 ])

(* A socket nothing accepts on is what a crashed server leaves: it is
   replaced and served. *)
let test_listener_replaces_a_stale_socket () =
  let sock = server_sock "stale" in
  let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_UNIX sock);
  Unix.close s;
  Alcotest.(check bool) "a stale socket is at the path" true
    (Sys.file_exists sock);
  let server =
    Domain.spawn (fun () ->
        ignore
          (Server.run ~registry:(Registry.create ())
             (serve_config ~sock ~workers:1 ~max_seconds:0.5)))
  in
  Fun.protect
    ~finally:(fun () -> Domain.join server)
    (fun () ->
      let c = connect_when_up sock in
      Alcotest.check resps_t "the new server answers there" [ Wire.pong ]
        (ping c);
      Unix.close c)

(* A [Server.run] that cannot start leaves the process as it found it.
   Its Unix socket lies under a missing directory, so the bind fails
   after recovery and activation of a data directory: the run raises,
   the caller's SIGTERM and SIGINT handlers are back, and the registry
   holds no op log and no commit hook. *)
let test_failed_start_changes_nothing () =
  let dir = Test_persist.fresh_dir "failed-start" in
  Unix.mkdir dir 0o755;
  let reg = Registry.create () in
  let on_term _ = () and on_int _ = () in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_term) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_int) in
  let cfg =
    {
      (serve_config
         ~sock:(Filename.concat dir "missing/s.sock")
         ~workers:1 ~max_seconds:0.1)
      with
      Server.persist_dir = Some (Filename.concat dir "data");
    }
  in
  let raised =
    match Server.run ~registry:reg cfg with
    | _ -> false
    | exception Unix.Unix_error (Unix.ENOENT, "bind", _) -> true
  in
  (* reading each handler puts the test runner's back *)
  let now_term = Sys.signal Sys.sigterm prev_term in
  let now_int = Sys.signal Sys.sigint prev_int in
  Test_persist.rm_rf dir;
  let is h = function Sys.Signal_handle f -> f == h | _ -> false in
  Alcotest.(check bool) "the bind failure is raised" true raised;
  Alcotest.(check bool) "the caller's SIGTERM handler is back" true
    (is on_term now_term);
  Alcotest.(check bool) "the caller's SIGINT handler is back" true
    (is on_int now_int);
  Alcotest.(check bool) "the registry holds no log" true
    (Option.is_none reg.Registry.persist);
  List.iter
    (fun stm ->
      Alcotest.(check bool) "no commit hook" true
        (Option.is_none (S.commit_hook stm)))
    (Registry.instances reg `Tl2 @ Registry.instances reg `Norec)

(* A durable [`Always] server on this domain, with a map [m] and its
   data directory under [dir], for [max_seconds]; [client sock reg]
   runs on a domain of its own.  Returns what [Server.run] raised, if it
   raised, and the client's result. *)
let run_always_server ~tag ~dir ~max_seconds client =
  let sock = server_sock tag in
  let reg = Registry.create () in
  let cfg =
    {
      (serve_config ~sock ~workers:1 ~max_seconds) with
      Server.prestructs = [ (Wire.Kmap, "m", `Tl2) ];
      persist_dir = Some (Filename.concat dir "data");
      fsync = `Always;
      checkpoint_sec = 0.;
    }
  in
  let c = Domain.spawn (fun () -> client sock reg) in
  let raised =
    match Server.run ~registry:reg cfg with
    | _ -> None
    | exception e -> Some e
  in
  (raised, Domain.join c, reg)

(* Put /dev/null on the fd of [reg]'s op log: writes succeed, an fsync
   fails with EINVAL.  Returns a dup of the file it replaced. *)
let fail_log_fsync (reg : Registry.t) =
  match reg.Registry.persist with
  | None -> Alcotest.fail "no op log"
  | Some log ->
      let fd = (Polytm_persist.Oplog.writer log).Polytm_persist.Aof.fd in
      let saved = Unix.dup fd in
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 null fd;
      Unix.close null;
      (fd, saved)

let is_fsync_error = function
  | Some (Unix.Unix_error (Unix.EINVAL, "fsync", _)) -> true
  | _ -> false

(* Under [--fsync always], once an fsync failed no mutation is acked
   again, even after the log's file works again.  The PUT whose flush
   waits on the failed sync has its connection closed, unacked; so has
   a later PUT on a second connection, after the fd is restored; a GET
   on a third is answered.  Both closed connections count in INFO's
   [handler_errors], and the final sync raises the failure from
   [Server.run]. *)
let test_failed_fsync_acks_nothing () =
  let dir = Test_persist.fresh_dir "fsync-acks" in
  Unix.mkdir dir 0o755;
  let raised, (first, later, read), reg =
    run_always_server ~tag:"fsync-acks" ~dir ~max_seconds:1.0 (fun sock reg ->
        let c1 = connect_when_up sock in
        write_all c1 (encode [ req (Wire.Put ("m", 1, "a")) ]);
        Alcotest.check resps_t "a PUT before the failure is acked" [ Wire.Int 1 ]
          (recv_n c1 1);
        let fd, saved = fail_log_fsync reg in
        write_all c1 (encode [ req (Wire.Put ("m", 2, "b")) ]);
        let first = Test_persist.hung_up c1 in
        Unix.dup2 saved fd;
        Unix.close saved;
        let c2 = connect_when_up sock in
        write_all c2 (encode [ req (Wire.Put ("m", 3, "c")) ]);
        let later = Test_persist.hung_up c2 in
        let c3 = connect_when_up sock in
        write_all c3 (encode [ req (Wire.Get ("m", 1)) ]);
        let read = recv_n c3 1 in
        List.iter Unix.close [ c1; c2; c3 ];
        (first, later, read))
  in
  Test_persist.rm_rf dir;
  Alcotest.(check bool) "the PUT whose fsync failed is not acked" true first;
  Alcotest.(check bool) "a later PUT, with the file restored, is not acked" true
    later;
  Alcotest.check resps_t "a GET is answered" [ Wire.Bulk "a" ] read;
  Alcotest.(check int) "both connections count in handler_errors" 2
    (Atomic.get reg.Registry.handler_errors);
  Alcotest.(check bool) "the final sync raises the failure" true
    (is_fsync_error raised)

(* A [Server.run] whose final log sync fails still undoes what it
   changed before it raises that failure: the log's fd is closed, the
   caller's SIGTERM and SIGINT handlers are back, and the registry
   holds no op log and no commit hook.  The one PUT, whose fsync
   fails, is not acked. *)
let test_failed_final_sync_restores () =
  let dir = Test_persist.fresh_dir "final-sync" in
  Unix.mkdir dir 0o755;
  let on_term _ = () and on_int _ = () in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_term) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_int) in
  let raised, (acked, fd), reg =
    run_always_server ~tag:"final-sync" ~dir ~max_seconds:0.5 (fun sock reg ->
        let c = connect_when_up sock in
        let fd, saved = fail_log_fsync reg in
        Unix.close saved;
        write_all c (encode [ req (Wire.Put ("m", 1, "a")) ]);
        let acked = not (Test_persist.hung_up c) in
        Unix.close c;
        (acked, fd))
  in
  let fd_closed =
    match Unix.fstat fd with
    | _ -> false
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> true
  in
  (* reading each handler puts the test runner's back *)
  let now_term = Sys.signal Sys.sigterm prev_term in
  let now_int = Sys.signal Sys.sigint prev_int in
  Test_persist.rm_rf dir;
  let is h = function Sys.Signal_handle f -> f == h | _ -> false in
  Alcotest.(check bool) "the PUT is not acked" false acked;
  Alcotest.(check bool) "the final sync's failure is raised" true
    (is_fsync_error raised);
  Alcotest.(check bool) "the log's fd is closed" true fd_closed;
  Alcotest.(check bool) "the caller's SIGTERM handler is back" true
    (is on_term now_term);
  Alcotest.(check bool) "the caller's SIGINT handler is back" true
    (is on_int now_int);
  Alcotest.(check bool) "the registry holds no log" true
    (Option.is_none reg.Registry.persist);
  List.iter
    (fun stm ->
      Alcotest.(check bool) "no commit hook" true
        (Option.is_none (S.commit_hook stm)))
    (Registry.instances reg `Tl2 @ Registry.instances reg `Norec)

let suite =
  ( "server",
    [
      Alcotest.test_case "pipelined mixed semantics match oracle" `Quick
        (test_pipeline_matches_oracle ~shards:1);
      Alcotest.test_case "same pipeline, 8-shard registry" `Quick
        (test_pipeline_matches_oracle ~shards:8);
      Alcotest.test_case "sharded server surface" `Quick
        test_sharded_server_surface;
      Alcotest.test_case "first-touch creation race converges" `Quick
        test_first_touch_creation_race;
      Alcotest.test_case "MULTI commits atomically" `Quick
        test_multi_commits_atomically;
      Alcotest.test_case "unresolvable MULTI executes nothing" `Quick
        test_multi_unresolvable_executes_nothing;
      Alcotest.test_case "snapshot write discards MULTI batch" `Quick
        test_multi_snapshot_write_discards_batch;
      Alcotest.test_case "BUSY under shrunk in-flight limit" `Quick
        test_busy_under_shrunk_inflight_limit;
      Alcotest.test_case "deadline and budget typed replies" `Quick
        test_deadline_and_budget_replies;
      Alcotest.test_case "server-wide budget and deadline" `Quick
        test_server_wide_limits;
      Alcotest.test_case "DEBUG-ABORT gated by default" `Quick
        test_debug_ops_gated;
      Alcotest.test_case "shutdown drains and releases locks" `Quick
        test_shutdown_drains_and_releases;
      Alcotest.test_case "BLPOP issued before the push is answered" `Quick
        test_blpop_before_push;
      Alcotest.test_case "blocking timeout Nil and typed refusals" `Quick
        test_blocking_timeout_and_refusals;
      Alcotest.test_case "BUSY when the wait table is full" `Quick
        test_blpop_busy_when_wait_table_full;
      Alcotest.test_case "WATCH pushes commit notifications" `Quick
        test_watch_pushes_notifications;
      Alcotest.test_case "idle watches on both algorithms park" `Quick
        test_idle_watches_on_both_algorithms_park;
      Alcotest.test_case "a pop that takes nothing marks nothing" `Quick
        test_empty_pop_marks_nothing;
      Alcotest.test_case "waits post to their loop, never to a thread" `Quick
        test_waits_post_to_their_loop;
      Alcotest.test_case "a drain leaves no wait registered" `Quick
        test_drain_leaves_no_wait;
      Alcotest.test_case "a drain answers pops Nil and takes nothing" `Quick
        test_drain_answers_pops_nil;
      Alcotest.test_case "a pop whose client hung up takes nothing" `Quick
        test_hung_up_pop_takes_nothing;
      Alcotest.test_case "a one-member wait allocates as a one-member try" `Quick
        test_wait_one_member_words;
      Alcotest.test_case "SNAPSHOT-ITER counts once in INFO" `Quick
        test_snapshot_iter_counts_once;
      Alcotest.test_case "an fd select cannot take is refused" `Quick
        test_unselectable_fd_refused;
      Alcotest.test_case "a raising handler ends only its own connection"
        `Quick test_raising_handler_ends_its_connection;
      Alcotest.test_case "one latency sample per transactional request"
        `Quick test_latency_samples_per_request;
      Alcotest.test_case "a server runs its requests on the caller's domain"
        `Quick test_server_runs_on_callers_domain;
      Alcotest.test_case "Server.run drains on stop" `Quick
        test_server_drains_on_stop;
      Alcotest.test_case "a BGSAVE's thread is joined when it finishes" `Quick
        test_bgsave_threads_joined;
      Alcotest.test_case "a listener keeps a file at its path" `Quick
        test_listener_keeps_a_file;
      Alcotest.test_case "a listener keeps a live socket at its path" `Quick
        test_listener_keeps_a_live_socket;
      Alcotest.test_case "a listener replaces a stale socket" `Quick
        test_listener_replaces_a_stale_socket;
      Alcotest.test_case "a Server.run that cannot start changes nothing"
        `Quick test_failed_start_changes_nothing;
      Alcotest.test_case "a Server.run whose final sync fails changes nothing"
        `Quick test_failed_final_sync_restores;
      Alcotest.test_case "after a failed fsync no mutation is acked" `Quick
        test_failed_fsync_acks_nothing;
      Alcotest.test_case "shutdown wakes and answers parked waiters" `Quick
        test_shutdown_wakes_parked_waiter;
      Alcotest.test_case "kind mismatch and unknown structure" `Quick
        test_kind_mismatch_and_unknown;
      Alcotest.test_case "a kind mismatch quotes a name with a newline" `Quick
        test_newline_name_kind_mismatch;
      Alcotest.test_case "WATCH of a name with a newline is refused" `Quick
        test_newline_name_watch_refused;
      Alcotest.test_case "INFO quotes a name with a newline" `Quick
        test_newline_name_info_quoted;
      Alcotest.test_case "NORec structure next to a TL2 one" `Quick
        test_mixed_algo_structures;
      Test_seed.to_alcotest session_short_io_property;
      Alcotest.test_case "steady-state reply path allocation budget" `Quick
        test_steady_state_allocation;
    ] )
