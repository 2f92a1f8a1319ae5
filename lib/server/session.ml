(** One client connection as a resumable state machine, driven by an
    event loop ({!Evloop}) instead of a blocking thread.

    The session still executes its requests strictly in order — what
    pipelining clients rely on — but it never blocks the loop: every
    step is a non-blocking poke.  [on_readable] performs one
    [Unix.read] straight into the decoder's buffer, and [pump] decodes
    each complete frame of that batch where it lies and executes it
    at once (the [max_inflight] admission bound applies per batch,
    BUSY refusals keeping their reply slots): the decoder's buffer is
    the session's queue, and no request is boxed or queued.  Replies
    are encoded directly into the session's reusable {!Wire.Obuf} — no
    per-frame string, no [Buffer.contents] copy — and [try_flush]
    hands the pending region to a single [Unix.write]; a partial
    write leaves the tail for the loop's writability notification.

    Every request that runs a transaction runs it through one runner,
    [run_tx], which applies both op limits and marks the request timed;
    [exec_tx] wraps it with the op-log arming and the post-commit
    watcher marks.  A latency sample is the request's service time on
    the loop, from the end of the previous timed request of the same
    pipeline run (or the run's start) to the end of its own, once its
    reply is encoded: one clock read per timed request, plus one per
    run.

    A blocking pop ([BLPOP]/[BTAKE]) resolves like any other command
    and runs its body through the same runner, with a [wake]
    ([S.try_atomically_one ~wake] on one shard): where the body's
    [retry] would park, its wait set is registered instead, with a
    wake that only posts the pop's resume to this session's loop
    ([services.post]).  The
    session stays [parked] (the pipeline paused) until the resume
    cancels the wait and re-runs the body on the loop thread, which
    replies or registers again, until the loop's timer passes the
    pop's timeout, until the client hangs up (a waiting pop keeps
    reading its connection, deferring what arrives, so an EOF or a
    reset ends the wait before a later commit can hand it an item),
    or until the loop drains the session at shutdown ({!begin_drain}).
    A watch is the registry's take-dirty body, registered the same way
    and again after each push.  No wait holds a thread: all session
    state is mutated on the loop thread only, and only a BGSAVE's
    checkpoint runs elsewhere, on a thread of its own
    ([services.submit]).

    {b Privatization safety} (the response-buffer argument, DESIGN.md
    §S16): a reply's payload is the value returned by the {e committed}
    attempt of [try_atomically] — aborted attempts' results are
    discarded with their effects — and it is serialised into the
    output buffer strictly {e after} the commit (or, for snapshot
    transactions, after the consistent read-only view completed).
    The streaming snapshot path keeps this property: the encoder
    thunk writes into a scratch buffer that is cleared on every
    attempt, and the scratch reaches the output buffer only once the
    transaction committed.  The wire never carries a value from a
    doomed transaction.

    A handler that raises ends its own connection, never the loop: each
    entry point the loop calls, and each resume the session posts to
    it, tears the session down on an exception, prints the exception
    to stderr and counts it in INFO's [handler_errors].

    The session knows nothing about sockets beyond a file descriptor,
    so the deterministic end-to-end tests drive it over
    [Unix.socketpair] through {!Evloop.handle}. *)

module S = Registry.S
module R = Polytm_runtime.Domain_runtime
module Hist = Polytm_util.Stats.Hist
module Oplog = Polytm_persist.Oplog

(* ---- per-session / per-worker statistics ------------------------------- *)

type stats = {
  mutable requests : int;  (** well-formed frames received *)
  mutable replies : int;
  mutable busy : int;  (** requests refused for backpressure *)
  mutable proto_errors : int;  (** malformed or corrupt frames *)
  mutable deadline_errors : int;
  mutable exhausted_errors : int;
  mutable sem_errors : int;  (** hint forbade the operation *)
  mutable other_errors : int;  (** NOSTRUCT / BADOP replies *)
  lat_by_sem : Hist.t array;
      (** op latency (ns) per executed semantics: classic, elastic,
          snapshot — index with {!sem_index}; {!latency_all} merges
          them *)
}

let create_stats () =
  {
    requests = 0;
    replies = 0;
    busy = 0;
    proto_errors = 0;
    deadline_errors = 0;
    exhausted_errors = 0;
    sem_errors = 0;
    other_errors = 0;
    lat_by_sem = Array.init 3 (fun _ -> Hist.create ());
  }

(* Op latency over every executed request: each is in exactly one
   class, and merging adds counts, integer sums and extremes exactly. *)
let latency_all stats =
  let all = Hist.create () in
  Array.iter (fun h -> Hist.merge_into ~into:all h) stats.lat_by_sem;
  all

let sem_index = function
  | Polytm.Semantics.Classic -> 0
  | Polytm.Semantics.Elastic -> 1
  | Polytm.Semantics.Snapshot -> 2

let sem_of_index = function
  | 0 -> Polytm.Semantics.Classic
  | 1 -> Polytm.Semantics.Elastic
  | _ -> Polytm.Semantics.Snapshot

let merge_stats ~into src =
  into.requests <- into.requests + src.requests;
  into.replies <- into.replies + src.replies;
  into.busy <- into.busy + src.busy;
  into.proto_errors <- into.proto_errors + src.proto_errors;
  into.deadline_errors <- into.deadline_errors + src.deadline_errors;
  into.exhausted_errors <- into.exhausted_errors + src.exhausted_errors;
  into.sem_errors <- into.sem_errors + src.sem_errors;
  into.other_errors <- into.other_errors + src.other_errors;
  Array.iteri
    (fun i h -> Hist.merge_into ~into:into.lat_by_sem.(i) h)
    src.lat_by_sem

(* ---- telemetry labels --------------------------------------------------

   Call-site labels are "op@semantics" ("contains@elastic",
   "size@snapshot", ...), so the per-site abort breakdown doubles as a
   per-semantics-class commit/abort table.  They are built once at
   module load into an array indexed by the command's constructor and
   the semantics, so the request hot path reads one array cell (the
   array is never mutated after initialisation, so concurrent reads
   from worker domains are safe). *)

let op_index = function
  | Wire.Ping -> 0
  | Wire.New _ -> 1
  | Wire.Get _ -> 2
  | Wire.Put _ -> 3
  | Wire.Del _ -> 4
  | Wire.Contains _ -> 5
  | Wire.Add _ -> 6
  | Wire.Remove _ -> 7
  | Wire.Size _ -> 8
  | Wire.Snapshot_iter _ -> 9
  | Wire.Enq _ -> 10
  | Wire.Deq _ -> 11
  | Wire.Blpop _ -> 12
  | Wire.Btake _ -> 13
  | Wire.Watch _ -> 14
  | Wire.Unwatch _ -> 15
  | Wire.Multi -> 16
  | Wire.Multi_end -> 17
  | Wire.Info -> 18
  | Wire.Bgsave -> 19
  | Wire.Lastsave -> 20
  | Wire.Debug_abort _ -> 21

(* One command of each constructor, each labelled in [op_index]'s
   cell: a cell filled twice or left empty fails at load. *)
let labels =
  let ops =
    Wire.
      [ Ping; New (Kmap, ""); Get ("", 0); Put ("", 0, ""); Del ("", 0);
        Contains ("", 0); Add ("", 0); Remove ("", 0); Size "";
        Snapshot_iter ""; Enq ("", ""); Deq ""; Blpop ("", 0); Btake ("", 0);
        Watch ""; Unwatch ""; Multi; Multi_end; Info; Bgsave; Lastsave;
        Debug_abort { budget = None; deadline_us = None } ]
  in
  let t = Array.make (3 * List.length ops) "" in
  List.iter
    (fun cmd ->
      for i = 0 to 2 do
        let cell = (3 * op_index cmd) + i in
        assert (t.(cell) = "");
        t.(cell) <-
          String.lowercase_ascii (Wire.cmd_name cmd)
          ^ "@"
          ^ Polytm.Semantics.to_string (sem_of_index i)
      done)
    ops;
  assert (Array.for_all (fun l -> l <> "") t);
  t

let label_of cmd sem = labels.((3 * op_index cmd) + sem_index sem)

(* ---- the session ------------------------------------------------------- *)

type services = {
  submit : (unit -> unit) -> unit;
      (** run a BGSAVE's checkpoint off the loop thread *)
  post : (unit -> unit) -> unit;
      (** run a closure on the loop thread (and wake the loop); safe
          from any thread *)
}

(* A blocking pop, from its arrival until its reply. *)
type pop = {
  run : wake:(unit -> unit) -> Wire.response;
      (** one run of its body; raises [Wait] when it registers *)
  sem : Polytm.Semantics.t;
  t0 : int;  (** its start: one latency sample covers every run *)
  deadline : int;  (** the pop's timeout, absolute; [max_int] if none *)
  mutable reserved : bool;  (** holds a [max_waiters] slot *)
}

type t = {
  fd : Unix.file_descr;
  reg : Registry.t;
  limits : Limits.t;
  stats : stats;
  services : services;
  dec : Wire.Decoder.t;
  out : Wire.Obuf.t;  (** encoded replies awaiting [write] *)
  scratch : Wire.Obuf.t;  (** snapshot fast path's item staging area *)
  mutable admitted : int;  (** requests admitted from this read batch *)
  mutable deferred : int;
      (** bytes read while parked that the pipeline has not reached:
          the next read batch, behind the current one's undecoded
          frames *)
  mutable mark : int;
      (** the clock at the end of the last timed request of this
          pipeline run, or at the run's start: the next request's
          start *)
  mutable timed : int;
      (** the running request's semantics index ({!sem_index}) if its
          latency is to be recorded once its reply is encoded, or -1 *)
  mutable in_multi : bool;
  mutable multi_hint : Polytm.Semantics.t option;
  mutable multi_rev : Wire.cmd list;  (** queued batch, newest first *)
  mutable multi_count : int;
  mutable watches : Registry.watch list;  (** active WATCH subscriptions *)
  mutable durable : int;
      (** the newest op-log ticket (record sequence number) that must
          be fsynced before the replies may leave the socket, 0 for
          none — only set under [--fsync always]; cleared by [flush]
          (group commit: one wait covers the whole pipelined batch).
          Loop-thread state, like the rest. *)
  mutable watch : S.wait option;  (** the registered watch wait *)
  mutable pop : (pop * S.wait) option;  (** a pop that waits *)
  mutable parked : bool;  (** a pop waits or a BGSAVE runs *)
  mutable draining : bool;
      (** the loop is shutting down: answer what arrived, waits and
          pops included, flush, close *)
  mutable input_done : bool;  (** EOF or corrupt framing: read no more *)
  mutable closing : bool;  (** flush [out], then close *)
  mutable closed : bool;  (** drop everything now *)
}

let err = Registry.err

(* ---- durability arming --------------------------------------------------

   The op log's commit hook runs inside the STM commit and only knows
   the commit stamp; the session tells it {e what} to log by arming the
   executing thread with the mutation's commands before the
   transaction and disarming after (see {!Oplog.arm}): the hook
   encodes them only if the transaction write-commits.  Arm and finish
   must run on the thread that commits: the loop thread, for every
   request. *)

(* The log it armed, if any. *)
let arm_persist t cmds =
  match t.reg.Registry.persist with
  | None -> None
  | Some log as armed -> (
      match
        if List.for_all Wire.is_mutation cmds then cmds
        else List.filter Wire.is_mutation cmds
      with
      | [] -> None
      | muts ->
          Oplog.arm log muts;
          armed)

(* Disarm.  A ticket means the armed commands reached the log (the
   transaction write-committed); under [`Always] the reply may not
   leave before that record is on disk, so keep the ticket for
   [flush].  Tickets only grow, so the newest covers the others. *)
let finish_persist t = function
  | Some log ->
      let seq = Oplog.finish log in
      if seq > 0 && Oplog.policy log = `Always then t.durable <- seq
  | None -> ()

let reply t resp =
  Wire.write_response_obuf t.out resp;
  t.stats.replies <- t.stats.replies + 1;
  (match resp with
  | Wire.Error (code, _) -> (
      match code with
      | Wire.Busy -> t.stats.busy <- t.stats.busy + 1
      | Wire.Proto -> t.stats.proto_errors <- t.stats.proto_errors + 1
      | Wire.Deadline -> t.stats.deadline_errors <- t.stats.deadline_errors + 1
      | Wire.Exhausted ->
          t.stats.exhausted_errors <- t.stats.exhausted_errors + 1
      | Wire.Sem_violation -> t.stats.sem_errors <- t.stats.sem_errors + 1
      | Wire.No_struct | Wire.Bad_op ->
          t.stats.other_errors <- t.stats.other_errors + 1)
  | _ -> ())

(* A request's latency sample, in semantics class [i], is its service
   time on the loop: from its start [t0] to now, the end of its reply's
   encoding, which is the next request's start.  One clock read per
   timed request, and one per pipeline run ({!pump}). *)
let record_latency t i t0 =
  let now = R.now () in
  let dt = now - t0 in
  Hist.record t.stats.lat_by_sem.(i) dt;
  t.mark <- now;
  t.timed <- -1

(* Run [f] as one transaction of [sem] on [site] — where the registry
   resolved it: the owner shard of a point operation, or the shards a
   whole-structure aggregate or a [MULTI] batch spans — so the nested
   structure operations flatten into it.  A one-instance site takes
   [S.try_atomically_one]: no member list, no closure around [f], no
   boxed option.  The structured outcome and the semantics-violation
   exception become typed error replies: this is where the wire meets
   the liveness API, and both limits ([op_budget], [op_deadline_us])
   apply to every request, however many shards it spans, each run of a
   blocking pop included.  A structural-invariant violation surfaces
   here as a typed error too: the exception rode the abort path out of
   the transaction, so the attempt's effects are already discarded and
   the server survives a corrupted node instead of dying on an
   assertion.  With [wake], a one-instance body that retries registers
   its wait with it and this raises [S.Waiting].  The deadline counts
   from the request's start, [t.mark].  The request is marked timed
   unless [timed] is false, and its latency is recorded once its reply
   is encoded ({!admit}); a blocking pop records its own, once it
   replies. *)
let run_tx t ~site ~sem ~label ?(timed = true) ?budget ?deadline_us ?wake
    (f : unit -> Wire.response) : Wire.response =
  let budget = match budget with Some _ as b -> b | None -> t.limits.op_budget in
  let deadline_us =
    match deadline_us with Some _ as d -> d | None -> t.limits.op_deadline_us
  in
  let deadline =
    match deadline_us with Some us -> Some (t.mark + (us * 1000)) | None -> None
  in
  let resp =
    match
      match site with
      | Registry.Single stm ->
          S.try_atomically_one ~sem ~label ?budget ?deadline ?wake stm f
      | Registry.Spanning stms ->
          S.try_atomically_multi ?budget ?deadline ~sem ~label stms f
    with
    | S.Committed r -> r
    | S.Exhausted { attempts; _ } ->
        err Wire.Exhausted "retry budget spent after %d attempts" attempts
    | S.Deadline_exceeded { attempts; _ } ->
        err Wire.Deadline "deadline passed after %d attempts" attempts
    | exception S.Invalid_operation m -> err Wire.Sem_violation "%s" m
    | exception Polytm_structs.Stm_map.Invariant_violation m ->
        err Wire.Bad_op "invariant violation (transaction aborted): %s" m
  in
  if timed then t.timed <- sem_index sem;
  resp

(* A loop, where [List.iter (Registry.touch t.reg)] would build a
   closure per request. *)
let rec touch_all reg = function
  | [] -> ()
  | r :: rest ->
      Registry.touch reg r;
      touch_all reg rest

(* Dirty marks for watchers, made after the mutation's commit (the
   data commit must precede the notification — see the registry).  An
   error reply means nothing committed and a [Nil] one that a pop took
   nothing, so neither marks anything. *)
let touch_committed t (resolved : Registry.resolved list) resp =
  match resp with
  | Wire.Error _ | Wire.Nil -> ()
  | _ -> touch_all t.reg resolved

(* One request's transaction over resolved commands [rs]: arm the op
   log with [cmds], run [f] through [run_tx], and mark the watchers of
   what it mutated once it committed. *)
let exec_tx t ?timed ?wake ~cmds ~site ~sem ~label rs f =
  let armed = arm_persist t cmds in
  match run_tx t ~site ~sem ~label ?timed ?wake f with
  | resp ->
      finish_persist t armed;
      touch_committed t rs resp;
      resp
  | exception e ->
      finish_persist t armed;
      raise e

let reset_multi t =
  t.in_multi <- false;
  t.multi_hint <- None;
  t.multi_rev <- [];
  t.multi_count <- 0

(* Every client structure request resolves here, and replay never
   does, so INFO's per-structure [ops] counts each client request once:
   whether or not its transaction then commits, inside MULTI or not,
   and however often a waiting pop re-runs. *)
let resolve t cmd =
  let r = Registry.resolve t.reg cmd in
  Result.iter (fun r -> Atomic.incr r.Registry.slot.Registry.ops) r;
  r

let exec_multi_end t =
  let cmds = List.rev t.multi_rev in
  let sem = Option.value t.multi_hint ~default:Polytm.Semantics.Classic in
  reset_multi t;
  (* Resolve the whole batch first: a batch that cannot execute
     completely executes not at all (atomicity also for errors). *)
  let rec resolve_all acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
        match resolve t c with
        | Ok r -> resolve_all (r :: acc) rest
        | Error (Wire.Error (code, m)) ->
            Error (err code "batch rejected at %s: %s" (Wire.cmd_name c) m)
        | Error e -> Error e)
  in
  if cmds = [] then Wire.Array []
  else
    match resolve_all [] cmds with
    | Error e -> e
    | Ok rs -> (
        (* A batch spanning structures pinned to different algorithms
           is refused before executing anything (same all-or-nothing
           rule as a resolution failure): TL2 and NORec instances
           validate against incomparable clocks, so one batch cannot
           promise one serialization point across both. *)
        match
          List.sort_uniq compare
            (List.map (fun (r : Registry.resolved) -> r.Registry.algo) rs)
        with
        | [ _ ] ->
            (* One transaction over every command's members (the STM
               drops duplicates); the thunks flatten into it. *)
            exec_tx t ~cmds
              ~site:
                (Registry.Spanning
                   (List.concat_map
                      (fun (r : Registry.resolved) ->
                        Registry.members r.Registry.site)
                      rs))
              ~sem ~label:(label_of Wire.Multi_end sem) rs
              (fun () ->
                Wire.Array
                  (List.map
                     (fun (r : Registry.resolved) -> r.Registry.run ())
                     rs))
        | algos ->
            err Wire.Bad_op
              "batch mixes structures on different algorithms (%s)"
              (String.concat ", " (List.map Registry.algo_name algos)))

(* Inside MULTI: structure operations queue up (one past [max_multi]
   discards the batch), MULTI-END runs the batch, PING still answers,
   and every other command is refused — blocking pops because a parked
   batch would pin the session's pipeline. *)
let exec_in_multi t (r : Wire.request) =
  match r.cmd with
  | Wire.Ping -> Wire.pong
  | Wire.Multi_end -> exec_multi_end t
  | ( Wire.Get _ | Wire.Put _ | Wire.Del _ | Wire.Contains _ | Wire.Add _
    | Wire.Remove _ | Wire.Size _ | Wire.Snapshot_iter _ | Wire.Enq _
    | Wire.Deq _ ) as cmd ->
      if t.multi_count >= t.limits.Limits.max_multi then begin
        reset_multi t;
        err Wire.Bad_op "MULTI batch exceeds %d commands (batch discarded)"
          t.limits.Limits.max_multi
      end
      else begin
        t.multi_rev <- cmd :: t.multi_rev;
        t.multi_count <- t.multi_count + 1;
        Wire.queued
      end
  | cmd -> err Wire.Bad_op "%s is not allowed inside MULTI" (Wire.cmd_name cmd)

let sem_of (r : Wire.request) =
  Option.value r.hint ~default:(Registry.default_sem r.cmd)

(* Cancel the registered watch wait, if any: a change of subscriptions
   re-registers over the new set when the pipeline next empties. *)
let drop_watch t =
  Option.iter S.cancel_wait t.watch;
  t.watch <- None

(* Requests outside MULTI that neither park nor stream (those are
   [exec_step]'s). *)
let exec_request t (r : Wire.request) : Wire.response =
  match r.cmd with
  | Wire.Ping -> Wire.pong
  | Wire.Watch name -> (
      if List.exists (fun w -> Registry.watch_name w = name) t.watches then
        Wire.ok (* already watching: idempotent *)
      else
        match Registry.watch t.reg name with
        | Ok w ->
            t.watches <- w :: t.watches;
            drop_watch t;
            Wire.ok
        | Error e -> e)
  | Wire.Unwatch name -> (
      match
        List.partition (fun w -> Registry.watch_name w = name) t.watches
      with
      | [], _ -> err Wire.Bad_op "not watching %S" name
      | ws, rest ->
          List.iter (Registry.unwatch t.reg) ws;
          t.watches <- rest;
          drop_watch t;
          Wire.ok)
  | Wire.New (kind, name) -> (
      match Registry.ensure t.reg kind name with
      | Ok `Created -> Wire.ok
      | Ok `Existed -> Wire.Simple "EXISTS"
      | Error e -> e)
  | Wire.Info -> Registry.info_response t.reg
  | Wire.Lastsave -> (
      match t.reg.Registry.persist with
      | None -> err Wire.Bad_op "persistence is disabled"
      | Some log -> Wire.Int (int_of_float (Oplog.last_save log)))
  | Wire.Multi ->
      t.in_multi <- true;
      t.multi_hint <- r.hint;
      Wire.ok
  | Wire.Multi_end -> err Wire.Bad_op "MULTI-END without MULTI"
  | Wire.Debug_abort { budget; deadline_us } ->
      if not t.limits.Limits.debug_ops then
        err Wire.Bad_op "debug ops are disabled"
      else
        (* A transaction that aborts every attempt: with a finite
           budget [try_atomically] reports Exhausted, with a spent
           deadline Deadline_exceeded — the two error reply paths,
           exercisable deterministically. *)
        let stm = Registry.stm_for t.reg (Registry.default_algo t.reg) in
        let budget = Some (Option.value budget ~default:2) in
        run_tx t ~site:(Registry.Single stm) ~sem:Polytm.Semantics.Classic
          ~label:(label_of r.cmd Polytm.Semantics.Classic)
          ?budget ?deadline_us
          (fun () -> S.atomically stm S.abort)
  | cmd -> (
      match resolve t cmd with
      | Error e -> e
      | Ok res ->
          let sem = sem_of r in
          (* A read has nothing to log and no watcher to mark: it
             passes empty lists, which cost no allocation. *)
          exec_tx t
            ~cmds:(if Wire.is_mutation cmd then [ cmd ] else [])
            ~site:res.Registry.site ~sem ~label:(label_of cmd sem)
            (if res.Registry.mutates then [ res ] else [])
            res.Registry.run)

(* SNAPSHOT-ITER outside MULTI: the zero-copy path.  The registry's
   encoder thunk streams each element into [t.scratch] during the
   transaction's own traversal; on commit the items are wrapped with
   the frame and array headers straight into [t.out].  No response
   tree, no per-element boxing — the reply bytes are identical to the
   tree path's. *)
let exec_snapshot_iter t (r : Wire.request) =
  let sem = sem_of r in
  match resolve t r.cmd with
  | Error e -> reply t e
  | Ok res -> (
      (* The committed attempt's element count rides out as an [Int];
         every error reply is an [Error]. *)
      let enc = Registry.stream res.Registry.slot t.scratch in
      match
        run_tx t ~site:res.Registry.site ~sem
          ~label:(label_of r.cmd sem) (fun () -> Wire.Int (enc ()))
      with
      | Wire.Int count ->
          Wire.write_framed_array t.out ~count ~items:t.scratch;
          t.stats.replies <- t.stats.replies + 1
      | e -> reply t e)

(* ---- output ------------------------------------------------------------- *)

(* One non-blocking coalesced write of everything pending.  A short
   write keeps the unflushed tail in the Obuf (its [start] offset
   advances); the loop retries on the next writability notification.
   EINTR and EAGAIN leave the buffer untouched for the same retry. *)
let flush t =
  if (not t.closed) && Wire.Obuf.pending t.out > 0 then begin
    (* Under [--fsync always] no ack may leave before its op-log
       record is synced.  Syncing is ordered, so waiting for the
       newest ticket covers the whole pipelined batch (group commit). *)
    (match t.reg.Registry.persist with
    | Some log when t.durable > 0 ->
        let seq = t.durable in
        t.durable <- 0;
        Oplog.wait_durable log seq
    | _ -> ());
    let buf, off, len = Wire.Obuf.peek t.out in
    match Unix.write t.fd buf off len with
    | n -> Wire.Obuf.consumed t.out n
    | exception
        Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN), _, _)
      ->
        t.closed <- true
  end

(* ---- faults -------------------------------------------------------------- *)

(* Release watch subscriptions, cancel every registered wait and mark
   the session dead; a late wake or BGSAVE completion finds nothing to
   resume or [closed] set. *)
let teardown t =
  List.iter (Registry.unwatch t.reg) t.watches;
  t.watches <- [];
  drop_watch t;
  Option.iter
    (fun (p, w) ->
      S.cancel_wait w;
      if p.reserved then Registry.release_waiter t.reg)
    t.pop;
  t.pop <- None;
  t.closed <- true

(* A handler that raises ends its own connection, never the loop that
   serves it: the exception and its backtrace go to stderr, the session
   is torn down, the loop reaps it and its [on_close] closes the fd,
   and INFO counts it ([handler_errors]).
   Every entry point the loop calls runs under [guard], and so does
   every resume the session posts to its loop. *)
let guard t f =
  try f t
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    Printf.eprintf "polytmd: closing a connection whose handler raised %s\n%s%!"
      (Printexc.to_string e)
      (Printexc.raw_backtrace_to_string bt);
    Atomic.incr t.reg.Registry.handler_errors;
    teardown t

let try_flush t = guard t flush

(* ---- input and execution ------------------------------------------------ *)

(* One non-blocking read deposited straight into the decoder's buffer
   (no intermediate copy).  Its bytes are a new read batch, which the
   [max_inflight] bound counts; while the pipeline is paused they wait
   behind the undecoded rest of the batch before, as [deferred] bytes.
   EINTR is a no-op: the loop's readiness is level-triggered, so the
   read simply happens on the next cycle. *)
let read_chunk t =
  let buf, off = Wire.Decoder.reserve t.dec 65536 in
  match Unix.read t.fd buf off 65536 with
  | 0 -> `Eof
  | n ->
      Wire.Decoder.commit t.dec n;
      if t.parked then t.deferred <- t.deferred + n
      else begin
        t.admitted <- 0;
        t.deferred <- 0
      end;
      `Data
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Nothing
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.ENOTCONN), _, _) ->
      `Reset

(* The wake of a registered wait.  It runs on a committing thread, so
   it only posts: [resume] runs on this session's loop, the one thread
   that touches session state and may run the re-run's transaction.
   The STM calls it at most once per wait, and not once the wait is
   cancelled; a wake racing a cancel makes one spurious re-run. *)
let posting t resume () = t.services.post (fun () -> guard t resume)

let runnable t = (not t.parked) && (not t.closed) && not t.closing

(* The pipeline.  The decoder's buffer is the session's queue: [serve]
   decodes the next complete frame where it lies, executes it and
   encodes its reply, in request order, until no complete frame is
   buffered, a pop parks or a BGSAVE runs (the rest of the batch waits
   in the buffer), or the session closes.  [pump] opens such a run with
   the one clock read that starts its first request.  Once the input
   has ended (EOF, corrupt framing or a drain) and nothing is left to
   run, the session flips to [closing]: flush, then the loop closes the
   fd. *)
let rec pump t =
  if runnable t then begin
    t.mark <- R.now ();
    serve t
  end

and serve t =
  if runnable t then
    match Wire.Decoder.next_request t.dec with
    | `Ok r -> admit t r
    | `Bad m ->
        reply t (err Wire.Proto "%s" m);
        serve t
    | `Corrupt m ->
        (* framing is gone: answer what decoded, then close *)
        reply t (err Wire.Proto "corrupt stream: %s" m);
        t.input_done <- true;
        ended t
    | `Await -> ended t

and ended t =
  if t.draining || t.input_done then t.closing <- true;
  arm_watch t

(* The in-flight bound, per read batch: a request past it is refused
   BUSY in its own reply slot, so that replies always come back in
   request order (a pipelining client matches them up positionally).
   The first request that ends in the bytes read while the pipeline was
   paused opens their batch.  A timed request's latency is recorded
   once its reply is encoded. *)
and admit t r =
  t.stats.requests <- t.stats.requests + 1;
  if t.deferred > 0 && Wire.Decoder.buffered t.dec < t.deferred then begin
    t.admitted <- 0;
    t.deferred <- 0
  end;
  if t.admitted >= t.limits.Limits.max_inflight then begin
    reply t
      (err Wire.Busy "more than %d requests in flight"
         t.limits.Limits.max_inflight);
    serve t
  end
  else begin
    t.admitted <- t.admitted + 1;
    (* Release already-encoded replies before a full-structure stream:
       the cheap replies of a pipelined batch must not wait out a
       traversal three orders of magnitude costlier than they are, and
       the client drains them while we fold.  This also bounds output
       growth across a run of consecutive snapshot requests to about
       one reply.  The write is no part of the snapshot's service time
       or deadline window, which start after it. *)
    (match r.Wire.cmd with
    | Wire.Snapshot_iter _ when Wire.Obuf.pending t.out > 0 ->
        flush t;
        t.mark <- R.now ()
    | _ -> ());
    (* A parked session keeps its watch registered. *)
    match exec_step t r with
    | `Done ->
        if t.timed >= 0 then record_latency t t.timed t.mark;
        serve t
    | `Parked -> arm_watch t
  end

and exec_step t (r : Wire.request) : [ `Done | `Parked ] =
  match r.Wire.cmd with
  | _ when t.in_multi ->
      reply t (exec_in_multi t r);
      `Done
  | Wire.Blpop (name, ms) | Wire.Btake (name, ms) -> exec_pop t r name ms
  | Wire.Snapshot_iter _ ->
      exec_snapshot_iter t r;
      `Done
  | Wire.Bgsave -> (
      match t.reg.Registry.persist with
      | None ->
          reply t (err Wire.Bad_op "persistence is disabled");
          `Done
      | Some log ->
          (* A checkpoint would stall the loop: its snapshot fold and
             file write run on a thread of their own, writers on other
             connections keep committing (snapshots never impede
             updaters), and this session resumes when the save is
             published.  Whatever the job raises becomes the reply. *)
          t.parked <- true;
          t.services.submit (fun () ->
              let resp =
                try Persist.bgsave t.reg log
                with e ->
                  err Wire.Proto "checkpoint failed: %s" (Printexc.to_string e)
              in
              t.services.post (fun () ->
                  guard t (fun t ->
                      t.parked <- false;
                      if not t.closed then begin
                        reply t resp;
                        pump t;
                        flush t
                      end)));
          `Parked)
  | _ ->
      reply t (exec_request t r);
      `Done

(* A blocking queue pop ([BLPOP]/[BTAKE]), logged as the [DEQ] it
   behaves as: replaying a plain pop reproduces the taken element.

   [timeout_ms <= 0] means wait indefinitely — the waiter is still
   bounded by shutdown (the session's drain answers it) and by the
   server-wide waiter budget: a slot is {e reserved}
   when the pop first registers (atomically, so racing sessions cannot
   jointly overshoot the cap, whatever instances they wait on) and
   released when it replies; a pop that cannot reserve gets [BUSY].
   Timing out is not an error for a blocking op: it replies [Nil],
   like Redis.  One latency sample covers every run and the wait, from
   the pop's start to its reply, and its timeout counts from its
   start. *)
and exec_pop t (r : Wire.request) name timeout_ms : [ `Done | `Parked ] =
  match resolve t r.cmd with
  | Error e ->
      reply t e;
      `Done
  | Ok res ->
      let sem = sem_of r and t0 = t.mark in
      let run ~wake =
        exec_tx t ~timed:false ~wake ~cmds:[ Wire.Deq name ]
          ~site:res.Registry.site
          ~sem ~label:(label_of r.cmd sem) [ res ] res.Registry.run
      in
      let deadline =
        if timeout_ms <= 0 then max_int else t0 + (timeout_ms * 1_000_000)
      in
      run_pop t { run; sem; t0; deadline; reserved = false }

(* One run of a pop's body on the loop thread, through [exec_tx] like
   any request: its reply, or its wait registered with a wake that
   posts [resume_pop], the session parked until then.  A client whose
   input has ended cannot be waited for: its pop answers [Nil] rather
   than wait.  A pop that starts while the session drains answers
   [Nil] without running, so it takes nothing even from a non-empty
   queue. *)
and run_pop t p =
  match
    if t.draining then Wire.Nil else p.run ~wake:(posting t resume_pop)
  with
  | resp ->
      end_pop t p resp;
      `Done
  | exception S.Waiting wait ->
      if t.input_done then begin
        S.cancel_wait wait;
        end_pop t p Wire.Nil;
        `Done
      end
      else if
        p.reserved
        || Registry.reserve_waiter t.reg ~limit:t.limits.Limits.max_waiters
      then begin
        p.reserved <- true;
        t.pop <- Some (p, wait);
        t.parked <- true;
        `Parked
      end
      else begin
        S.cancel_wait wait;
        reply t
          (err Wire.Busy "wait table full (%d waiters)" (Registry.waiting t.reg));
        `Done
      end

and end_pop t p resp =
  if p.reserved then Registry.release_waiter t.reg;
  reply t resp;
  record_latency t (sem_index p.sem) p.t0

(* The waiting pop's wait ends, by its wake or its timeout: cancel it
   and unpark, then [k] replies or registers again, in a pipeline run
   of its own that carries on with the requests behind the pop. *)
and end_wait t (p, w) k =
  S.cancel_wait w;
  t.pop <- None;
  t.parked <- false;
  t.mark <- R.now ();
  if k p = `Done then begin
    serve t;
    flush t
  end

and resume_pop t =
  if not t.closed then Option.iter (fun w -> end_wait t w (run_pop t)) t.pop

(* The waiting pop gives up with [Nil], its wait cancelled and its slot
   freed: its timeout passed, its client hung up (EOF or reset) — a
   later commit must not hand it an item nobody will read — or the
   session drains. *)
and give_up t =
  Option.iter
    (fun w ->
      end_wait t w (fun p ->
          end_pop t p Wire.Nil;
          `Done))
    t.pop

(* Keep one watch wait registered while the session has subscriptions:
   the take-dirty body runs on the loop thread, and when nothing is
   dirty its wait is registered with a wake that posts [resume_watch].
   Each resume pushes what changed and registers again; a drain
   cancels it, and a draining or closing session does not register.
   Pushes are server-initiated: they bypass [reply] so they never
   count as request replies.  The session keeps serving requests while
   it waits. *)
and arm_watch t =
  if
    Option.is_none t.watch
    && t.watches <> []
    && (not t.closed)
    && (not t.closing)
    && not t.draining
  then begin
    match
      S.try_atomically_one ~sem:Polytm.Semantics.Classic ~label:"watch-wait"
        ~wake:(posting t resume_watch) (Registry.stm t.reg)
        (Registry.take_dirty t.reg t.watches)
    with
    | S.Committed names ->
        List.iter (fun n -> Wire.write_response_obuf t.out (Wire.Push n)) names;
        if names <> [] then arm_watch t
    | S.Exhausted _ | S.Deadline_exceeded _ ->
        (* unreachable without a budget or a deadline *) ()
    | exception S.Waiting w -> t.watch <- Some w
  end

and resume_watch t =
  if Option.is_some t.watch then begin
    drop_watch t;
    arm_watch t;
    flush t
  end

(* ---- loop-facing surface ------------------------------------------------ *)

(* When the loop must call [on_deadline]: the waiting pop's timeout,
   or [max_int]. *)
let deadline t = match t.pop with Some (p, _) -> p.deadline | None -> max_int

let on_deadline t now =
  match t.pop with
  | Some (p, _) when now >= p.deadline -> guard t give_up
  | _ -> ()

(* A parked session still reads while its pop waits, so that it hears
   the client hang up; what the client sends meanwhile stays in the
   decoder until the pipeline resumes. *)
let readable t =
  if not t.closed then begin
    (match read_chunk t with
    | `Data | `Nothing -> ()
    | `Eof -> t.input_done <- true
    | `Reset -> t.closed <- true);
    if t.input_done || t.closed then give_up t;
    pump t;
    flush t
  end

let on_readable t = guard t readable

(* After a shutdown request: consume whatever already arrived (without
   blocking), answer it, flush, and let the loop close.  In-flight
   requests are drained, not dropped, and no wait outlives the drain:
   the watch wait is cancelled, a waiting pop answers [Nil] and frees
   its waiter slot, and a pop the drain decodes answers [Nil] without
   dequeuing ({!run_pop}). *)
let drain t =
  if (not t.draining) && not t.closed then begin
    t.draining <- true;
    let rec slurp () =
      match read_chunk t with
      | `Data -> slurp ()
      | `Eof -> t.input_done <- true
      | `Nothing -> ()
      | `Reset -> t.closed <- true
    in
    slurp ();
    drop_watch t;
    give_up t;
    pump t;
    flush t
  end

let begin_drain t = guard t drain

(* Reads are masked while replies wait to be flushed, and while parked,
   except that a waiting pop keeps reading (to hear its client hang
   up) until the decoder holds a frame's worth of bytes. *)
let wants_read t =
  (not t.closed) && (not t.closing) && (not t.input_done) && (not t.draining)
  &&
  if t.parked then
    Option.is_some t.pop
    && Wire.Decoder.buffered t.dec < Wire.default_max_frame
  else Wire.Obuf.pending t.out = 0

let wants_write t = (not t.closed) && Wire.Obuf.pending t.out > 0

let finished t =
  t.closed || (t.closing && (not t.parked) && Wire.Obuf.pending t.out = 0)

let fd t = t.fd

let create ~limits ~registry ~stats ~services fd =
  Limits.validate limits;
  {
    fd;
    reg = registry;
    limits;
    stats;
    services;
    dec = Wire.Decoder.create ();
    out = Wire.Obuf.create ~initial:8192 ();
    scratch = Wire.Obuf.create ~initial:4096 ();
    admitted = 0;
    deferred = 0;
    mark = 0;
    timed = -1;
    in_multi = false;
    multi_hint = None;
    multi_rev = [];
    multi_count = 0;
    watches = [];
    durable = 0;
    watch = None;
    pop = None;
    parked = false;
    draining = false;
    input_done = false;
    closing = false;
    closed = false;
  }
