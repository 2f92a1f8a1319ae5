(** The event-loop core of [polytmd]: one loop multiplexes many
    {!Session}s over a [select]-based readiness cycle, so a worker
    domain serves every connection assigned to it instead of one
    blocking session at a time.

    Anatomy of one cycle:

    - thread-safe {e injections} (completed blocking ops, watch
      notifications, newly accepted connections) run first, on the
      loop thread — all session state is single-threaded by
      construction.  A cycle with nothing posted reads one atomic flag
      and skips the queue, its mutex and the wake pipe;
    - finished sessions are reaped (watches released, fd closed);
    - [select] waits on the wake pipe plus every session that wants
      readiness: reads are level-triggered and masked while a session
      is parked, mid-batch, or has unflushed output (the session
      write-before-next-read discipline, which is also the
      backpressure bound);
    - writable sessions flush their pending {!Wire.Obuf} region with
      one coalesced [write]; readable sessions read once, decode the
      batch, execute, and encode replies.

    Blocking STM waits never run on the loop thread: a {!Pool} of
    lazily-spawned helper threads (same domain, so systhread-keyed
    TLS keeps their transactions apart) carries them, and completion
    re-enters the loop via the injection queue and a self-pipe wake.

    Shutdown: when [stop] flips, the loop begins each session's drain
    (answer what already arrived, flush, close); parked waiters are
    woken by the registry's drain-flag commit exactly as before, and
    their completions finish the drain.  The loop exits when its last
    session closes, then joins its helpers. *)

module Pool = struct
  type t = {
    mu : Mutex.t;
    cv : Condition.t;
    jobs : (unit -> unit) Queue.t;
    mutable idle : int;
    mutable threads : Thread.t list;
    mutable closed : bool;
  }

  let create () =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      jobs = Queue.create ();
      idle = 0;
      threads = [];
      closed = false;
    }

  let rec worker p =
    Mutex.lock p.mu;
    let rec next () =
      if not (Queue.is_empty p.jobs) then Some (Queue.pop p.jobs)
      else if p.closed then None
      else begin
        p.idle <- p.idle + 1;
        Condition.wait p.cv p.mu;
        p.idle <- p.idle - 1;
        next ()
      end
    in
    match next () with
    | None -> Mutex.unlock p.mu
    | Some job ->
        Mutex.unlock p.mu;
        (try job () with _ -> ());
        worker p

  (* Spawn-on-demand with idle reuse: the helper population converges
     to the peak number of concurrent waits, which the session layer
     already bounds by [max_waiters] per instance. *)
  let submit p job =
    Mutex.lock p.mu;
    if p.closed then begin
      Mutex.unlock p.mu;
      invalid_arg "Evloop.Pool: submit after shutdown"
    end
    else begin
      Queue.push job p.jobs;
      if p.idle = 0 then p.threads <- Thread.create worker p :: p.threads
      else Condition.signal p.cv;
      Mutex.unlock p.mu
    end

  let shutdown p =
    Mutex.lock p.mu;
    p.closed <- true;
    Condition.broadcast p.cv;
    let threads = p.threads in
    Mutex.unlock p.mu;
    List.iter Thread.join threads
end

type conn = { sess : Session.t; on_close : unit -> unit }

type t = {
  stop : unit -> bool;
  exit_on_empty : bool;
      (** [handle] mode: return once the last session closes even if
          [stop] never flips (the server's loops outlive idle gaps) *)
  pool : Pool.t;
  mutable conns : conn list;
  load : int Atomic.t;  (** connection count, readable cross-thread *)
  inject : (unit -> unit) Queue.t;
  mu : Mutex.t;
  posted : bool Atomic.t;
      (** [inject] is not empty.  [post] sets it, and writes a wake
          byte if it was clear; the loop clears it when it takes the
          batch.  Both under [mu]; the loop reads it without the mutex
          to skip a cycle's injections *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let create ?(exit_on_empty = false) ~stop () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    stop;
    exit_on_empty;
    pool = Pool.create ();
    conns = [];
    load = Atomic.make 0;
    inject = Queue.create ();
    mu = Mutex.create ();
    posted = Atomic.make false;
    wake_r;
    wake_w;
  }

let load t = Atomic.get t.load

(* Run [f] on the loop thread at the top of its next cycle.  Safe from
   any thread; the self-pipe byte interrupts a parked [select].  The
   [posted] flag keeps a burst of completions to one byte. *)
let post t f =
  Mutex.lock t.mu;
  Queue.push f t.inject;
  let need_wake = not (Atomic.get t.posted) in
  Atomic.set t.posted true;
  Mutex.unlock t.mu;
  if need_wake then
    try ignore (Unix.write_substring t.wake_w "x" 0 1)
    with Unix.Unix_error _ -> ()

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 64 with
    | n -> if n = 64 then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* The wake byte is read when [select] reports it, not here: a [post]
   sets [posted] before it writes its byte, so the byte can land after
   this cycle took the batch, and a byte left in the pipe would make
   every later [select] return at once. *)
let run_injections t =
  if Atomic.get t.posted then begin
    let batch = Queue.create () in
    Mutex.lock t.mu;
    Queue.transfer t.inject batch;
    Atomic.set t.posted false;
    Mutex.unlock t.mu;
    Queue.iter (fun f -> f ()) batch
  end

(* Register a connection on the loop thread. *)
let attach t ?(on_close = fun () -> ()) ~limits ~registry ~stats fd =
  Unix.set_nonblock fd;
  let services =
    { Session.submit = Pool.submit t.pool; post = post t }
  in
  let sess =
    Session.create ~stop:t.stop ~limits ~registry ~stats ~services fd
  in
  Atomic.incr t.load;
  t.conns <- { sess; on_close } :: t.conns

(* Hand a connection to the loop from another thread (the acceptor). *)
let add_conn t ?on_close ~limits ~registry ~stats fd =
  Atomic.incr t.load;
  post t (fun () ->
      Atomic.decr t.load;
      attach t ?on_close ~limits ~registry ~stats fd)

let reap t =
  let finished, live =
    List.partition (fun c -> Session.finished c.sess) t.conns
  in
  if finished <> [] then begin
    t.conns <- live;
    List.iter
      (fun c ->
        Session.teardown c.sess;
        Atomic.decr t.load;
        c.on_close ())
      finished
  end

(* The stop flag is observed at most one [tick] after it flips (the
   wake pipe shortcuts completions, not flag flips from a signal
   handler). *)
let tick = 0.2

let run t =
  let rec cycle () =
    run_injections t;
    if t.stop () then
      List.iter (fun c -> Session.begin_drain c.sess) t.conns;
    reap t;
    let idle =
      t.conns = [] && (t.exit_on_empty || t.stop ()) && not (Atomic.get t.posted)
    in
    if not idle then begin
      let rds =
        t.wake_r
        :: List.filter_map
             (fun c ->
               if Session.wants_read c.sess then Some (Session.fd c.sess)
               else None)
             t.conns
      in
      let wrs =
        List.filter_map
          (fun c ->
            if Session.wants_write c.sess then Some (Session.fd c.sess)
            else None)
          t.conns
      in
      (match Unix.select rds wrs [] tick with
      | rs, ws, _ ->
          if List.memq t.wake_r rs then drain_wake t;
          List.iter
            (fun c ->
              if List.memq (Session.fd c.sess) ws then
                Session.try_flush c.sess)
            t.conns;
          List.iter
            (fun c ->
              if List.memq (Session.fd c.sess) rs then
                Session.on_readable c.sess)
            t.conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      cycle ()
    end
  in
  cycle ();
  Pool.shutdown t.pool;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

(* Serve one already-accepted connection to completion on the calling
   thread — a single-session event loop.  This is polytmd's old
   [Session.handle] surface, kept so the deterministic socketpair
   tests drive the exact code path production uses.  The caller
   retains ownership of [fd] (it is set non-blocking but not
   closed). *)
let handle ?(stop = fun () -> false) ~limits ~registry ~stats fd =
  let t = create ~exit_on_empty:true ~stop () in
  attach t ~limits ~registry ~stats fd;
  run t
