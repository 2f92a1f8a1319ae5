(** The event-loop core of [polytmd]: one loop multiplexes many
    {!Session}s over a [select]-based readiness cycle, so a domain
    serves every connection assigned to it instead of one blocking
    session at a time.  A server runs one loop per domain; its loop 0
    runs on the domain that called {!Server.run} and also reads the
    listening sockets ({!run}'s [?listen]).

    Anatomy of one cycle:

    - thread-safe {e injections} (the resumes that wakes of
      registered waits post, BGSAVE completions, newly accepted
      connections) run first, on the loop thread — all session state
      is single-threaded by construction.  A cycle with nothing posted
      reads one atomic flag and skips the queue, its mutex and the
      wake pipe;
    - finished sessions are reaped (watches released, fd closed);
    - [select] waits on the wake pipe plus every session that wants
      readiness: reads are level-triggered and masked while a session
      is mid-batch or has unflushed output (the session
      write-before-next-read discipline, which is also the
      backpressure bound), or is parked, except that a waiting pop
      keeps reading so that its client's hang-up ends its wait.  Its
      timeout is the earliest timeout of a waiting pop, and a
      listening loop's {!tick} at most; a loop that reads no listener
      and has no timed wait blocks until a descriptor or a {!post}
      wakes it, and a cycle with no timed wait reads no clock for it;
    - writable sessions flush their pending {!Wire.Obuf} region with
      one coalesced [write]; readable sessions read once, decode the
      batch, execute, and encode replies; a listening loop then takes
      one connection from each readable listener.

    No wait holds a thread.  A blocking pop or a watch registers its
    STM wait set with a wake that only {!post}s the session's resume
    here; the resume re-runs the transaction on the loop thread.  The
    one job that leaves the loop thread is a BGSAVE's checkpoint,
    which gets a systhread of its own ({!submit}).

    A connection whose fd [select] cannot wait on (at or above
    {!Limits.fd_limit}) is closed when it reaches the loop, and INFO
    counts it: passing it to [select] would stop the loop.  A session
    whose handler raises tears itself down (every {!Session} entry
    point and posted resume catches), so the loop reaps and closes it
    like any finished session and keeps serving the rest.

    Shutdown is the loop's own job: when [stop] flips, a listening
    loop first stops listening and runs its [closing] step (which
    wakes every other loop); then every loop drains each of its
    sessions ({!Session.begin_drain}): it answers what already
    arrived, answers a waiting pop [Nil], cancels a watch, flushes
    and closes.  The loop exits when its last session closes, then
    joins its checkpoint threads. *)

module R = Polytm_runtime.Domain_runtime

type conn = { sess : Session.t; on_close : unit -> unit }

(* What a server's loop 0 does besides serving its sessions. *)
type listen = {
  fds : Unix.file_descr list;  (** non-blocking listening sockets *)
  accept : Unix.file_descr -> unit;
      (** a listener is readable: take at most one connection *)
  tick : unit -> unit;  (** once per cycle, before [stop] is read *)
  closing : unit -> unit;  (** once, in the first cycle that sees [stop] *)
}

type t = {
  stop : unit -> bool;
  exit_on_empty : bool;
      (** [handle] mode: return once the last session closes even if
          [stop] never flips (the server's loops outlive idle gaps) *)
  mutable helpers : Thread.t list;  (** BGSAVE threads, joined at exit *)
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
    helpers = [];
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

(* A BGSAVE's checkpoint, on a systhread of this loop's domain.  Only
   the loop thread calls it. *)
let submit t job = t.helpers <- Thread.create job () :: t.helpers

(* [select] refuses an fd at or above [FD_SETSIZE] with EINVAL before
   any syscall; ask it, with no wait. *)
let rec selectable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> selectable fd
  | exception Unix.Unix_error _ -> false

(* Register a connection on the loop thread, or refuse one the cycle
   could not wait on: [on_close] closes it. *)
let attach t ?(on_close = fun () -> ()) ~limits ~registry ~stats fd =
  if not (selectable fd) then begin
    Atomic.incr registry.Registry.fd_refused;
    on_close ()
  end
  else begin
    Unix.set_nonblock fd;
    let services = { Session.submit = submit t; post = post t } in
    let sess = Session.create ~limits ~registry ~stats ~services fd in
    Atomic.incr t.load;
    t.conns <- { sess; on_close } :: t.conns
  end

(* Hand a connection to the loop from any thread, the loop's own
   included (a server's loop 0 accepts for every loop). *)
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

(* A listening loop observes the stop flag at most one [tick] after it
   flips: a signal handler cannot post.  Other loops are woken by the
   listening loop's [closing] step. *)
let tick = 0.2

let run ?listen t =
  let listen = ref listen in
  let rec cycle () =
    run_injections t;
    Option.iter (fun l -> l.tick ()) !listen;
    if t.stop () then begin
      Option.iter (fun l -> l.closing ()) !listen;
      listen := None;
      List.iter (fun c -> Session.begin_drain c.sess) t.conns
    end;
    reap t;
    let idle =
      t.conns = [] && (t.exit_on_empty || t.stop ()) && not (Atomic.get t.posted)
    in
    if not idle then begin
      let lfds = Option.fold ~none:[] ~some:(fun l -> l.fds) !listen in
      let rds = ref (t.wake_r :: lfds) and wrs = ref [] and next = ref max_int in
      List.iter
        (fun c ->
          let s = c.sess in
          if Session.wants_read s then rds := Session.fd s :: !rds;
          if Session.wants_write s then wrs := Session.fd s :: !wrs;
          let d = Session.deadline s in
          if d < !next then next := d)
        t.conns;
      let tick = if lfds = [] then infinity else tick in
      let timeout =
        if !next = max_int then tick
        else Float.min tick (Float.max 0. (float (!next - R.now ()) /. 1e9))
      in
      (* [select] waits with no timeout for a negative one *)
      let timeout = if timeout = infinity then -1. else timeout in
      (match Unix.select !rds !wrs [] timeout with
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
            t.conns;
          Option.iter
            (fun l -> List.iter (fun fd -> if List.memq fd rs then l.accept fd) lfds)
            !listen
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if !next < max_int then begin
        let now = R.now () in
        List.iter (fun c -> Session.on_deadline c.sess now) t.conns
      end;
      cycle ()
    end
  in
  cycle ();
  List.iter Thread.join t.helpers;
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
