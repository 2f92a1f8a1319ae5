(** {!Runtime_intf.RUNTIME} backend over real OCaml domains.

    Used by the preemptive stress tests and the Bechamel
    micro-benchmarks.  Thread counts should stay near the machine's
    core count; the figure-scale 1–64-thread sweeps use {!Sim_runtime}
    instead (see DESIGN.md §2, substitution S1). *)

let name = "domains"

type 'a atomic = 'a Atomic.t

let atomic = Atomic.make
let get = Atomic.get
let set = Atomic.set
let cas = Atomic.compare_and_set
let fetch_and_add = Atomic.fetch_and_add

type token = bool Atomic.t

let token () = Atomic.make false
let token_held = Atomic.get
let token_try_acquire t = Atomic.compare_and_set t false true
let token_release t = Atomic.set t false

type counter = int Atomic.t

let counter () = Atomic.make 0
let add_counter c n = ignore (Atomic.fetch_and_add c n)
let read_counter = Atomic.get

(* Futex-style parking: a mutex/condvar pair guarding a permit bit.  An
   untimed park is a plain [Condition.wait] loop — zero busy-wait, the
   thread is off-CPU until [unpark] signals it.  The stdlib [Condition]
   has no timed wait, so a parker lazily grows a self-pipe on its first
   {e timed} park and waits in [Unix.select] with the remaining-time
   bound; [unpark] writes a nudge byte so a timed waiter also wakes
   immediately.  The pipe is per-parker (parkers are pooled one per
   thread context), both ends non-blocking, drained on each wakeup and
   in [park_prepare]. *)
type parker = {
  mu : Mutex.t;
  cv : Condition.t;
  mutable permit : bool;
  mutable pipe : (Unix.file_descr * Unix.file_descr) option;
}

let parker () =
  { mu = Mutex.create (); cv = Condition.create (); permit = false; pipe = None }

let drain_pipe rfd =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read rfd buf 0 64 with
    | n -> if n = 64 then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let pipe_of p =
  match p.pipe with
  | Some pp -> pp
  | None ->
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      p.pipe <- Some (r, w);
      (r, w)

let park_prepare p =
  Mutex.lock p.mu;
  p.permit <- false;
  (match p.pipe with Some (r, _) -> drain_pipe r | None -> ());
  Mutex.unlock p.mu

let now () = int_of_float (Unix.gettimeofday () *. 1e9)

let park p ~deadline =
  Mutex.lock p.mu;
  let r =
    match deadline with
    | None ->
        while not p.permit do
          Condition.wait p.cv p.mu
        done;
        p.permit <- false;
        `Woken
    | Some d ->
        (* [select] runs outside the mutex; the race with [unpark] is
           benign because the nudge byte persists in the pipe until
           drained, acting as a second, level-triggered permit. *)
        let rfd, _ = pipe_of p in
        let rec loop () =
          if p.permit then begin
            p.permit <- false;
            drain_pipe rfd;
            `Woken
          end
          else
            let dt = float_of_int (d - now ()) /. 1e9 in
            if dt <= 0.0 then `Timeout
            else begin
              Mutex.unlock p.mu;
              (match Unix.select [ rfd ] [] [] dt with
              | rs, _, _ -> if rs <> [] then drain_pipe rfd
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
              Mutex.lock p.mu;
              loop ()
            end
        in
        loop ()
  in
  Mutex.unlock p.mu;
  r

let unpark p =
  Mutex.lock p.mu;
  p.permit <- true;
  Condition.signal p.cv;
  let pipe = p.pipe in
  Mutex.unlock p.mu;
  match pipe with
  | None -> ()
  | Some (_, w) -> (
      (* A full pipe already holds a pending nudge; any other failure
         just degrades a timed wait to its deadline. *)
      try ignore (Unix.write_substring w "x" 0 1) with Unix.Unix_error _ -> ())

type exclusion = Mutex.t

let exclusion () = Mutex.create ()

let exclusive mu f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

type handle = unit Domain.t

let spawn f = Domain.spawn f
let join = Domain.join

let parallel thunks = List.iter Domain.join (List.map Domain.spawn thunks)

let yield () = Domain.cpu_relax ()

let pause n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

(* Simulator cost-model charges have no physical counterpart: the real
   cost of the modelled work (read-set appends and the like) is paid by
   the work itself. *)
let charge _ = ()
let self_id () = (Domain.self () :> int)

(* Thread-local storage keyed by {e systhread}, not just domain.  A
   server's event loop runs a BGSAVE's checkpoint on a second thread
   of its domain; with plain [Domain.DLS] the two threads would share
   one [thread_ctx] — one descriptor free list and one stack of the
   calls holding descriptors — and corrupt each other's transactions.  Each domain therefore keeps a small
   registry of per-thread values inside its DLS slot.

   Concurrency: systhreads of one domain never run in parallel (the
   runtime lock serializes them), but a thread switch can occur at any
   allocation point.  The fast path reads the immutable [(tid, value)]
   pair through a single field load, so it can never observe a torn
   update; the slow path serializes its read-modify-write of the
   registry under a mutex. *)
type 'a cell = {
  mutable last : int * 'a;  (** most recent thread's binding *)
  mutable others : (int * 'a) list;  (** colder threads of this domain *)
  mu : Mutex.t;
}

type 'a tls = { init : unit -> 'a; key : 'a cell Domain.DLS.key }

let tls init =
  {
    init;
    key =
      Domain.DLS.new_key (fun () ->
          {
            last = (Thread.id (Thread.self ()), init ());
            others = [];
            mu = Mutex.create ();
          });
  }

let tls_slow t (c : _ cell) tid =
  Mutex.lock c.mu;
  let (last_tid, _) = c.last in
  let v =
    if last_tid = tid then snd c.last
    else begin
      let v =
        match List.assoc_opt tid c.others with
        | Some v ->
            c.others <- List.remove_assoc tid c.others;
            v
        | None -> t.init ()
      in
      c.others <- c.last :: c.others;
      c.last <- (tid, v);
      v
    end
  in
  Mutex.unlock c.mu;
  v

let tls_get t =
  let c = Domain.DLS.get t.key in
  let tid = Thread.id (Thread.self ()) in
  let (last_tid, v) = c.last in
  if last_tid = tid then v else tls_slow t c tid

let tls_set t v =
  let c = Domain.DLS.get t.key in
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock c.mu;
  if fst c.last = tid then c.last <- (tid, v)
  else begin
    c.others <- List.remove_assoc tid c.others;
    c.others <- c.last :: c.others;
    c.last <- (tid, v)
  end;
  Mutex.unlock c.mu
