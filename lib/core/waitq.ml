(** Commit-driven waiter registry: the wait/notify half of [Stm.retry].

    A transaction that calls [retry] registers a {!waiter} here, keyed
    by the location ids of its read set (TL2), or on a single coarse
    global list (NORec, which has no per-location metadata — every
    committed write wakes every waiter, a documented deviation; see
    DESIGN.md §S18).  Committing writers consult the registry {e after}
    releasing their locks and wake the waiters parked on the locations
    they wrote.

    A waiter carries a {e wake} function, which a notifying commit
    calls.  Every [retry] registers the same kind of waiter: a blocking
    park's wake unparks its thread's parker, and a wait registered
    through [try_atomically_one ~wake] calls its caller's wake, which
    an event loop uses to post the session's resume to itself.

    Lost-wakeup freedom is the caller's protocol, not the registry's:
    the waiter registers {e first}, then re-validates its read set, and
    only then waits — so a commit that lands before registration is
    caught by validation, and one that lands after calls the wake (for
    a park, a permit in the parker; see {!Runtime_intf.RUNTIME}).

    All registry operations are uncharged: registration and
    notification live outside the transactional cost model, so enabling
    blocking changes no virtual-time schedule unless a waiter actually
    parks.  The waiter count is an uncharged counter so commit hot
    paths can skip notification entirely when nobody waits.

    Concurrency discipline: the table is mutated only under the
    runtime's exclusion, and bodies are tick-free by that contract.
    A wake is always called {e outside} the exclusion — under the
    simulator an unpark reschedules the wakee, and under domains it
    takes the parker's (or the loop's) own mutex; neither may happen
    while holding the registry lock. *)

module Make (R : Polytm_runtime.Runtime_intf.RUNTIME) = struct
  type waiter = {
    wake : unit -> unit;
        (** called once per notify that finds the waiter; must not
            block or run a transaction *)
    mutable locs : int array;  (** registered location ids; [[||]] = global *)
    mutable active : bool;
  }

  type t = {
    lock : R.exclusion;
    tbl : (int, waiter list ref) Hashtbl.t;  (** per-location wait lists *)
    mutable global : waiter list;  (** coarse list for NORec waiters *)
    count : R.counter;  (** currently registered waiters, uncharged *)
  }

  let create () =
    {
      lock = R.exclusion ();
      tbl = Hashtbl.create 64;
      global = [];
      count = R.counter ();
    }

  let waiter wake = { wake; locs = [||]; active = false }

  let waiting t = R.read_counter t.count

  (* Register [w] on every location in [ids], or on the global list
     when [ids] is empty (duplicates are tolerated: a double entry means
     a double wake, which a parker's permit and a registered wait's
     once-only wake both absorb, and [cancel] removes all copies). *)
  let register t w ids =
    R.exclusive t.lock (fun () ->
        w.active <- true;
        w.locs <- ids;
        if Array.length ids = 0 then t.global <- w :: t.global
        else
          Array.iter
            (fun id ->
              match Hashtbl.find_opt t.tbl id with
              | Some l -> l := w :: !l
              | None -> Hashtbl.replace t.tbl id (ref [ w ]))
            ids);
    R.add_counter t.count 1

  (* Deregister after the wait round (wakeup, timeout, or pre-park
     validation failure).  Idempotent. *)
  let cancel t w =
    let was_active =
      R.exclusive t.lock (fun () ->
          if not w.active then false
          else begin
            w.active <- false;
            (if Array.length w.locs = 0 then
               t.global <- List.filter (fun x -> x != w) t.global
             else
               Array.iter
                 (fun id ->
                   match Hashtbl.find_opt t.tbl id with
                   | Some l ->
                       l := List.filter (fun x -> x != w) !l;
                       if !l = [] then Hashtbl.remove t.tbl id
                   | None -> ())
                 w.locs);
            w.locs <- [||];
            true
          end)
    in
    if was_active then R.add_counter t.count (-1)

  (* Wake everyone waiting on location [id].  Waiters are collected
     under the exclusion but woken outside it (see the module comment). *)
  let notify t id =
    let ws =
      R.exclusive t.lock (fun () ->
          match Hashtbl.find_opt t.tbl id with Some l -> !l | None -> [])
    in
    List.iter (fun w -> w.wake ()) ws

  (* Wake every globally-registered waiter (NORec commits). *)
  let notify_global t =
    let ws = R.exclusive t.lock (fun () -> t.global) in
    List.iter (fun w -> w.wake ()) ws
end
