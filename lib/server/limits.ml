(** Resource bounds and per-op execution policy of a [polytmd]
    session.  Everything that protects the server from an unbounded or
    hostile client lives here, so the session code reads as policy
    application rather than magic numbers.

    Backpressure is explicit: a client that pipelines more than
    [max_inflight] requests into one read batch gets [BUSY] errors for
    the excess instead of the server buffering arbitrarily — the reply
    tells the client to slow down, and server memory stays bounded by
    [max_inflight] times the wire's frame limit
    ({!Wire.default_max_frame}) per connection. *)

type t = {
  max_inflight : int;
      (** decoded-but-unexecuted requests tolerated per connection;
          excess requests are answered [BUSY] and not executed *)
  max_multi : int;  (** commands accepted inside one [MULTI] batch *)
  op_budget : int option;
      (** optimistic retry budget per request, single- or cross-shard,
          mapped onto the request's transaction's [~budget]: a request that
          spends it is answered [EXHAUSTED].  [None] leaves the STM's
          default — the instance's [max_attempts] for one shard, 16
          rounds across shards — after which the transaction escalates
          to the serialization tokens and commits *)
  op_deadline_us : int option;
      (** per-request deadline in microseconds, single- or
          cross-shard, mapped onto its transaction's [~deadline]; a
          request still retrying when it passes is answered
          [DEADLINE].  [None] means no deadline *)
  max_waiters : int;
      (** registered blocking pops ([BLPOP]/[BTAKE] waiting on an
          empty queue) tolerated server-wide, across every STM
          instance and shard; a pop that would register when the
          shared budget ([Registry.reserve_waiter]) is exhausted is
          answered [BUSY] instead, so a flood of blocking clients
          cannot grow the wait tables without bound.  A registered
          wait holds no thread, only its entry in a wait table.
          Watches are not counted: a session holds at most one
          registered watch wait, so connections bound them. *)
  debug_ops : bool;
      (** accept [DEBUG-ABORT] probe requests (tests and CI smoke);
          off by default *)
}

(* [select]'s [FD_SETSIZE]: a loop cannot wait on an fd at or above
   it, so a connection whose fd is that high is closed when it reaches
   its loop (counted in INFO's [fd_refused]). *)
let fd_limit = 1024

let default =
  {
    max_inflight = 128;
    max_multi = 1024;
    op_budget = None;
    op_deadline_us = None;
    max_waiters = 64;
    debug_ops = false;
  }

let validate t =
  if t.max_inflight < 1 then invalid_arg "Limits: max_inflight must be >= 1";
  if t.max_multi < 1 then invalid_arg "Limits: max_multi must be >= 1";
  if t.max_waiters < 1 then invalid_arg "Limits: max_waiters must be >= 1";
  (match t.op_budget with
  | Some b when b < 1 -> invalid_arg "Limits: op_budget must be >= 1"
  | _ -> ());
  match t.op_deadline_us with
  | Some d when d < 0 -> invalid_arg "Limits: op_deadline_us must be >= 0"
  | _ -> ()
