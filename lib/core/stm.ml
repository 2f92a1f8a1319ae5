(** The polymorphic software transactional memory.

    The algorithm is a word-based, TL2-style STM (Dice, Shalev &
    Shavit, DISC'06 — reference [16] of the paper: the very library the
    paper benchmarks against) extended with the paper's two relaxed
    semantics:

    - {b classic}: lazy versioning with a global version clock;
      read-set validation at commit, with TinySTM-style timestamp
      extension on stale reads;
    - {b elastic} (E-STM, DISC'09): before its first write a
      transaction only keeps a sliding window of its most recent reads;
      a stale read triggers a {e cut} — the window is revalidated and
      the timestamp advanced — instead of an abort;
    - {b snapshot}: while a snapshot transaction runs on the instance,
      every committing writer backs up the previous (value, version)
      pair in the location itself, so a read-only snapshot transaction
      whose start time [ub] predates the current version can fall back
      to the backup and never aborts updaters (paper, Section 5.1: two
      versions suffice).  A writer that finds no snapshot running
      keeps no backup: a snapshot that starts after it looked draws a
      bound at or above its version (DESIGN.md, S23).

    All three semantics share the same locations, locks and clock —
    that co-existence is the paper's challenge — and the commit
    protocol guarantees each transaction its own guarantee.

    Locks are per-location and held only during commit, acquired in
    ascending location order (no deadlock); contention policies decide
    spinning, backoff, and (for [Greedy]) cross-transaction kills.

    {b Hot-path engineering} (DESIGN.md, S14).  The paper's Section
    3.3 attributes classic transactions' cost to "metadata management
    overhead"; this implementation keeps that overhead at the level of
    the original TL2 library rather than an idiomatic-but-slow
    placeholder:

    - the read set is a pair of reusable flat arrays
      ({!Polytm_util.Vec}): a read appends without allocating, and
      validation is a cache-friendly array scan (newest entry first,
      matching the cons-list behaviour it replaced);
    - the elastic window is a fixed ring buffer of the window size;
    - the write set is an open-addressed int-keyed table
      ({!Polytm_util.Flat_table}) whose 63-bit location-id signature
      lets a read of an unwritten location skip the read-own-writes
      lookup entirely; commit still locks in ascending location order;
    - the global clock can run TL2's GV4 "pass on failure" scheme
      ([create ~gv:`Gv4]) to halve CAS pressure under commit storms,
      and read-only transactions of every semantics never touch the
      clock at commit (counted by [ro_commits]);
    - a call takes its descriptor (arrays, table, undo/cleanup
      vectors) from a free list kept per thread and per instance and
      returns it on every exit, so a call allocates no descriptor, no
      member array and no per-call record: its body gets a three-word
      handle stamped with the call, which goes dead with it;
    - every statistic is a count in the calling thread's context,
      bumped with a plain store and summed when read, instead of a
      shared cell every thread adds to.

    The simulator charges {e virtual} cost per shared access, so none
    of this changes a charge sequence: same seed ⇒ byte-identical
    telemetry traces (enforced by the goldens test suite).

    {b Algorithm polymorphism} (DESIGN.md, S17).  The TL2 machinery
    above — per-location lock words, commit-time lock acquisition,
    version-based read validation — is one {e ownership/validation
    policy}.  [create ~algo:`Norec] selects the second: NOrec
    (Dalessandro, Spear & Scott, PPoPP'10), built on a single global
    sequence lock (the instance's clock doubles as it: even =
    quiescent, odd = a write commit in flight), value-based
    revalidation of the flat read set on every clock change, and
    commit-time write-back under the lock.  Per-location lock words
    are never touched, so read-dominated workloads carry zero
    per-location metadata traffic; the price is one serialized write
    commit at a time.  Both policies share the semantics (classic /
    elastic / snapshot), liveness (budgets, serial fallback,
    contention managers) and telemetry layers; under NOrec the abort
    taxonomy shrinks to the value-validation causes — [Lock_busy] and
    [Killed] cannot occur because no per-location lock or owner is
    ever published.

    {b One loop, one commit} (DESIGN.md, S20).  Every transaction —
    [atomically], [try_atomically], irrevocable, the serial fallback
    and a cross-instance [atomically_multi] — runs one attempt loop and
    one commit function over its member instances.  One member is the
    base case and issues exactly the single-instance charged
    operations; several members add the [multi_inflight] fence,
    publish-all-before-release-any, a snapshot's bound vector and an
    early escalation to the serialization tokens.

    {b Blocking retry} (DESIGN.md, S18).  [retry] aborts the attempt
    and waits until a commit writes what it read.  Every wait is one
    [wait] record, registered and re-validated by one step
    ([register_wait]): a blocking call's wake unparks its thread, and
    [try_atomically_one ~wake], the one form that takes a wake, hands
    the wait back to its caller (an event loop) instead of parking.

    Extensions beyond the paper's core proposal, all exposed through
    {!Stm_intf.S}: [orelse] alternatives, early release, lifecycle
    hooks (compensations and finalisers, the basis of transactional
    boosting), serial-irrevocable transactions, and an execution-order
    event recorder that the test suite feeds to the formal opacity and
    elastic-opacity checkers. *)

module Vec = Polytm_util.Vec
module Flat_table = Polytm_util.Flat_table
module T = Polytm_telemetry

(* What a thread counts on an instance: indices into its [counts], one
   per field of [stats], in the record's order. *)
module Count = struct
  let starts = 0
  let commits = 1
  let aborts = 2
  let lock_busy = 3
  let read_invalid = 4
  let window_broken = 5
  let snapshot_too_old = 6
  let killed = 7
  let explicit_aborts = 8
  let cuts = 9
  let extensions = 10
  let stale_reads = 11
  let fast_commits = 12
  let ro_commits = 13
  let serial_commits = 14
  let budget_exhaustions = 15
  let retry_waits = 16
  let parks = 17
  let wakes = 18
  let wake_timeouts = 19
  let multi_commits = 20
  let multi_escalations = 21
  let n = 22
end

module Make (R : Polytm_runtime.Runtime_intf.RUNTIME) : Stm_intf.S = struct
  module Wq = Waitq.Make (R)

  type abort_reason =
    | Lock_busy
    | Read_invalid
    | Window_broken
    | Snapshot_too_old
    | Killed
    | Explicit
    | Retry

  exception Too_many_attempts of abort_reason * int
  exception Invalid_operation of string

  (* Internal control-flow signal; the attempt loop is the only catcher. *)
  exception Abort_tx of abort_reason

  type fault =
    [ `Skip_validation | `Skip_wake_validation | `No_stabilize
    | `Early_backup_check ]

  type owner = { serial : int; killed : bool R.atomic }

  type lock_state = Unlocked of int  (** version *) | Locked of owner

  type 'a versioned = {
    value : 'a;
    version : int;
    older : ('a * int) list;
        (** previous (value, version) pairs, newest first, bounded by
            the instance's [versions - 1] (paper §5.1 keeps exactly
            one backup: [versions = 2]); empty when the commit that
            wrote [value] saw no snapshot running (see [write_back]) *)
  }

  type 'a tvar = {
    id : int;
    lock : lock_state R.atomic;
    data : 'a versioned R.atomic;
  }

  (* The flat read set stores type-erased tvars: validation only
     touches [id] and [lock], never ['a]-typed data, so one untyped
     array serves every location type without a per-read box. *)
  let erase (type a) (v : a tvar) : Obj.t tvar = Obj.magic v

  let dummy_tvar : Obj.t tvar =
    {
      id = -1;
      lock = R.atomic (Unlocked 0);
      data = R.atomic { value = Obj.repr (); version = 0; older = [] };
    }

  type 'a wrec = {
    wvar : 'a tvar;
    mutable wvalue : 'a;
    mutable locked_version : int;
  }

  type wentry = WEntry : 'a wrec -> wentry

  (* A write entry paired with a saved value of the same type — the
     [orelse] savepoint for writes the rolled-back branch overwrote. *)
  type wsave = WSave : 'a wrec * 'a -> wsave

  let dummy_wentry =
    WEntry { wvar = dummy_tvar; wvalue = Obj.repr (); locked_version = -1 }

  let nop () = ()

  (* The owner of an attempt that has taken no lock yet.  Never
     published into a lock word, so never killed: [wait_or_die] reads
     its flag with the same charged [R.get] a real owner's costs. *)
  let dummy_owner : owner = { serial = -1; killed = R.atomic false }

  type recorded = {
    rec_tx : int;
    rec_loc : int;
    rec_write : bool;
    rec_sem : Semantics.t;
  }

  (* A transaction descriptor: one member instance's state for one
     call.  Calls take descriptors from their thread's free list on
     the instance ([take]) and give them back on every exit, so the
     read-set arrays, the window ring, the write table and the hook
     vectors are reused across calls, each keeping its capacity;
     [arm_tx] clears them at each attempt.  A call holds its
     descriptors until its hooks have run, so a hook that starts a
     transaction on a member gets a descriptor of its own.  Inside
     the engine, [tx] names a descriptor; the body sees a {!tx}
     handle. *)
  type desc = {
    stm : t;
    ctx : thread_ctx;  (** the owning thread's state on [stm] *)
    mutable call : int;
        (** calls this descriptor has served; stamps the current
            call's handles *)
    mutable gen : int;
        (** [call] while one of the call's attempts runs, -1 otherwise:
            a handle is live iff its stamp equals it *)
    mutable serial : int;
    mutable sem : Semantics.t;
    mutable label : string;  (** call-site label for telemetry, "" if none *)
    mutable owner : owner;
        (** [dummy_owner] until the attempt takes its first lock *)
    mutable rv : int;
        (** validity timestamp; a snapshot's bound, fixed at its
            start *)
    mutable wv : int;
        (** this attempt's write version once its commit intent is
            held and validated; -1 for a read-only member *)
    mutable alone : bool;
        (** the call's only member: no cross-instance protocol *)
    r_vars : Obj.t tvar Vec.t;  (** flat read set, append order *)
    r_vers : int Vec.t;  (** versions parallel to [r_vars] *)
    r_vals : Obj.t Vec.t;
        (** NOrec only: values parallel to [r_vars], compared
            physically at validation; stays empty under TL2 *)
    w_vars : Obj.t tvar array;  (** elastic window: fixed ring buffer *)
    w_vers : int array;
    mutable w_count : int;
    mutable w_head : int;  (** ring index of the newest entry; -1 if none *)
    writes : wentry Flat_table.t;  (** hashed write set, keyed by tvar id *)
    mutable wrote : bool;  (** an elastic tx stops cutting after a write *)
    undo : (unit -> unit) Vec.t;  (** compensations, oldest first *)
    cleanup : (unit -> unit) Vec.t;  (** finalisers, oldest first *)
    retry_vars : Obj.t tvar Vec.t;
        (** reads accumulated from [orelse] branches that {e retried}:
            a rolled-back branch's reads leave the live read set, but a
            retrying branch's must still be waited on (union rule) *)
    retry_vers : int Vec.t;
    mutable attempt : int;  (** 1-based attempt number of this arming *)
    mutable holds_token : bool;
        (** running under the serialization token (irrevocable or the
            serial fallback): commits skip the token stall, and the
            contention manager may neither kill this transaction nor
            abort it on its behalf *)
    (* The call's settings, kept on its first member (the lead).  Every
       entry point — [atomically], [try_atomically], irrevocable
       execution and the cross-instance forms — runs one attempt loop;
       what differs is the member count and these fields.  The serial
       fallback is the same loop after it took the members'
       serialization tokens. *)
    mutable members : desc array;
        (** a cross-instance call's descriptors in canonical order,
            the lead first; [[||]] when [alone] *)
    mutable cap : int;  (** optimistic attempts before exhaustion *)
    mutable deadline : int option;
    mutable escalates : bool;
        (** conflict exhaustion (or the adaptive CM) takes the
            serialization tokens rather than giving up *)
    mutable irrevocable : bool;  (** holds the tokens from the first attempt *)
    mutable wake : unit -> unit;
        (** [try_atomically_one ~wake]: a [retry] registers its wait
            with this wake and returns it instead of parking;
            {!no_wake} parks *)
  }

  and t = {
    uid : int;
        (** creation-order identifier; fixes the canonical instance
            order every cross-instance commit acquires intents in, so
            two multis over overlapping instance sets never deadlock *)
    clock : int R.atomic;
        (** TL2: the global version clock.  NOrec: the global sequence
            lock — even values are quiescent timestamps, an odd value
            means a write commit is writing back. *)
    multi_inflight : int R.atomic;
        (** cross-instance commits currently spanning this instance:
            set on every member {e before} its validation, cleared
            after the last member unlocks.  A cross-instance snapshot
            refuses to draw a clock bound while nonzero — the
            privatization fence that keeps a reader from observing half
            of a multi. *)
    algo : [ `Tl2 | `Norec ];  (** the ownership/validation policy *)
    fault : fault option;
        (** test-only deliberate bug (see [create]); [None] in every
            real configuration *)
    waitq : Wq.t;  (** registry of parked [retry] waiters *)
    gv : [ `Gv1 | `Gv4 ];  (** write-version scheme, see [draw_wv] *)
    serials : int R.atomic;
    tvar_ids : int R.atomic;
    serial_token : R.token;  (** a serial-irrevocable transaction runs *)
    active_commits : int R.atomic;  (** write commits currently in flight *)
    cm : Contention.t;
    elastic_window : int;
    max_attempts : int;
    on_exhaustion : [ `Serialize | `Raise ];
        (** what a conflict-aborted transaction does once its retry
            budget is spent: fall back to the guaranteed serial mode
            (default) or raise [Too_many_attempts] *)
    extend_on_stale : bool;
    versions : int;  (** values retained per location, including current *)
    snapshots : R.counter;
        (** snapshot calls running on this instance, uncharged: a write
            commit that reads 0 keeps no backup (see [write_back]) *)
    current : thread_ctx R.tls;  (** per-thread state, one TLS lookup *)
    ctxs : thread_ctx list Atomic.t;
        (** every thread's context on this instance, for the counts
            they keep (a plain Stdlib atomic: pushed once per thread,
            never on a charged path) *)
    base : int array;  (** the summed counts at the last [reset_stats] *)
    (* history recording: single-scheduler runs only *)
    mutable recording : bool;
    mutable log_rev : recorded list;
    mutable aborted_rev : int list;
    (* telemetry: the lifecycle hook is a single field test when no
       sink is installed — no clock read, no allocation *)
    mutable telemetry : T.sink option;
    (* durability: fired once per write commit with the commit stamp,
       inside the commit critical section (locks / sequence lock still
       held), so invocation order equals serialization order.  Same
       discipline as [telemetry]: a single field test when absent, so
       the default server path charges nothing and sim schedules are
       untouched.  The hook must not raise and must not run
       transactions. *)
    mutable commit_hook : (int -> unit) option;
  }

  (* Everything a thread keeps on an instance, fetched with a single
     TLS lookup.  [descs] is the thread's descriptor free list and the
     stack of the calls holding descriptors in one array: calls nest
     (a hook's or a body's call ends before the call that ran it), so
     [descs.(0 .. held-1)] are held, innermost last, and the rest are
     free.  Flat nesting means only the innermost can be live. *)
  and thread_ctx = {
    mutable descs : desc array;
    mutable held : int;
    parker : R.parker;
        (** what a blocking [retry] parks on: flat nesting means at
            most one park per thread per instance *)
    mutable early_backups : bool;
        (** [`Early_backup_check] only: the snapshot count as read
            before this thread's write version was drawn *)
    counts : int array;
        (** {!Count}: written by this thread alone, summed by [stats] *)
  }

  (* The handle a body and its nested calls receive: the descriptor,
     stamped with its call.  [check_live] compares the stamp with the
     descriptor's [gen], so a handle is dead between attempts, after
     its call, and once a later call reuses the descriptor. *)
  type tx = { desc : desc; stamp : int }

  (* Creation order defines the canonical instance order (a plain
     Stdlib atomic: instance creation is setup-time, never on a
     transactional path, and charging it would shift sim schedules). *)
  let instance_uids = Atomic.make 0

  (* A thread's first touch of an instance: an empty free list (the
     first call creates its descriptor), registered for [stats]. *)
  let new_ctx ctxs =
    let ctx =
      {
        descs = [||];
        held = 0;
        parker = R.parker ();
        early_backups = false;
        counts = Array.make Count.n 0;
      }
    in
    let rec register () =
      let l = Atomic.get ctxs in
      if not (Atomic.compare_and_set ctxs l (ctx :: l)) then register ()
    in
    register ();
    ctx

  let create ?(cm = Contention.default) ?(elastic_window = 2)
      ?(max_attempts = 10_000) ?(on_exhaustion = `Serialize)
      ?(extend_on_stale = true) ?(versions = 2) ?(gv = `Gv1)
      ?(algo = `Tl2) ?fault () =
    Contention.validate cm;
    if elastic_window < 1 then
      raise (Invalid_operation "elastic_window must be at least 1");
    if versions < 1 then
      raise (Invalid_operation "versions must be at least 1");
    if fault = Some `Skip_validation && algo <> `Norec then
      raise
        (Invalid_operation
           "the `Skip_validation fault is the NOrec conformance self-test \
            knob");
    let ctxs = Atomic.make [] in
    {
      uid = Atomic.fetch_and_add instance_uids 1;
      clock = R.atomic 0;
      multi_inflight = R.atomic 0;
      algo;
      fault;
      waitq = Wq.create ();
      gv;
      serials = R.atomic 0;
      tvar_ids = R.atomic 0;
      serial_token = R.token ();
      active_commits = R.atomic 0;
      cm;
      elastic_window;
      max_attempts;
      on_exhaustion;
      extend_on_stale;
      versions;
      snapshots = R.counter ();
      current = R.tls (fun () -> new_ctx ctxs);
      ctxs;
      base = Array.make Count.n 0;
      recording = false;
      log_rev = [];
      aborted_rev = [];
      telemetry = None;
      commit_hook = None;
    }

  let tvar stm v =
    {
      id = R.fetch_and_add stm.tvar_ids 1;
      lock = R.atomic (Unlocked 0);
      data = R.atomic { value = v; version = 0; older = [] };
    }

  let tvar_id v = v.id

  (* Quiescence probe for the stress harnesses: with no transaction in
     flight, every lock word must read [Unlocked].  Uses the charged
     [R.get] — call it outside measured regions. *)
  let tvar_locked v =
    match R.get v.lock with Locked _ -> true | Unlocked _ -> false

  (* Whether [stm] was created with the deliberate bug [f]. *)
  let has_fault stm f = match stm.fault with Some g -> g == f | None -> false

  let elastic_window_size stm = stm.elastic_window
  let gv_scheme stm = stm.gv
  let algo stm = stm.algo

  let semantics h = h.desc.sem
  let serial h = h.desc.serial

  (* A live handle's descriptor. *)
  let check_live h =
    let tx = h.desc in
    if h.stamp <> tx.gen then
      raise (Invalid_operation "transaction handle used outside its extent");
    tx

  let on_abort h f = Vec.push (check_live h).undo f
  let on_cleanup h f = Vec.push (check_live h).cleanup f

  let record_event tx v ~is_write =
    if tx.stm.recording then
      tx.stm.log_rev <-
        { rec_tx = tx.serial; rec_loc = v.id; rec_write = is_write;
          rec_sem = tx.sem }
        :: tx.stm.log_rev

  let record_aborted tx =
    if tx.stm.recording then tx.stm.aborted_rev <- tx.serial :: tx.stm.aborted_rev

  let abort_with reason = raise (Abort_tx reason)

  (* ------------------------------------------------------------------ *)
  (* Telemetry                                                           *)

  let cause_of_reason : abort_reason -> T.cause = function
    | Lock_busy -> T.Lock_busy
    | Read_invalid -> T.Read_validation
    | Window_broken -> T.Elastic_cut
    | Snapshot_too_old -> T.Snapshot_overwrite
    | Killed -> T.Cm_kill
    | Explicit -> T.Explicit
    (* A [retry] is a user decision like [abort]; what distinguishes it
       — the park and the wakeup — gets its own Park/Wake events, so
       the cause taxonomy (and with it the Agg snapshot layout the
       figure goldens embed) stays unchanged. *)
    | Retry -> T.Explicit

  let set_sink stm s = stm.telemetry <- s
  let sink stm = stm.telemetry
  let set_commit_hook stm h = stm.commit_hook <- h
  let commit_hook stm = stm.commit_hook

  (* Event payloads are built inside the [Some] branch at every call
     site, so with no sink installed the hook costs one load and one
     branch — no allocation, no [R.now ()]. *)
  let send tx (s : T.sink) kind =
    s.T.emit
      {
        T.time = R.now ();
        thread = R.self_id ();
        serial = tx.serial;
        label = tx.label;
        kind;
      }

  let emit_read tx v =
    match tx.stm.telemetry with
    | None -> ()
    | Some s -> send tx s (T.Read { loc = v.id })

  (* Final set sizes, reported on commit and abort events.  The
     elastic window counts as part of the read set: those entries are
     still being validated. *)
  let tx_sets tx =
    (Vec.length tx.r_vars + tx.w_count, Flat_table.length tx.writes)

  (* Abort events report the set sizes at abort time: the accounting
     runs before the lifecycle hooks and the next arming. *)
  let emit_abort tx reason =
    match tx.stm.telemetry with
    | None -> ()
    | Some s ->
        let reads, writes = tx_sets tx in
        send tx s (T.Abort { cause = cause_of_reason reason; reads; writes })

  let emit_park tx locs =
    match tx.stm.telemetry with
    | None -> ()
    | Some s -> send tx s (T.Park { locs })

  let emit_wake tx result =
    match tx.stm.telemetry with
    | None -> ()
    | Some s -> send tx s (T.Wake { timed_out = result = `Timeout })

  (* ------------------------------------------------------------------ *)
  (* Consistent reads                                                    *)

  (* One more of count [i] ({!Count}), on the calling thread's context. *)
  let[@inline] bump ctx i = ctx.counts.(i) <- ctx.counts.(i) + 1

  let rec sum i n = function
    | [] -> n
    | ctx :: rest -> sum i (n + ctx.counts.(i)) rest

  (* Count [i] since the last [reset_stats], summed over every thread's
     context: exact once the counting threads are joined, a recent value
     while they run.  Allocates nothing. *)
  let total stm i = sum i 0 (Atomic.get stm.ctxs) - stm.base.(i)

  (* Instance-wide streaming abort-rate signal feeding the adaptive
     contention manager: aborts per hundred starts since the last
     counter reset.  Plain reads — uncharged, so consulting it never
     perturbs a schedule. *)
  let abort_rate_pct stm =
    let starts = total stm Count.starts in
    if starts = 0 then 0 else 100 * total stm Count.aborts / starts

  (* Spin briefly on a busy lock; under a killing policy ([Greedy], or
     [Adaptive] past its escalation threshold) an older transaction
     kills the younger owner and keeps waiting (the victim aborts at
     its next conflict check, or finishes write-back and releases).

     Under those same policies the spinner also watches its own flag:
     a victim killed while waiting on a busy lock would otherwise burn
     its whole spin budget before noticing — and when the killer is
     the very transaction whose lock it is spinning on, each side is
     waiting for the other until the budget runs out, with the abort
     then mis-attributed to [Lock_busy] instead of [Killed].  Token
     holders are exempt: the serial fallback guarantees its attempt
     commits, so nothing may abort it. *)
  let wait_or_die tx (o : owner) budget =
    if o.serial = tx.serial then
      raise (Invalid_operation "location accessed during its own commit");
    if
      Contention.may_kill tx.stm.cm
      && (not tx.holds_token)
      && R.get tx.owner.killed
    then abort_with Killed;
    if budget > 0 then R.pause 1
    else
      match tx.stm.cm with
      | Contention.Greedy when tx.serial < o.serial ->
          R.set o.killed true;
          R.pause 1
      | Contention.Adaptive _
        when tx.serial < o.serial
             && Contention.kills_at tx.stm.cm ~attempt:tx.attempt
                  ~abort_rate_pct:(abort_rate_pct tx.stm) ->
          R.set o.killed true;
          R.pause 1
      | Contention.Greedy | Contention.Adaptive _ | Contention.Suicide
      | Contention.Backoff _ | Contention.Polite _ ->
          abort_with Lock_busy

  (* Read a (value, version) pair that was current at its version:
     re-read while a commit is in flight on this location.  The spin
     is a top-level recursion with explicit arguments: reads are the
     hottest operation in the system and a per-call closure (or a
     [ref] for the budget) costs a minor allocation on every one. *)
  let rec read_versioned_spin tx v budget =
    let d = R.get v.data in
    match R.get v.lock with
    | Unlocked ver when ver = d.version -> d
    | Unlocked _ -> read_versioned_spin tx v budget
    | Locked o ->
        wait_or_die tx o budget;
        read_versioned_spin tx v (budget - 1)

  let read_versioned tx v =
    read_versioned_spin tx v (Contention.lock_spins tx.stm.cm)

  (* ------------------------------------------------------------------ *)
  (* Validation                                                          *)

  (* One read entry against the current lock state; a location we
     locked ourselves at commit is checked against the version seen at
     lock acquisition. *)
  let rentry_valid tx (v : Obj.t tvar) rversion =
    let e = Flat_table.find tx.writes v.id in
    let locked_version =
      if e >= 0 then
        match Flat_table.value_at tx.writes e with
        | WEntry w -> w.locked_version
      else -1
    in
    if locked_version >= 0 then locked_version = rversion
    else
      match R.get v.lock with
      | Unlocked ver -> ver = rversion
      | Locked _ -> false

  (* Newest-first scans, matching the cons-list iteration order they
     replaced: the charged lock reads happen in the same sequence, and
     an invalid entry short-circuits at the same point. *)
  let reads_valid tx =
    let ok = ref true in
    let i = ref (Vec.length tx.r_vars - 1) in
    while !ok && !i >= 0 do
      if rentry_valid tx (Vec.get tx.r_vars !i) (Vec.get tx.r_vers !i) then
        decr i
      else ok := false
    done;
    !ok

  let window_valid tx =
    let cap = Array.length tx.w_vars in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < tx.w_count do
      let idx = (tx.w_head - !k + cap) mod cap in
      if rentry_valid tx tx.w_vars.(idx) tx.w_vers.(idx) then incr k
      else ok := false
    done;
    !ok

  let validate tx =
    if not (reads_valid tx) then abort_with Read_invalid;
    if not (window_valid tx) then abort_with Window_broken

  (* TinySTM-style timestamp extension: move [rv] forward to the
     current clock if every read so far is still valid, counting it as
     [what].  An elastic cut is the same step: before its first write
     an elastic transaction's read set is empty, so only its window is
     validated, and the read that follows opens a new piece. *)
  let extend tx what =
    let new_rv = R.get tx.stm.clock in
    validate tx;
    tx.rv <- new_rv;
    bump tx.ctx what

  (* ------------------------------------------------------------------ *)
  (* Reads, by semantics                                                 *)

  let push_read tx v version =
    Vec.push tx.r_vars (erase v);
    Vec.push tx.r_vers version

  let push_window tx v version =
    let cap = Array.length tx.w_vars in
    tx.w_head <- (tx.w_head + 1) mod cap;
    tx.w_vars.(tx.w_head) <- erase v;
    tx.w_vers.(tx.w_head) <- version;
    if tx.w_count < cap then tx.w_count <- tx.w_count + 1

  (* A read at the transaction's timestamp: a version past it extends
     the timestamp (TinySTM-style, counted as [what]) and RE-READS — the
     location may have changed again between our data read and the
     extension's clock read, and that change would be invisible to
     commit-time validation when the fast-commit path triggers.  A
     top-level loop (see [read_versioned_spin]). *)
  let rec fetch tx v what =
    let d = read_versioned tx v in
    if d.version <= tx.rv then d
    else begin
      extend tx what;
      fetch tx v what
    end

  (* Read-set logging is a real cost of word-based STMs (an append and
     its cache pressure on every read); charge it so the simulator sees
     the overhead the paper attributes to classic transactions.  The
     elastic window is a fixed ring buffer and charges half as much —
     E-STM's bounded log is one of its design points.  [charge] (not
     [pause]): the cost is the model's, the real append is the
     [push_read] itself. *)
  let log_read tx v d =
    R.charge 2;
    push_read tx v d.version;
    record_event tx v ~is_write:false;
    emit_read tx v;
    d.value

  let classic_read tx v =
    if tx.stm.extend_on_stale then log_read tx v (fetch tx v Count.extensions)
    else
      (* Faithful TL2 (the paper's comparator): a read past the
         transaction's timestamp aborts outright. *)
      let d = read_versioned tx v in
      if d.version <= tx.rv then log_read tx v d else abort_with Read_invalid

  (* Closing mode (after the first write) behaves classically, the
     window joining the validation set; before it, a stale read cuts. *)
  let elastic_read tx v =
    if tx.wrote then log_read tx v (fetch tx v Count.extensions)
    else begin
      let d = fetch tx v Count.cuts in
      R.charge 1;
      push_window tx v d.version;
      record_event tx v ~is_write:false;
      emit_read tx v;
      d.value
    end

  let rec snapshot_chain tx ub = function
    | [] -> abort_with Snapshot_too_old
    | (v, ver) :: rest ->
        if ver <= ub then begin
          bump tx.ctx Count.stale_reads;
          v
        end
        else snapshot_chain tx ub rest

  let rec snapshot_fetch tx ub v =
    let d = R.get v.data in
    if d.version > ub then
      (* Any in-flight commit on this location carries a version
         above [d.version] > [ub], so it cannot affect the value at
         [ub]: the backup chain is usable without looking at the
         lock — this is why snapshots never impede updaters. *)
      snapshot_chain tx ub d.older
    else
      (* The current version fits the snapshot, but a commit already
         holding the lock may have drawn its write version before we
         drew [ub]; taking [d.value] now could observe half of that
         transaction (one location written back, another not yet).
         Wait out the brief write-back and re-read. *)
      match R.get v.lock with
      | Unlocked ver when ver = d.version -> d.value
      | Unlocked _ -> snapshot_fetch tx ub v
      | Locked _ ->
          R.pause 1;
          snapshot_fetch tx ub v

  let snapshot_read tx v =
    let value = snapshot_fetch tx tx.rv v in
    record_event tx v ~is_write:false;
    emit_read tx v;
    value

  (* ------------------------------------------------------------------ *)
  (* NOrec: the value-validation ownership policy                        *)

  (* Wait out an in-flight write-back (odd clock) and return the even
     clock value.  The only charged operations a NOrec transaction
     ever performs on shared metadata are these clock probes — no
     per-location lock word is read or written on any NOrec path. *)
  let norec_stable_clock stm =
    let rec wait () =
      let time = R.get stm.clock in
      if time land 1 = 1 then begin
        R.pause 1;
        wait ()
      end
      else time
    in
    wait ()

  (* Value comparison for NOrec validation, newest entry first like
     the TL2 scans.  Write-back publishes the buffered value itself
     into a fresh versioned record, so a location is unchanged iff its
     current value is physically the recorded one.  Physical equality
     of equal immediates (an ABA re-write of the same int) passes —
     which is exactly NOrec's point: a read set whose {e values} still
     hold is consistent at the new timestamp, whatever versions flowed
     underneath it. *)
  let norec_reads_hold tx =
    let ok = ref true in
    let i = ref (Vec.length tx.r_vars - 1) in
    while !ok && !i >= 0 do
      let v = Vec.get tx.r_vars !i in
      if (R.get v.data).value == Vec.get tx.r_vals !i then decr i
      else ok := false
    done;
    !ok

  (* The elastic window, by contrast, is validated by VERSION, not by
     value.  Value checks are only sound for the {e full} read set: a
     same-value rewrite elsewhere must then show up as a changed value
     somewhere in the prefix.  An elastic cut throws that prefix away,
     so the window's two entries are all the evidence left — and the
     structures' conflict-materialising writes (e.g. the list remove's
     same-value rewrite of the unlinked node, stm_list_set.ml) are
     deliberately value-invisible.  Two adjacent removes would both
     pass a value-checked window and resurrect the second victim.
     E-STM's window soundness argument is stated over versions, and
     every write-back bumps the version, so version equality is
     exactly "no commit has touched this entry since it was read". *)
  let norec_window_holds tx =
    let cap = Array.length tx.w_vars in
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < tx.w_count do
      let idx = (tx.w_head - !k + cap) mod cap in
      if (R.get tx.w_vars.(idx).data).version = tx.w_vers.(idx) then incr k
      else ok := false
    done;
    !ok

  (* NOrec's Validate(): wait for a quiescent clock, value-check the
     read set and the elastic window, and confirm no commit slipped in
     during the check; returns the new validity timestamp.  An elastic
     cut validates here too: before its first write the read set is
     empty, so only the window is checked.  The [`Skip_validation]
     fault returns a fresh timestamp without checking anything — the
     deliberately-broken backend that loses updates, kept so the
     conformance harness can prove it would catch a validation bug. *)
  let norec_validate tx =
    if has_fault tx.stm `Skip_validation then norec_stable_clock tx.stm
    else
      let rec loop () =
        let time = norec_stable_clock tx.stm in
        if not (norec_reads_hold tx) then abort_with Read_invalid;
        if not (norec_window_holds tx) then abort_with Window_broken;
        if R.get tx.stm.clock = time then time else loop ()
      in
      loop ()

  (* A consistent read: take the value and, while the clock has moved
     past the transaction's timestamp, revalidate at the newer time and
     re-take the value.  Revalidate-on-change is the algorithm itself
     under NOrec, not the TinySTM option ([extend_on_stale] governs TL2
     only), so each advance counts as [what]: an extension, or an
     elastic cut. *)
  let rec norec_fetch tx v what =
    let d = R.get v.data in
    if R.get tx.stm.clock = tx.rv then d
    else begin
      tx.rv <- norec_validate tx;
      bump tx.ctx what;
      norec_fetch tx v what
    end

  (* Same charge profile as the TL2 read paths — the read-set append
     is the classic metadata cost whichever policy later validates it
     — so TL2-vs-NOrec figures compare algorithms, not accounting. *)
  let norec_log_read tx v d =
    R.charge 2;
    push_read tx v d.version;
    Vec.push tx.r_vals (Obj.repr d.value);
    record_event tx v ~is_write:false;
    emit_read tx v;
    d.value

  let norec_classic_read tx v =
    norec_log_read tx v (norec_fetch tx v Count.extensions)

  (* Closing mode as under TL2; before the first write a stale read
     cuts: the window's versions must still hold at a newer timestamp,
     and this read opens a new piece. *)
  let norec_elastic_read tx v =
    if tx.wrote then norec_log_read tx v (norec_fetch tx v Count.extensions)
    else begin
      let d = norec_fetch tx v Count.cuts in
      R.charge 1;
      push_window tx v d.version;
      record_event tx v ~is_write:false;
      emit_read tx v;
      d.value
    end

  (* Snapshot reads under NOrec never consult a lock word.  The bound
     [ub] is drawn from a quiescent (even) clock, and a committer
     writes back version [rv + 2] for an [rv] no older than every
     bound drawn while it was in flight — only one committer holds the
     sequence lock at a time, so a current version at or below [ub] is
     a fully-written-back value and can be taken directly; newer
     versions fall back through the backup chain exactly as under
     TL2.  Snapshots never wait and never impede updaters. *)
  let norec_snapshot_read tx v =
    let ub = tx.rv in
    let d = R.get v.data in
    let value =
      if d.version > ub then snapshot_chain tx ub d.older else d.value
    in
    record_event tx v ~is_write:false;
    emit_read tx v;
    value

  let read : type a. tx -> a tvar -> a =
   fun h v ->
    let tx = check_live h in
    match tx.sem with
    | Semantics.Snapshot ->
        (* A snapshot transaction cannot write ([write] refuses), so
           its write set is empty by construction and the
           read-own-writes probe below can never hit.  Skipping it
           matters: a full-structure snapshot fold is thousands of
           reads with nothing but this dispatch between them. *)
        (match tx.stm.algo with
        | `Tl2 -> snapshot_read tx v
        | `Norec -> norec_snapshot_read tx v)
    | sem -> (
        (* Read-own-writes: the signature inside [Flat_table.find]
           screens out unwritten locations without probing the
           table. *)
        let e = Flat_table.find tx.writes v.id in
        if e >= 0 then
          match Flat_table.value_at tx.writes e with
          (* Same id implies same tvar, hence the same value type. *)
          | WEntry w -> (Obj.magic w.wvalue : a)
        else
          match tx.stm.algo with
          | `Tl2 -> (
              match sem with
              | Semantics.Classic -> classic_read tx v
              | Semantics.Elastic -> elastic_read tx v
              | Semantics.Snapshot -> snapshot_read tx v)
          | `Norec -> (
              match sem with
              | Semantics.Classic -> norec_classic_read tx v
              | Semantics.Elastic -> norec_elastic_read tx v
              | Semantics.Snapshot -> norec_snapshot_read tx v))

  let write h v x =
    let tx = check_live h in
    if not (Semantics.allows_write tx.sem) then
      raise (Invalid_operation "write inside a snapshot transaction");
    let e = Flat_table.find tx.writes v.id in
    (if e >= 0 then
       match Flat_table.value_at tx.writes e with
       | WEntry w -> w.wvalue <- Obj.magic x
     else
       ignore
         (Flat_table.add tx.writes v.id
            (WEntry { wvar = v; wvalue = x; locked_version = -1 })));
    tx.wrote <- true;
    match tx.stm.telemetry with
    | None -> ()
    | Some s -> send tx s (T.Write { loc = v.id })

  let release h v =
    let tx = check_live h in
    let id = v.id in
    (* Compact the flat read set in place, preserving append order.
       [r_vals] is parallel to [r_vars] under NOrec and empty under
       TL2 — compact it only when populated. *)
    let has_vals = Vec.length tx.r_vals > 0 in
    let n = Vec.length tx.r_vars in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let rvar = Vec.get tx.r_vars i in
      if rvar.id <> id then begin
        if !j < i then begin
          Vec.set tx.r_vars !j rvar;
          Vec.set tx.r_vers !j (Vec.get tx.r_vers i);
          if has_vals then Vec.set tx.r_vals !j (Vec.get tx.r_vals i)
        end;
        incr j
      end
    done;
    Vec.truncate tx.r_vars !j;
    Vec.truncate tx.r_vers !j;
    if has_vals then Vec.truncate tx.r_vals !j;
    (* Rebuild the window ring without the released location (cold
       path: early release is an expert escape hatch). *)
    if tx.w_count > 0 then begin
      let cap = Array.length tx.w_vars in
      let kept_vars = Array.make cap dummy_tvar in
      let kept_vers = Array.make cap 0 in
      let kept = ref 0 in
      for k = tx.w_count - 1 downto 0 do
        (* oldest to newest *)
        let idx = (tx.w_head - k + cap) mod cap in
        if tx.w_vars.(idx).id <> id then begin
          kept_vars.(!kept) <- tx.w_vars.(idx);
          kept_vers.(!kept) <- tx.w_vers.(idx);
          incr kept
        end
      done;
      Array.blit kept_vars 0 tx.w_vars 0 cap;
      Array.blit kept_vers 0 tx.w_vers 0 cap;
      tx.w_count <- !kept;
      tx.w_head <- !kept - 1
    end

  let abort _tx = abort_with Explicit

  (* Blocking retry: abort and (in the transaction loop, after the
     standard abort accounting) park until a commit writes a wait-set
     location.  Refused where parking could never end or would
     deadlock: snapshot reads are not tracked in a wait set, and a
     token holder blocks every committer — including its waker. *)
  let retry h =
    let tx = check_live h in
    if tx.sem = Semantics.Snapshot then
      raise
        (Invalid_operation
           "retry inside a snapshot transaction: snapshot reads are not \
            tracked in a wait set");
    if tx.holds_token then
      raise
        (Invalid_operation
           "retry inside an irrevocable or serialized transaction: the \
            token holder would block its own waker");
    abort_with Retry

  let waiting stm = Wq.waiting stm.waitq

  let orelse h f g =
    let tx = check_live h in
    (* Savepoint: copies of the read set and window, the write-set
       length plus every buffered value (the branch may overwrite
       entries that predate it), and the hook-vector lengths.
       Deliberately NOT saved: [tx.rv].  A timestamp
       extension or elastic cut performed by the failed branch survives
       into [g] — matching the historical cons-list implementation, and
       conservative: an advanced timestamp can only cause extra aborts
       or extensions, never an inconsistent read. *)
    let s_r_vars = Vec.to_array tx.r_vars in
    let s_r_vers = Vec.to_array tx.r_vers in
    let s_r_vals = Vec.to_array tx.r_vals in
    let s_w_vars = Array.copy tx.w_vars in
    let s_w_vers = Array.copy tx.w_vers in
    let s_w_count = tx.w_count and s_w_head = tx.w_head in
    let s_writes = Flat_table.length tx.writes in
    let s_wvalues =
      Array.init s_writes (fun e ->
          match Flat_table.value_at tx.writes e with
          | WEntry w -> WSave (w, w.wvalue))
    in
    let s_wrote = tx.wrote in
    let s_undo = Vec.length tx.undo in
    let s_cleanup = Vec.length tx.cleanup in
    try f h
    with Abort_tx ((Explicit | Retry) as branch_exit) ->
      (* A {e retrying} branch falls through to [g] like an explicit
         rollback, but its reads must survive into the final wait set:
         if [g] also retries, the transaction waits on the UNION of
         both branches' read sets, so a write enabling either branch
         wakes it.  Accumulate them (flat reads + window, with their
         versions) before the savepoint rollback discards them.  The
         [Explicit] path adds nothing — savepoint restoration leaks no
         rolled-back entries into a later wait set — and every other
         reason (a conflict abort) propagates past the savepoint,
         restarting the whole transaction rather than falling through. *)
      if branch_exit = Retry then begin
        for i = 0 to Vec.length tx.r_vars - 1 do
          Vec.push tx.retry_vars (Vec.get tx.r_vars i);
          Vec.push tx.retry_vers (Vec.get tx.r_vers i)
        done;
        let cap = Array.length tx.w_vars in
        for k = 0 to tx.w_count - 1 do
          let idx = (tx.w_head - k + cap) mod cap in
          Vec.push tx.retry_vars tx.w_vars.(idx);
          Vec.push tx.retry_vers tx.w_vers.(idx)
        done
      end;
      (* Compensate the branch's eager (boosted) effects, release its
         abstract locks (newest first), then restore the buffered
         state. *)
      for i = Vec.length tx.undo - 1 downto s_undo do
        (Vec.get tx.undo i) ()
      done;
      for i = Vec.length tx.cleanup - 1 downto s_cleanup do
        (Vec.get tx.cleanup i) ()
      done;
      Vec.truncate tx.undo s_undo;
      Vec.truncate tx.cleanup s_cleanup;
      Vec.load tx.r_vars s_r_vars;
      Vec.load tx.r_vers s_r_vers;
      Vec.load tx.r_vals s_r_vals;
      Array.blit s_w_vars 0 tx.w_vars 0 (Array.length s_w_vars);
      Array.blit s_w_vers 0 tx.w_vers 0 (Array.length s_w_vers);
      tx.w_count <- s_w_count;
      tx.w_head <- s_w_head;
      Flat_table.truncate tx.writes s_writes;
      Array.iter (fun (WSave (w, v)) -> w.wvalue <- v) s_wvalues;
      tx.wrote <- s_wrote;
      g h

  (* ------------------------------------------------------------------ *)
  (* Commit                                                              *)

  (* One commit for one member instance or several.  A transaction
     committing alone is the base case; a cross-instance commit (the
     sharded store's two-phase commit, DESIGN §S20) is the same phases
     run over every member in canonical instance order, plus the
     [multi_inflight] fence, validation of every member (read-only
     ones too) and publication of every member before any intent is
     released:

     - phase 1 takes each member's commit intent: TL2 write locks in
       ascending location order, the NOrec sequence lock;
     - phase 1b validates each member — or, alone, proves validation
       unnecessary — drawing a TL2 writer's version first;
     - phase 2 fires the durability hooks, publishes every member's
       values, and only then releases the intents.

     A cross-instance member never blocks on foreign state while
     holding an intent.  Without the fence, a third transaction could
     close a serialization cycle through an instance the commit only
     reads — commit on a member after our validation, be observed by a
     reader that then validates against another member we have not
     written back yet (the privatization-safety argument, DESIGN
     §S20).  So every member raises [multi_inflight] before phase 1,
     validation treats a foreign raised flag as a conflict, and a
     cross-instance snapshot refuses to draw a bound while one is
     raised.  Alone, a transaction issues none of that traffic. *)

  let release_lock (WEntry w) =
    if w.locked_version >= 0 then begin
      R.set w.wvar.lock (Unlocked w.locked_version);
      w.locked_version <- -1
    end

  (* Every commit phase visits the write set in ascending location
     order, through a loop over the table's reused order array: no
     per-commit closure. *)
  let[@inline] wentry tx order i = Flat_table.value_at tx.writes order.(i)

  let release_all tx =
    let order = Flat_table.ascending tx.writes in
    for i = 0 to Flat_table.length tx.writes - 1 do
      release_lock (wentry tx order i)
    done

  (* The attempt's owner, created when it takes its first lock: the
     one place an owner is published. *)
  let owner tx =
    if tx.owner == dummy_owner then
      tx.owner <- { serial = tx.serial; killed = R.atomic false };
    tx.owner

  (* Lock one location, spinning while it is busy (a top-level loop
     with the budget as an argument, as [read_versioned_spin]). *)
  let rec acquire tx w budget =
    match R.get w.wvar.lock with
    | Unlocked ver as l ->
        if R.cas w.wvar.lock l (Locked (owner tx)) then begin
          w.locked_version <- ver;
          match tx.stm.telemetry with
          | None -> ()
          | Some s -> send tx s (T.Lock_acquire { loc = w.wvar.id })
        end
        else acquire tx w budget
    | Locked o ->
        wait_or_die tx o budget;
        acquire tx w (budget - 1)

  (* Keep at most [n] elements of a backup chain. *)
  let rec take_chain n l =
    if n <= 0 then []
    else match l with [] -> [] | x :: rest -> x :: take_chain (n - 1) rest

  (* Whether some snapshot call is running on [stm]: a write commit
     backs up what it overwrites only then.  Read after the commit's
     write version is drawn; DESIGN §S23 has the ordering argument. *)
  let[@inline] snapshots_running stm = R.read_counter stm.snapshots > 0

  (* The [`Early_backup_check] fault reads the count just before the
     write version is drawn instead, across the draw's scheduling
     point: the misordering the [snapshot-backup] model checks must
     catch. *)
  let[@inline] early_backup_check tx =
    if has_fault tx.stm `Early_backup_check then
      tx.ctx.early_backups <- snapshots_running tx.stm

  (* NOrec commit intent for a transaction committing alone: CAS the
     clock from the transaction's timestamp to odd; a failed CAS means
     someone committed, so revalidate (read set by value, window by
     version) and retry at the new timestamp.  A first-try CAS is this
     policy's fast path: the reads were valid at [rv] and nothing has
     committed since, so no commit-time validation is needed at all. *)
  let rec norec_acquire_seqlock tx first =
    if R.cas tx.stm.clock tx.rv (tx.rv + 1) then begin
      if first then bump tx.ctx Count.fast_commits
    end
    else begin
      tx.rv <- norec_validate tx;
      norec_acquire_seqlock tx false
    end

  (* Seize a NOrec member's sequence lock without blocking.  A CAS from
     the current even clock both locks out every other commit on that
     instance and freezes its read validity; when the clock moved past
     the member's timestamp, the read set is value-checked under the
     held lock (the clock cannot move again), releasing on failure. *)
  let multi_norec_seize tx =
    let stm = tx.stm in
    let rec go () =
      let time = R.get stm.clock in
      if time land 1 = 1 then abort_with Lock_busy
      else if R.cas stm.clock time (time + 1) then begin
        if
          time <> tx.rv
          && (not (has_fault stm `Skip_validation))
          && not (norec_reads_hold tx && norec_window_holds tx)
        then begin
          R.set stm.clock time;
          abort_with Read_invalid
        end;
        tx.rv <- time
      end
      else go ()
    in
    go ()

  (* Value-validate a read-only NOrec member at a pinned even clock,
     never waiting: while a multi holds intents on other members,
     waiting out another instance's write-back could deadlock two
     multis against each other, so an in-flight commit aborts this
     attempt instead (the retry loop, and ultimately the token
     escalation, restore progress). *)
  let multi_norec_validate tx =
    let stm = tx.stm in
    if not (has_fault stm `Skip_validation) then begin
      let time = R.get stm.clock in
      if time land 1 = 1 then abort_with Lock_busy;
      if not (norec_reads_hold tx) then abort_with Read_invalid;
      if not (norec_window_holds tx) then abort_with Window_broken;
      if R.get stm.clock <> time then abort_with Read_invalid;
      tx.rv <- time
    end

  (* Phase 1 for one member.  Ascending id order keeps TL2 locking
     deadlock-free; a token holder skips the kill check: a straggling
     [Greedy] killer must not be able to abort the guaranteed serial
     attempt.  NOrec blocks for its sequence lock only when committing
     alone — a cross-instance member already holds intents elsewhere.
     A NOrec writer's version is fixed by the seized timestamp. *)
  let[@inline] intent tx =
    match tx.stm.algo with
    | `Tl2 ->
        let order = Flat_table.ascending tx.writes in
        let spins = Contention.lock_spins tx.stm.cm in
        for i = 0 to Flat_table.length tx.writes - 1 do
          match wentry tx order i with WEntry w -> acquire tx w spins
        done;
        if (not tx.holds_token) && R.get tx.owner.killed then
          abort_with Killed
    | `Norec ->
        if not (Flat_table.is_empty tx.writes) then begin
          early_backup_check tx;
          if tx.alone then norec_acquire_seqlock tx true
          else multi_norec_seize tx;
          tx.wv <- tx.rv + 2
        end

  (* Draw a TL2 writer's version, then validate — or prove validation
     unnecessary.  GV1 is TL2's baseline: every write commit
     fetch-and-adds the shared clock.  GV4 ("pass on failure") CASes
     the clock once; when the CAS loses, another committer already
     advanced the clock, and that newer value is adopted as this
     commit's write version without retrying — two commits may then
     share a wv, which is safe because per-location locks already
     serialise overlapping write sets.  The wv = rv + 1 fast path
     (nothing committed since this transaction started, reads cannot
     have been invalidated) requires the clock increment to be
     exclusively ours: a GV4 adopter always validates, since the
     committer it shares wv with could have invalidated its reads.  A
     cross-instance member always validates. *)
  let[@inline] tl2_version tx =
    let stm = tx.stm in
    early_backup_check tx;
    let exclusive =
      match stm.gv with
      | `Gv1 ->
          tx.wv <- R.fetch_and_add stm.clock 1 + 1;
          true
      | `Gv4 ->
          let cur = R.get stm.clock in
          if R.cas stm.clock cur (cur + 1) then begin
            tx.wv <- cur + 1;
            true
          end
          else begin
            tx.wv <- R.get stm.clock;
            false
          end
    in
    if tx.alone && exclusive && tx.wv = tx.rv + 1 then
      bump tx.ctx Count.fast_commits
    else validate tx

  (* Phase 1b for one member, every intent held.  A seized NOrec
     member was already value-checked under its sequence lock. *)
  let[@inline] validate_member tx =
    if (not tx.alone) && R.get tx.stm.multi_inflight > 1 then
      abort_with Lock_busy;
    match tx.stm.algo with
    | `Tl2 ->
        if Flat_table.is_empty tx.writes then validate tx else tl2_version tx
    | `Norec -> if tx.wv < 0 then multi_norec_validate tx

  (* A failed phase 1: TL2 locks go back to their pre-lock versions, a
     seized NOrec sequence lock back to the timestamp it was seized
     at. *)
  let[@inline] abandon tx =
    match tx.stm.algo with
    | `Tl2 -> release_all tx
    | `Norec -> if tx.wv >= 0 then R.set tx.stm.clock tx.rv

  (* The durability hook fires after validation succeeds and before
     write-back: the intents are still held, so no dependent commit
     (nor, across instances, a snapshot bound) can start until this
     commit's records are handed to the logger — hook invocation order
     is serialization order. *)
  let[@inline] fire_commit_hook tx =
    if tx.wv >= 0 then
      match tx.stm.commit_hook with None -> () | Some h -> h tx.wv

  (* Publish a member's buffered writes at its write version.  While a
     snapshot call runs on the instance, each location's previous
     (value, version) is pushed onto its backup chain; with none
     running the chain is dropped, so an overwritten value is garbage
     at once (Perelman, Fan & Keidar, PODC'10: keep a version only
     while a running read-only transaction may need it).  The count is
     read once per member, after its write version was drawn.  Alone,
     a TL2 transaction unlocks each location as it writes it back; a
     cross-instance member keeps every lock until all members have
     published (see [release_intent]).  NOrec writes back under its
     sequence lock: no per-location lock word is ever acquired, so no
     [Lock_acquire] event fires and no lock spin can happen. *)
  let[@inline] write_back tx =
    if tx.wv >= 0 then begin
      let depth =
        if
          if has_fault tx.stm `Early_backup_check then tx.ctx.early_backups
          else snapshots_running tx.stm
        then tx.stm.versions - 1
        else 0
      in
      let unlock = tx.alone && tx.stm.algo = `Tl2 in
      let order = Flat_table.ascending tx.writes in
      for i = 0 to Flat_table.length tx.writes - 1 do
        match wentry tx order i with
        | WEntry w ->
            (* loaded even when no backup is kept: a charged access *)
            let d = R.get w.wvar.data in
            R.set w.wvar.data
              {
                value = w.wvalue;
                version = tx.wv;
                older =
                  (if depth = 0 then []
                   else take_chain depth ((d.value, d.version) :: d.older));
              };
            record_event tx w.wvar ~is_write:true;
            if unlock then begin
              R.set w.wvar.lock (Unlocked tx.wv);
              w.locked_version <- -1
            end
      done
    end

  (* Release a published member's intent: a cross-instance TL2
     member's locks, NOrec's sequence lock — releasing it publishes the
     new clock. *)
  let[@inline] release_intent tx =
    if tx.wv >= 0 then
      match tx.stm.algo with
      | `Tl2 ->
          if not tx.alone then begin
            let order = Flat_table.ascending tx.writes in
            for i = 0 to Flat_table.length tx.writes - 1 do
              match wentry tx order i with
              | WEntry w ->
                  R.set w.wvar.lock (Unlocked tx.wv);
                  w.locked_version <- -1
            done
          end
      | `Norec -> R.set tx.stm.clock tx.wv

  (* Admission: while some serialized transaction (irrevocable or
     fallback) holds a member's token, write commits stall here —
     before taking any intent, so there is no hold-and-wait — and then
     join the in-flight count [enter_serial_mode] drains. *)
  let[@inline] admit tx =
    if not tx.holds_token then
      while R.token_held tx.stm.serial_token do
        R.pause 4
      done

  let[@inline] join tx =
    ignore (R.fetch_and_add tx.stm.active_commits 1);
    if not tx.alone then ignore (R.fetch_and_add tx.stm.multi_inflight 1)

  let[@inline] leave tx =
    if not tx.alone then ignore (R.fetch_and_add tx.stm.multi_inflight (-1));
    ignore (R.fetch_and_add tx.stm.active_commits (-1))

  (* Wake parked [retry]ers whose wait sets this commit may have
     enabled.  Runs after write-back, with every lock released.  The
     guard is an uncharged counter read, so the overwhelmingly common
     no-waiter case costs nothing and perturbs no schedule (the figure
     goldens depend on that).  TL2 notifies per written location;
     NOrec has no per-location metadata, so its waiters sit on one
     coarse list and every write commit wakes them all — conservative
     (each wake re-validates by re-running) but never lost. *)
  let notify_waiters tx =
    if Wq.waiting tx.stm.waitq > 0 then
      match tx.stm.algo with
      | `Tl2 ->
          let order = Flat_table.ascending tx.writes in
          for i = 0 to Flat_table.length tx.writes - 1 do
            match wentry tx order i with
            | WEntry w -> Wq.notify tx.stm.waitq w.wvar.id
          done
      | `Norec -> Wq.notify_global tx.stm.waitq

  (* Read-only transactions of every semantics commit for free — no
     clock fetch-and-add, no locks: every read was validated against a
     single coherent timestamp when it happened (a lone member's armed
     clock, or a cross-instance snapshot's bound vector).  Read-only
     members of a cross-instance update still go through validation:
     their timestamps were drawn independently. *)
  let ro_commit tx =
    bump tx.ctx Count.ro_commits;
    match tx.stm.telemetry with
    | None -> ()
    | Some s ->
        let reads, _ = tx_sets tx in
        send tx s (T.Commit { reads; writes = 0; lock_hold = 0 })

  (* A published member: its commit event, then the wakes of the
     waiters its writes may have enabled. *)
  let committed t_acquire tx =
    (match tx.stm.telemetry with
    | None -> ()
    | Some s ->
        let reads, writes = tx_sets tx in
        let lock_hold = R.now () - t_acquire in
        send tx s (T.Commit { reads; writes; lock_hold }));
    if tx.wv >= 0 then notify_waiters tx

  (* Each phase runs on every member in canonical order: a direct call
     for a lone member (passing the phase to a helper would make it an
     indirect call on the hottest path there is). *)
  let commit lead =
    let one = lead.alone and txs = lead.members in
    if
      if one then Flat_table.is_empty lead.writes
      else lead.sem = Semantics.Snapshot
    then (if one then ro_commit lead else Array.iter ro_commit txs)
    else begin
      if one then admit lead else Array.iter admit txs;
      if one then join lead else Array.iter join txs;
      let t_acquire =
        match lead.stm.telemetry with None -> 0 | Some _ -> R.now ()
      in
      match
        if one then intent lead else Array.iter intent txs;
        if one then validate_member lead
        else Array.iter validate_member txs
      with
      | exception e ->
          if one then abandon lead else Array.iter abandon txs;
          if one then leave lead else Array.iter leave txs;
          raise e
      | () ->
          if one then fire_commit_hook lead
          else Array.iter fire_commit_hook txs;
          if one then write_back lead else Array.iter write_back txs;
          if one then release_intent lead
          else Array.iter release_intent txs;
          if one then leave lead else Array.iter leave txs;
          if one then committed t_acquire lead
          else Array.iter (committed t_acquire) txs
    end

  (* ------------------------------------------------------------------ *)
  (* The transaction loop                                                *)

  (* The [wake] of a call that parks: compared physically, so a call
     that cannot register pays no option box. *)
  let no_wake () = ()

  let new_desc stm ctx =
    {
      stm;
      ctx;
      call = 0;
      gen = -1;
      serial = -1;
      sem = Semantics.Classic;
      label = "";
      owner = dummy_owner;
      rv = 0;
      wv = -1;
      alone = true;
      r_vars = Vec.create dummy_tvar;
      r_vers = Vec.create 0;
      r_vals = Vec.create (Obj.repr ());
      w_vars = Array.make stm.elastic_window dummy_tvar;
      w_vers = Array.make stm.elastic_window 0;
      w_count = 0;
      w_head = -1;
      writes = Flat_table.create dummy_wentry;
      wrote = false;
      undo = Vec.create nop;
      cleanup = Vec.create nop;
      retry_vars = Vec.create dummy_tvar;
      retry_vers = Vec.create 0;
      attempt = 0;
      holds_token = false;
      members = [||];
      cap = 0;
      deadline = None;
      escalates = false;
      irrevocable = false;
      wake = no_wake;
    }

  (* Whether the calling thread runs a live transaction on [ctx]'s
     instance, and which: the innermost held descriptor, when one of
     its call's attempts runs. *)
  let[@inline] in_tx ctx = ctx.held > 0 && ctx.descs.(ctx.held - 1).gen >= 0
  let[@inline] innermost ctx = ctx.descs.(ctx.held - 1)

  (* Flat nesting: a call inside a live transaction on the same
     instance joins it, and the outer semantics prevails (Section
     4.2). *)
  let nest ctx sem =
    let outer = innermost ctx in
    let (_ : Semantics.t) = Semantics.compose ~outer:outer.sem ~inner:sem in
    outer

  (* A handle on [tx]'s current call. *)
  let handle tx = { desc = tx; stamp = tx.call }

  (* A call's descriptor on [ctx], from the free list (or new when every
     descriptor is held), stamped for the call. *)
  let take ~alone stm ctx sem label =
    let n = ctx.held in
    if n = Array.length ctx.descs then
      ctx.descs <- Array.append ctx.descs [| new_desc stm ctx |];
    let tx = ctx.descs.(n) in
    ctx.held <- n + 1;
    tx.call <- tx.call + 1;
    tx.sem <- sem;
    (* A pooled descriptor lives in the major heap, where storing a
       pointer costs a write barrier: skip the store when the field
       already holds the value, as it does for a call site's label. *)
    if tx.label != label then tx.label <- label;
    tx.alone <- alone;
    tx

  (* Back to the free list, on every exit of the call. *)
  let give_back tx = tx.ctx.held <- tx.ctx.held - 1

  (* Every member's, dropping the settings that could keep a caller's
     closure or another instance's descriptors alive in the pool. *)
  let give_back_all lead =
    if lead.alone then give_back lead
    else begin
      Array.iter give_back lead.members;
      lead.members <- [||]
    end;
    if lead.wake != no_wake then lead.wake <- no_wake

  (* Arm the descriptor for one attempt: a fresh serial and timestamp
     (the same charged operations, in the same order, as the
     allocate-per-attempt scheme this replaces), with every set
     cleared but its backing store retained. *)
  let arm_tx tx =
    let serial = R.fetch_and_add tx.stm.serials 1 in
    tx.serial <- serial;
    if tx.owner != dummy_owner then tx.owner <- dummy_owner;
    (tx.rv <-
       (* NOrec must start from a quiescent clock: an odd timestamp
          could never pass the read-time clock check or the commit
          CAS.  The TL2 arm is the identical single charged clock read
          it has always been. *)
       match tx.stm.algo with
       | `Tl2 -> R.get tx.stm.clock
       | `Norec -> norec_stable_clock tx.stm);
    tx.wv <- -1;
    Vec.clear tx.r_vars;
    Vec.clear tx.r_vers;
    Vec.clear tx.r_vals;
    if tx.w_head >= 0 then
      Array.fill tx.w_vars 0 (Array.length tx.w_vars) dummy_tvar;
    tx.w_count <- 0;
    tx.w_head <- -1;
    Flat_table.reset tx.writes;
    tx.wrote <- false;
    Vec.clear tx.undo;
    Vec.clear tx.cleanup;
    Vec.clear tx.retry_vars;
    Vec.clear tx.retry_vers;
    tx.gen <- tx.call

  let count_of_reason = function
    | Lock_busy -> Count.lock_busy
    | Read_invalid -> Count.read_invalid
    | Window_broken -> Count.window_broken
    | Snapshot_too_old -> Count.snapshot_too_old
    | Killed -> Count.killed
    | Explicit -> Count.explicit_aborts
    | Retry -> Count.retry_waits

  (* Acquire the global serialization token and wait for in-flight
     write commits to drain: afterwards no transaction can commit
     until the token is released, so the holder's reads can (almost)
     never be invalidated.  "Almost": a committer that passed the
     token stall before we took the token may still be drained here
     while holding locks, so one serialized attempt can lose a race
     and retry — see [after_abort], which re-enters before that retry
     so the second attempt truly runs alone. *)
  let enter_serial_mode stm =
    let rec take () =
      if not (R.token_try_acquire stm.serial_token) then begin
        R.pause 8;
        take ()
      end
    in
    take ();
    while R.get stm.active_commits > 0 do
      R.pause 2
    done

  let exit_serial_mode stm = R.token_release stm.serial_token

  let emit_begin tx attempt =
    match tx.stm.telemetry with
    | None -> ()
    | Some s ->
        send tx s (T.Begin { sem = Semantics.to_string tx.sem; attempt })

  let emit_serialize tx attempt =
    match tx.stm.telemetry with
    | None -> ()
    | Some s -> send tx s (T.Serialize { attempt })

  let emit_budget_exhausted tx ~attempts reason =
    match tx.stm.telemetry with
    | None -> ()
    | Some s ->
        send tx s
          (T.Budget_exhausted { attempts; cause = cause_of_reason reason })

  (* Lifecycle hooks, after the attempt's extent: compensations
     (newest first) when aborted, then finalisers (newest first).  A
     hook may itself run a transaction, on any member: the call still
     holds its descriptors and their handles are dead, so that
     transaction takes a descriptor of its own and every hook
     registered by this attempt runs exactly once.  Cleared afterwards,
     so a pooled descriptor keeps no hook alive. *)
  let run_hooks tx ~aborted =
    if not (Vec.is_empty tx.undo && Vec.is_empty tx.cleanup) then begin
      if aborted then
        for i = Vec.length tx.undo - 1 downto 0 do
          (Vec.get tx.undo i) ()
        done;
      for i = Vec.length tx.cleanup - 1 downto 0 do
        (Vec.get tx.cleanup i) ()
      done;
      Vec.clear tx.undo;
      Vec.clear tx.cleanup
    end

  type 'a outcome =
    | Committed of 'a
    | Exhausted of { reason : abort_reason; attempts : int }
    | Deadline_exceeded of { reason : abort_reason; attempts : int }

  (* The wait set of a [retry]: every location the attempt read — the
     flat read set, the elastic window, and the reads accumulated from
     retrying [orelse] branches — each with the version it was read at,
     plus the NOrec validity timestamp.  Copied out of the descriptor:
     the registered wait outlives the next arming, which clears it. *)
  let capture_wait_set tx =
    let n = Vec.length tx.r_vars in
    let cap = Array.length tx.w_vars in
    let extra = Vec.length tx.retry_vars in
    let total = n + tx.w_count + extra in
    let vars = Array.make total dummy_tvar in
    let vers = Array.make total 0 in
    for i = 0 to n - 1 do
      vars.(i) <- Vec.get tx.r_vars i;
      vers.(i) <- Vec.get tx.r_vers i
    done;
    for k = 0 to tx.w_count - 1 do
      let idx = (tx.w_head - k + cap) mod cap in
      vars.(n + k) <- tx.w_vars.(idx);
      vers.(n + k) <- tx.w_vers.(idx)
    done;
    for i = 0 to extra - 1 do
      vars.(n + tx.w_count + i) <- Vec.get tx.retry_vars i;
      vers.(n + tx.w_count + i) <- Vec.get tx.retry_vers i
    done;
    (vars, vers, tx.rv)

  (* A [retry]'s registered wait: its waiter, whose wake calls the
     waiting call's at most once, and not once the wait is cancelled.
     A blocking [retry]'s wake unparks its thread; a call with a wake
     ([try_atomically_one ~wake]) gets the wait back. *)
  type wait = { wstm : t; waiter : Wq.waiter; fired : bool Atomic.t }

  exception Waiting of wait

  let cancel_wait w =
    Atomic.set w.fired true;
    Wq.cancel w.wstm.waitq w.waiter

  (* Register a wait with [wake] on the wait set of an attempt that
     retried, then re-validate the set: the one step every wait takes.
     [Some w] means nothing in the set changed since the attempt read
     it, so the caller may wait for [w]'s wake; [None] that a commit
     already changed it, so the wait is cancelled and the caller
     re-runs now.  The order is what makes it lost-wakeup free: a
     commit that finished before registration left a version (TL2) or
     clock (NOrec) change behind, which the validation sees, and a
     commit after registration finds the waiter in the table and calls
     its wake.  TL2 validates each wait-set entry against its lock word
     ([Locked] counts as changed: the committer is writing that very
     location); NOrec can only compare the clock against the timestamp
     the aborted attempt was valid at — coarser, but wrong only towards
     extra re-runs.  The [`Skip_wake_validation] fault skips the
     validation: the classic lost-wakeup bug, kept so the Explore
     model check can prove it would catch one: [retry-lost-wakeup]
     and [retry-loop-wake] schedule a commit between the attempt's
     last read and this registration, and must find the lost wake. *)
  let register_wait stm wake ~wvars ~wvers ~wrv =
    let fired = Atomic.make false in
    let once () = if not (Atomic.exchange fired true) then wake () in
    let w = { wstm = stm; waiter = Wq.waiter once; fired } in
    Wq.register stm.waitq w.waiter
      (match stm.algo with
      | `Tl2 -> Array.map (fun (v : Obj.t tvar) -> v.id) wvars
      | `Norec -> [||]);
    if
      has_fault stm `Skip_wake_validation
      ||
      match stm.algo with
      | `Tl2 ->
          let rec unchanged i =
            i = Array.length wvars
            || (match R.get wvars.(i).lock with
               | Unlocked ver -> ver = wvers.(i)
               | Locked _ -> false)
               && unchanged (i + 1)
          in
          unchanged 0
      | `Norec -> R.get stm.clock = wrv
    then Some w
    else begin
      cancel_wait w;
      None
    end

  (* The bound vector of a cross-instance snapshot, from a double
     collect: pass 1 draws every member's stable clock while that
     member has no serial-token holder and no cross-instance commit in
     flight; pass 2 re-checks that every member's clock and both flags
     are unchanged.  Success means every bound was simultaneously
     current throughout a common interval (between the end of pass 1
     and the start of pass 2), so the vector is a consistent cut of
     the whole store; per-location in-flight write-backs below a bound
     are absorbed by the ordinary snapshot reads.  A member created
     with the [`No_stabilize] fault skips its pass-2 re-check — the
     deliberately-torn ordering the Explore model check must catch. *)
  let snapshot_collect txs =
    let k = Array.length txs in
    let stable_clock (stm : t) =
      match stm.algo with
      | `Tl2 -> R.get stm.clock
      | `Norec -> norec_stable_clock stm
    in
    let quiescent (stm : t) =
      (not (R.token_held stm.serial_token)) && R.get stm.multi_inflight = 0
    in
    let rec collect () =
      for i = 0 to k - 1 do
        let stm = txs.(i).stm in
        while not (quiescent stm) do
          R.pause 2
        done;
        txs.(i).rv <- stable_clock stm
      done;
      let ok = ref true in
      for i = 0 to k - 1 do
        let tx = txs.(i) in
        if
          not
            (has_fault tx.stm `No_stabilize
            || (quiescent tx.stm && stable_clock tx.stm = tx.rv))
        then ok := false
      done;
      if not !ok then begin
        R.pause 2;
        collect ()
      end
    in
    collect ()

  (* Arm every member for attempt [n] and enter its extent.  A
     cross-instance snapshot then replaces the armed clocks with a
     consistent bound vector (under the tokens the armed clocks already
     are one: nothing can commit). *)
  let arm_member n ~token tx =
    arm_tx tx;
    tx.attempt <- n;
    tx.holds_token <- token;
    bump tx.ctx Count.starts;
    emit_begin tx n;
    if token then emit_serialize tx n

  let[@inline] arm lead n ~token =
    if lead.alone then arm_member n ~token lead
    else begin
      Array.iter (arm_member n ~token) lead.members;
      if (not token) && lead.sem = Semantics.Snapshot then
        snapshot_collect lead.members
    end

  (* Leave the attempt's extent; a serialized attempt then releases the
     tokens (reverse canonical order) — before any hook runs: a hook
     may itself run a transaction on a member, and a write commit made
     from under the token would stall on the holder, ourselves. *)
  let leave_extent tx = tx.gen <- -1

  let[@inline] finish lead ~token =
    if lead.alone then begin
      leave_extent lead;
      if token then exit_serial_mode lead.stm
    end
    else begin
      let txs = lead.members in
      Array.iter leave_extent txs;
      if token then
        for i = Array.length txs - 1 downto 0 do
          exit_serial_mode txs.(i).stm
        done
    end

  let enter_serial lead =
    if lead.alone then enter_serial_mode lead.stm
    else Array.iter (fun tx -> enter_serial_mode tx.stm) lead.members

  let account_commit tx =
    bump tx.ctx Count.commits;
    if not tx.alone then bump tx.ctx Count.multi_commits;
    if tx.holds_token then bump tx.ctx Count.serial_commits

  (* Abort accounting — history record, counters, telemetry — always
     runs before the lifecycle hooks, on every exit path: a hook may
     itself raise (or run a transaction that inspects the stats), and
     an attempt must never vanish from the books because its hook
     blew up. *)
  let account_abort_member reason tx =
    record_aborted tx;
    bump tx.ctx Count.aborts;
    bump tx.ctx (count_of_reason reason);
    emit_abort tx reason

  let account_abort lead reason =
    if lead.alone then account_abort_member reason lead
    else Array.iter (account_abort_member reason) lead.members

  let exhausted_member n reason tx =
    bump tx.ctx Count.budget_exhaustions;
    emit_budget_exhausted tx ~attempts:n reason

  let exhausted lead n reason =
    if lead.alone then exhausted_member n reason lead
    else Array.iter (exhausted_member n reason) lead.members

  let[@inline] run_all_hooks lead ~aborted =
    if lead.alone then run_hooks lead ~aborted
    else Array.iter (fun tx -> run_hooks tx ~aborted) lead.members

  let past_deadline = function Some d -> R.now () >= d | None -> false

  (* One attempt of the call [lead] leads: [body arg] — the handle for
     a body that takes one, [()] for a thunk — then the commit. *)
  let rec attempt lead body arg n ~token =
    arm lead n ~token;
    match
      let result = body arg in
      commit lead;
      result
    with
    | result ->
        finish lead ~token;
        if lead.alone then account_commit lead
        else Array.iter account_commit lead.members;
        run_all_hooks lead ~aborted:false;
        Committed result
    | exception Abort_tx reason ->
        (* The wait set must outlive the next arming; copy it before
           anything runs. *)
        let wait =
          if reason = Retry && lead.alone then Some (capture_wait_set lead)
          else None
        in
        account_abort lead reason;
        finish lead ~token;
        run_all_hooks lead ~aborted:true;
        after_abort lead body arg n reason wait ~token
    | exception e ->
        (* User exception: discard effects, count the attempt as
           aborted, propagate. *)
        account_abort lead Explicit;
        finish lead ~token;
        run_all_hooks lead ~aborted:true;
        raise e

  (* After an aborted attempt [n]: give up, serialize, park, or back
     off and go round again.  Under the tokens, only a committer that
     had already passed the token stall when they were taken can abort
     an attempt; [enter_serial_mode] drains it, so the re-entered
     retry runs alone.  [Explicit] aborts never serialize — the token
     cannot change a user's decision to abort — and a deadline
     outranks the budget: the caller asked to be done by then. *)
  and after_abort lead body arg n reason wait ~token =
    let stm = lead.stm in
    if token then
      if lead.irrevocable then
        raise
          (Invalid_operation "explicit abort inside an irrevocable transaction")
      else if reason = Explicit then Exhausted { reason; attempts = n }
      else begin
        enter_serial lead;
        attempt lead body arg (n + 1) ~token:true
      end
    else
      let serializes = lead.escalates && reason <> Explicit && reason <> Retry in
      match wait with
      | None when reason = Retry ->
          raise
            (Invalid_operation
               "retry inside a cross-instance transaction (a parked waiter \
                cannot span instances)")
      | Some (wvars, _, _) when Array.length wvars = 0 ->
          raise
            (Invalid_operation
               "retry with an empty read set would wait forever")
      | _ when past_deadline lead.deadline ->
          Deadline_exceeded { reason; attempts = n }
      | _ when n >= lead.cap ->
          exhausted lead n reason;
          if serializes then escalate lead body arg (n + 1)
          else Exhausted { reason; attempts = n }
      | Some (wvars, wvers, wrv) -> (
          (* A [retry] waiter registers its wait, then waits for the
             wake.  A blocking call parks its thread: the parker is
             prepared (stale permits cleared) before the registration,
             so a wake that runs first leaves a permit and the park
             returns at once.  A call with a wake hands the wait to its
             caller instead.  Never serialized: a parked token holder
             would stall every committer, including its own waker. *)
          let ctx = lead.ctx in
          let blocking = lead.wake == no_wake in
          if blocking then R.park_prepare ctx.parker;
          let wake =
            if blocking then fun () -> R.unpark ctx.parker else lead.wake
          in
          match register_wait stm wake ~wvars ~wvers ~wrv with
          | None -> attempt lead body arg (n + 1) ~token:false
          | Some w -> (
              bump ctx Count.parks;
              emit_park lead (Array.length wvars);
              if not blocking then raise (Waiting w);
              let woken = R.park ctx.parker ~deadline:lead.deadline in
              bump ctx
                (if woken = `Woken then Count.wakes else Count.wake_timeouts);
              emit_wake lead woken;
              cancel_wait w;
              match woken with
              | `Woken -> attempt lead body arg (n + 1) ~token:false
              | `Timeout -> Deadline_exceeded { reason; attempts = n }))
      | None ->
          if
            serializes
            && Contention.serializes_at stm.cm ~attempt:n
                 ~abort_rate_pct:(abort_rate_pct stm)
          then
            (* The adaptive CM concluded optimism is hopeless before the
               budget ran out. *)
            escalate lead body arg (n + 1)
          else begin
            let pause = Contention.retry_pause stm.cm ~attempt:n in
            if pause > 0 then R.pause pause;
            attempt lead body arg (n + 1) ~token:false
          end

  (* The serial fallback: take every member's serialization token in
     canonical order, drain in-flight commits, and re-run with a commit
     that cannot lose a conflict (bar the straggler race above), so no
     workload can livelock a transaction out of existence. *)
  and escalate lead body arg n =
    if not lead.alone then
      Array.iter (fun tx -> bump tx.ctx Count.multi_escalations) lead.members;
    enter_serial lead;
    attempt lead body arg n ~token:true

  (* The optimistic budget before a cross-instance transaction
     escalates.  Deliberately small for updates: a multi's conflict
     window spans every member, so a few rounds of backoff tell us what
     thousands would.  A snapshot's redraws are cheap — only a
     sustained update storm outrunning the backup chains gets that
     far. *)
  let multi_optimistic_cap = 16
  let multi_snapshot_cap = 64

  let count_snapshot lead n =
    if lead.alone then R.add_counter lead.stm.snapshots n
    else Array.iter (fun tx -> R.add_counter tx.stm.snapshots n) lead.members

  (* Run the call [lead] leads, its descriptors taken, and give them
     back on every exit: commit, abort, [Waiting], a raise. *)
  let start ~raising ~irrevocable ~budget ~deadline lead body arg =
    let stm = lead.stm in
    lead.cap <-
      (match budget with
      | Some b -> max 1 b
      | None ->
          if lead.alone then stm.max_attempts
          else if lead.sem = Semantics.Snapshot then multi_snapshot_cap
          else multi_optimistic_cap);
    if lead.deadline != deadline then lead.deadline <- deadline;
    (* A caller's budget is a hard limit for the structured form;
       otherwise exhaustion follows the instance's policy. *)
    lead.escalates <-
      (raising || Option.is_none budget) && stm.on_exhaustion = `Serialize;
    lead.irrevocable <- irrevocable;
    match
      if irrevocable then begin
        enter_serial lead;
        attempt lead body arg 1 ~token:true
      end
      else
        match lead.sem with
        | Semantics.Classic | Semantics.Elastic ->
            attempt lead body arg 1 ~token:false
        | Semantics.Snapshot -> (
            (* Counted on every member before the first bound is drawn
               (by [arm_tx] or [snapshot_collect]) until the call
               returns or raises, so writers keep backups meanwhile. *)
            count_snapshot lead 1;
            match attempt lead body arg 1 ~token:false with
            | outcome ->
                count_snapshot lead (-1);
                outcome
            | exception e ->
                count_snapshot lead (-1);
                raise e)
    with
    | outcome ->
        give_back_all lead;
        outcome
    | exception e ->
        give_back_all lead;
        raise e

  let[@inline] value = function
    | Committed result -> result
    | Exhausted { reason; attempts } | Deadline_exceeded { reason; attempts } ->
        raise (Too_many_attempts (reason, attempts))

  let atomically ?(sem = Semantics.Classic) ?(irrevocable = false)
      ?(label = "") ?budget ?deadline stm f =
    let ctx = R.tls_get stm.current in
    if in_tx ctx then f (handle (nest ctx sem))
    else begin
      if irrevocable && sem = Semantics.Snapshot then
        raise
          (Invalid_operation "irrevocable snapshot transactions are pointless");
      let tx = take ~alone:true stm ctx sem label in
      value
        (start ~raising:true ~irrevocable ~budget ~deadline tx f (handle tx))
    end

  let try_atomically ?(sem = Semantics.Classic) ?(label = "") ?budget
      ?deadline stm f =
    let ctx = R.tls_get stm.current in
    if in_tx ctx then
      (* Flat nesting joins the outer transaction; its fate is the
         outer call's to report. *)
      Committed (f (handle (nest ctx sem)))
    else
      let tx = take ~alone:true stm ctx sem label in
      start ~raising:false ~irrevocable:false ~budget ~deadline tx f
        (handle tx)

  (* The one-member path of the thunk forms: the thunk itself is the
     body, so the call allocates no wrapper around it.  A [wake], which
     only [try_atomically_one] passes, makes a [retry] register its
     wait and return it instead of parking. *)
  let one_member ?(wake = no_wake) ~raising ~sem ~label ?budget ?deadline stm
      f =
    let ctx = R.tls_get stm.current in
    if in_tx ctx then begin
      ignore (nest ctx sem : desc);
      Committed (f ())
    end
    else begin
      let tx = take ~alone:true stm ctx sem label in
      if wake != no_wake then tx.wake <- wake;
      start ~raising ~irrevocable:false ~budget ~deadline tx f ()
    end

  let try_atomically_one ~sem ~label ?budget ?deadline ?wake stm f =
    one_member ?wake ~raising:false ~sem ~label ?budget ?deadline stm f

  (* ------------------------------------------------------------------ *)
  (* Cross-instance transactions — the sharded store's commit engine     *)

  (* Canonical member order: sort by creation uid and drop duplicates.
     Every cross-instance operation touches its members in this order
     (intent acquisition, token acquisition), so two overlapping multis
     can never deadlock through each other's instances. *)
  let canonical_instances stms =
    let arr = Array.of_list stms in
    Array.sort (fun (a : t) b -> compare a.uid b.uid) arr;
    let n = Array.length arr in
    let uniq = ref 0 in
    for i = 0 to n - 1 do
      if !uniq = 0 || arr.(i) != arr.(!uniq - 1) then begin
        arr.(!uniq) <- arr.(i);
        incr uniq
      end
    done;
    Array.sub arr 0 !uniq

  let multi ~raising ?(sem = Semantics.Classic) ?(label = "") ?budget
      ?deadline stms f =
    let members = canonical_instances stms in
    if Array.length members = 0 then
      raise (Invalid_operation "atomically_multi: no instances");
    let ctxs = Array.map (fun (stm : t) -> R.tls_get stm.current) members in
    if Array.for_all in_tx ctxs then
      (* Every member already carries a live transaction: an enclosing
         transaction spans (at least) these instances, so this call
         flattens into it exactly as a nested [atomically] flattens
         into its outer transaction — the enclosing commit provides the
         atomicity, and its bounds the cut.  This is what lets a
         sharded structure's aggregate run unchanged inside a
         cross-shard [MULTI]. *)
      Committed (f ())
    else if Array.exists in_tx ctxs then
      raise
        (Invalid_operation
           "atomically_multi inside a live transaction on a member instance")
    else begin
      let alone = Array.length members = 1 in
      let txs =
        Array.map2 (fun stm ctx -> take ~alone stm ctx sem label) members ctxs
      in
      let lead = txs.(0) in
      if not alone then lead.members <- txs;
      start ~raising ~irrevocable:false ~budget ~deadline lead f ()
    end

  (* A one-member list takes the one-member path: no sorting, no
     per-member arrays. *)
  let atomically_multi ?(sem = Semantics.Classic) ?(label = "") ?budget
      ?deadline stms f =
    match stms with
    | [ stm ] ->
        value (one_member ~raising:true ~sem ~label ?budget ?deadline stm f)
    | _ -> value (multi ~raising:true ~sem ~label ?budget ?deadline stms f)

  (* Read inside the snapshot it bounds, so a checkpoint keeps the
     bound of the attempt that commits. *)
  let snapshot_bound stm =
    let ctx = R.tls_get stm.current in
    if not (in_tx ctx && (innermost ctx).sem = Semantics.Snapshot) then
      raise (Invalid_operation "snapshot_bound outside a snapshot transaction");
    (innermost ctx).rv

  let try_atomically_multi ?(sem = Semantics.Classic) ?(label = "") ?budget
      ?deadline stms f =
    match stms with
    | [ stm ] ->
        one_member ~raising:false ~sem ~label ?budget ?deadline stm f
    | _ -> multi ~raising:false ~sem ~label ?budget ?deadline stms f

  (* ------------------------------------------------------------------ *)
  (* Statistics and recording                                            *)

  type stats = {
    starts : int;
    commits : int;
    aborts : int;
    lock_busy : int;
    read_invalid : int;
    window_broken : int;
    snapshot_too_old : int;
    killed : int;
    explicit_aborts : int;
    cuts : int;
    extensions : int;
    stale_reads : int;
    fast_commits : int;
    ro_commits : int;
    serial_commits : int;
    budget_exhaustions : int;
    retry_waits : int;
    parks : int;
    wakes : int;
    wake_timeouts : int;
    multi_commits : int;
    multi_escalations : int;
  }

  let stats stm =
    let c = total stm in
    Count.
      {
        starts = c starts;
        commits = c commits;
        aborts = c aborts;
        lock_busy = c lock_busy;
        read_invalid = c read_invalid;
        window_broken = c window_broken;
        snapshot_too_old = c snapshot_too_old;
        killed = c killed;
        explicit_aborts = c explicit_aborts;
        cuts = c cuts;
        extensions = c extensions;
        stale_reads = c stale_reads;
        fast_commits = c fast_commits;
        ro_commits = c ro_commits;
        serial_commits = c serial_commits;
        budget_exhaustions = c budget_exhaustions;
        retry_waits = c retry_waits;
        parks = c parks;
        wakes = c wakes;
        wake_timeouts = c wake_timeouts;
        multi_commits = c multi_commits;
        multi_escalations = c multi_escalations;
      }

  (* The per-thread counts are never written by another thread: a
     reset moves their baseline instead. *)
  let reset_stats stm =
    for i = 0 to Count.n - 1 do
      stm.base.(i) <- stm.base.(i) + total stm i
    done

  let pp_stats ppf s =
    Format.fprintf ppf
      "@[<v>starts=%d commits=%d aborts=%d@ lock_busy=%d read_invalid=%d \
       window_broken=%d snapshot_too_old=%d killed=%d explicit=%d@ cuts=%d \
       extensions=%d stale_reads=%d fast_commits=%d ro_commits=%d@ \
       serial_commits=%d budget_exhaustions=%d@ retry_waits=%d parks=%d \
       wakes=%d wake_timeouts=%d@ multi_commits=%d multi_escalations=%d@]"
      s.starts s.commits s.aborts s.lock_busy s.read_invalid s.window_broken
      s.snapshot_too_old s.killed s.explicit_aborts s.cuts s.extensions
      s.stale_reads s.fast_commits s.ro_commits s.serial_commits
      s.budget_exhaustions s.retry_waits s.parks s.wakes s.wake_timeouts
      s.multi_commits s.multi_escalations

  let record stm on =
    stm.recording <- on;
    if on then begin
      stm.log_rev <- [];
      stm.aborted_rev <- []
    end

  let recorded_events stm = List.rev stm.log_rev
  let recorded_aborted stm = List.sort_uniq Int.compare stm.aborted_rev
end
