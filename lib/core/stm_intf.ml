(** Public signature of the polymorphic STM produced by {!Stm.Make}. *)

module type S = sig
  type t
  (** An STM instance: a version clock, configuration and statistics
      shared by a set of transactional variables.  Transactions of one
      instance must only touch that instance's variables. *)

  type 'a tvar
  (** A transactional variable holding values of type ['a].  Each
      variable keeps its current value, its version, and, when the
      commit that wrote it overlapped a running snapshot transaction,
      one backup version for that snapshot (paper, Section 5.1: “in
      our case two versions were maintained”). *)

  type tx
  (** A handle on an in-flight transaction, passed to every
      transactional operation.  Obtain one with {!atomically}; never
      store it.  The descriptor behind it is pooled per thread and
      instance and serves later calls, but the handle is stamped with
      its own call: used between attempts, after the call, or inside a
      later call that reuses the descriptor, it raises
      {!Invalid_operation}. *)

  type abort_reason =
    | Lock_busy  (** a needed write lock was held too long *)
    | Read_invalid  (** classic validation failed: a read location changed *)
    | Window_broken  (** elastic cut impossible: a window entry changed *)
    | Snapshot_too_old
        (** every stored version is newer than the snapshot: more
            commits overwrote a location during the snapshot than
            [versions] keeps *)
    | Killed  (** a contention manager decided this transaction dies *)
    | Explicit  (** the user called {!abort}, or [orelse] rolled back *)
    | Retry
        (** the user called {!retry}: abort, then {e park} until a
            later commit writes one of the locations this attempt read *)

  exception Too_many_attempts of abort_reason * int
  (** Raised by {!atomically} when the retry budget is spent and the
      serial fallback cannot help: the last abort was [Explicit] (a
      user decision the serialization token cannot override), the
      instance was created with [on_exhaustion:`Raise], or a
      [deadline] passed.  Carries the last abort reason and the number
      of attempts made.  Under the default configuration, conflict
      exhaustion falls back to serial-irrevocable execution instead of
      raising — see {!create}. *)

  exception Invalid_operation of string
  (** Misuse: writing inside a snapshot transaction, using a [tx]
      outside its dynamic extent, or mixing instances. *)

  type fault =
    [ `Skip_validation | `Skip_wake_validation | `No_stabilize
    | `Early_backup_check ]
  (** A deliberate bug an instance can be created with ([create
      ~fault]), so a checker can prove it would catch that bug.  Each
      exists solely as a standing self-test and must never be used
      otherwise:

      - [`Skip_validation] (NOrec only): revalidation skips the value
        comparison, yielding a backend that loses updates under
        contention — the conformance harness must reject it;
      - [`Skip_wake_validation]: a {!retry}ing transaction parks {e
        without} re-validating its wait set after registering — the
        classic lost-wakeup bug: a commit that lands between the
        aborting read and the registration is never noticed, and the
        waiter can sleep forever; the [Explore] model check must find
        the deadlock;
      - [`No_stabilize]: a cross-instance snapshot skips this member's
        re-check when drawing its bound vector, allowing a torn
        cross-instance read; the [Explore] model check must find it;
      - [`Early_backup_check]: a write commit reads the running-snapshot
        count {e before} drawing its write version (TL2's clock
        fetch-and-add, NOrec's sequence-lock CAS) instead of after,
        so a snapshot that starts in between can find neither the
        value at its bound nor a backup of it; the [Explore] model
        check must see it abort with [Snapshot_too_old]. *)

  (** {1 Instance management} *)

  val create :
    ?cm:Contention.t ->
    ?elastic_window:int ->
    ?max_attempts:int ->
    ?on_exhaustion:[ `Serialize | `Raise ] ->
    ?extend_on_stale:bool ->
    ?versions:int ->
    ?gv:[ `Gv1 | `Gv4 ] ->
    ?algo:[ `Tl2 | `Norec ] ->
    ?fault:fault ->
    unit ->
    t
  (** [create ()] makes a fresh STM instance.  [cm] is the contention
      manager (default {!Contention.default}; it is validated with
      {!Contention.validate}, so a degenerate policy is rejected here
      rather than misbehaving at runtime); [elastic_window] the
      number of trailing reads an elastic transaction keeps validating
      across cuts (default 2, as in E-STM); [max_attempts] bounds
      optimistic retries of one {!atomically} (default 10_000).

      [on_exhaustion] decides what happens when a transaction spends
      its whole retry budget ([max_attempts], or the call's [budget])
      on conflict aborts.  [`Serialize] (default) escalates to the
      serial-irrevocable fallback: the transaction takes the global
      serialization token, waits out in-flight commits, and re-runs
      with a guaranteed commit — so [Too_many_attempts] never escapes
      for conflict aborts and every transaction is livelock-free.
      [`Raise] restores the historical behaviour of raising
      {!Too_many_attempts}.  [Explicit] aborts always raise once the
      budget is spent: serializing cannot commit a transaction that
      aborts itself.

      [extend_on_stale] (default [true]) selects the TinySTM-style
      timestamp extension: a classic read past the transaction's
      timestamp revalidates the read set and moves the timestamp
      forward instead of aborting.  Pass [false] for faithful TL2
      behaviour — the library the paper benchmarks as “classic
      transactions” — where such reads abort outright.

      [versions] (default 2, the paper's choice in §5.1: “two versions
      were maintained, this was actually sufficient”) is how many
      values a location retains, including the current one, while a
      snapshot transaction runs on the instance.  Snapshot
      transactions fall back through the chain; [1] disables
      multiversioning (snapshots abort on any location overwritten
      since they started), larger values let snapshots survive heavier
      update traffic at the cost of memory per location.  The
      version-depth ablation quantifies the trade-off.  A write commit
      that finds no snapshot running keeps no backup at all, whatever
      [versions] says: no snapshot that starts later can need one
      (DESIGN.md, S23).

      [gv] selects the global-version-clock scheme (TL2's naming).
      [`Gv1] (default) fetch-and-adds the clock on every write commit.
      [`Gv4] — “pass on failure” — tries one CAS and, when it loses,
      adopts the newer clock value another committer just published as
      its own write version: under commit storms the clock cache line
      is contended once instead of once per commit.  Two transactions
      may then share a write version; that is safe because overlapping
      write sets are already serialised by per-location locks, but the
      adopting transaction must always validate its read set (the
      skip-validation fast path is reserved for commits whose clock
      increment was exclusively theirs).  Read-only transactions never
      touch the clock under either scheme.  The E7 ablation compares
      the two.

      [algo] selects the {e ownership/validation policy} the instance
      runs (DESIGN.md, S17).  [`Tl2] (default) is the word-based TL2
      algorithm described above: per-location lock words, commit-time
      lock acquisition in ascending location order, version-based read
      validation.  [`Norec] is NOrec (Dalessandro, Spear & Scott,
      PPoPP'10): one global sequence lock (the clock doubles as it),
      value-based revalidation of the read set on every clock change,
      and commit-time write-back under the lock.  NOrec transactions
      never touch a per-location lock word, so read-dominated small
      transactions carry no per-location metadata traffic; the price
      is one serialized write commit at a time.  All three semantics,
      the liveness machinery and telemetry work identically under
      either policy, with two provisos: [extend_on_stale] governs TL2
      only (revalidate-on-stale {e is} the NOrec read rule), and [gv]
      is moot under NOrec (the sequence lock fixes the clock
      discipline).  Under NOrec the [Lock_busy] and [Killed] abort
      reasons cannot occur — no per-location lock or owner is ever
      published for a contention manager to spin on or kill.

      [fault] (test-only, see {!fault}) builds a deliberately broken
      instance; [`Skip_validation] is rejected for TL2. *)

  val tvar : t -> 'a -> 'a tvar
  (** Allocate a transactional variable with an initial value
      (version 0). *)

  val gv_scheme : t -> [ `Gv1 | `Gv4 ]
  (** The configured clock scheme. *)

  val algo : t -> [ `Tl2 | `Norec ]
  (** The configured ownership/validation policy. *)

  val elastic_window_size : t -> int
  (** The configured window length.  Elastic data structures check it
      against the width of their write neighbourhoods: a sorted-list
      remove touches two adjacent pointers, so it needs at least 2 —
      a smaller window silently loses the hand-over-hand protection
      (caught by the library at construction time). *)

  (** {1 Running transactions}

      Every form below — {!atomically}, {!try_atomically}, irrevocable
      execution and the cross-instance {!atomically_multi} — runs one
      attempt loop and one commit over its {e member} instances: one
      for the single-instance forms, which is the base case, several
      for a cross-instance transaction.  Arming, flat nesting, abort
      accounting, lifecycle hooks, [retry] parking, deadlines, budgets
      and the serial fallback are the same code for every form; only
      the settings differ. *)

  val atomically :
    ?sem:Semantics.t ->
    ?irrevocable:bool ->
    ?label:string ->
    ?budget:int ->
    ?deadline:int ->
    t ->
    (tx -> 'a) ->
    'a
  (** [atomically stm f] runs [f] as a transaction with semantics
      [sem] (default [Classic]) and commits its writes atomically,
      retrying on conflict aborts under the instance's contention
      manager.  Exceptions raised by [f] (other than the internal abort
      signal) propagate after the transaction's effects are discarded.

      [budget] caps optimistic retries for this call alone, overriding
      the instance's [max_attempts] (values below 1 are treated as 1);
      what happens at exhaustion is the instance's [on_exhaustion]
      policy.  [deadline] is an absolute time in the runtime's clock —
      virtual ticks under the simulator, nanoseconds under domains
      (compare with [R.now ()]) — checked between attempts: once
      passed, the call stops retrying and raises {!Too_many_attempts}
      with the last abort reason.  Prefer {!try_atomically} when a
      deadline or budget is in play — it reports these outcomes as
      data instead of an exception.  Both are ignored under flat
      nesting (the outer call's limits govern) and by irrevocable
      transactions (which never retry).

      [label] names the call site for telemetry: every lifecycle event
      the transaction emits carries it, so abort causes and retry
      counts can be attributed per operation (["contains"], ["size"],
      …).  It has no semantic effect, costs nothing when no sink is
      installed, and under flat nesting the outer label prevails along
      with the outer semantics.

      Nested calls on the same instance are flattened into the outer
      transaction, whose semantics prevails
      ({!Semantics.compose}) — this is what makes Alice's elastic
      operations composable into Bob's classic ones.

      [irrevocable:true] requests {e serial-irrevocable} execution: the
      transaction acquires a global token, waits for in-flight commits
      to drain, and then runs with a guarantee that it will never
      abort — other transactions keep executing but cannot commit until
      it finishes.  This is the standard escape hatch for transactions
      with side effects that cannot be compensated (I/O); it is
      mutually exclusive with [sem:Snapshot] (which never aborts
      updaters anyway) and expensive by design — everything else's
      commits stall.  [f] runs exactly once.

      The same machinery backs the {e serial fallback}: with the
      default [on_exhaustion:`Serialize], a transaction that spends
      its whole retry budget on conflicts re-runs under the token with
      a guaranteed commit (counted in [serial_commits]), so no
      workload can livelock a transaction out of existence. *)

  type 'a outcome =
    | Committed of 'a
    | Exhausted of { reason : abort_reason; attempts : int }
        (** the retry budget ran out; [reason] is the last abort's *)
    | Deadline_exceeded of { reason : abort_reason; attempts : int }
        (** the deadline passed before an attempt committed *)

  val try_atomically :
    ?sem:Semantics.t ->
    ?label:string ->
    ?budget:int ->
    ?deadline:int ->
    t ->
    (tx -> 'a) ->
    'a outcome
  (** [try_atomically stm f] is {!atomically} with a structured
      outcome: budget exhaustion and deadline expiry come back as
      {!Exhausted} / {!Deadline_exceeded} values instead of a raised
      {!Too_many_attempts}, leaving the response policy to the caller.
      A [budget] is a hard limit here: spending it returns
      [Exhausted] and the serial fallback never runs.  Without one,
      conflict exhaustion of the instance's [max_attempts] follows
      [on_exhaustion] as in {!atomically} — a serialized re-run that
      commits, or [Exhausted] under [`Raise].  It never raises
      [Too_many_attempts]; exceptions from [f] still propagate.  Under
      flat nesting it joins the outer transaction and returns
      [Committed] of [f]'s result (the outer call reports the fate of
      the merged transaction). *)

  (** {1 Cross-instance transactions}

      The sharded store's commit engine (DESIGN §S20).  A shard router
      owns one instance per shard; single-shard operations run on the
      owner instance alone, and only operations that genuinely span
      shards pay for the protocol below. *)

  val atomically_multi :
    ?sem:Semantics.t ->
    ?label:string ->
    ?budget:int ->
    ?deadline:int ->
    ?bounds:(t * int) list ref ->
    t list ->
    (unit -> 'a) ->
    'a
  (** [atomically_multi stms f] runs [f] as one transaction of [sem]
      spanning every instance in [stms]: nested {!atomically} calls on
      a member instance flatten into that member's sub-transaction.
      With one (distinct) instance this is {!atomically}.  With more,
      the loop and the commit add, and only then:

      - the {e two-phase commit}: per-member commit intents acquired in
        canonical (creation-order) instance order, every member —
        read-only ones too — validated against its own clock under the
        [multi_inflight] fence, then every member's values published
        before any intent is released.  A reader can never observe one
        member's writes without the others';
      - for [sem:Snapshot], a {e consistent bound vector} in place of
        one armed clock: drawn by double collect (read every member's
        stable clock while no serialization token is held and no
        cross-instance commit is in flight there, then re-check all of
        them unchanged), so the reads across all members form one
        consistent cut of the whole store.  Like a single-instance
        snapshot it never impedes updaters and commits for free; it may
        redraw its bounds when update storms outrun the backup chains;
      - the escalation cap: without a [budget], 16 optimistic rounds
        (64 bound redraws for a snapshot) before the serial fallback
        takes every member's serialization token in canonical order —
        so cross-shard batches are livelock-free.  [retry] cannot park
        across instances.

      [label], [budget] and [deadline] mean what they mean for
      {!atomically}; the first member's contention manager and
      [on_exhaustion] policy govern the loop.  [bounds], when supplied,
      receives the committed attempt's per-instance clock bounds: for a
      snapshot, a commit on a member instance is inside the snapshot
      iff its stamp is [<=] the member's bound.  This is the cut
      vector the checkpointer hands to log compaction (every logged
      record with a larger stamp must be replayed on recovery, every
      smaller one is already in the checkpoint).

      When every member already runs a live transaction on the calling
      thread, the call flattens into them (the enclosing commit
      provides the atomicity).

      @raise Invalid_operation on {!retry} inside a multi-member [f],
      on a write inside a snapshot, or when the calling thread already
      has a live transaction on some but not all members.
      @raise Too_many_attempts as {!atomically} does. *)

  val try_atomically_multi :
    ?sem:Semantics.t ->
    ?label:string ->
    ?budget:int ->
    ?deadline:int ->
    ?bounds:(t * int) list ref ->
    t list ->
    (unit -> 'a) ->
    'a outcome
  (** {!atomically_multi} with {!try_atomically}'s structured outcome:
      a spent [budget] comes back as [Exhausted], a passed [deadline]
      as [Deadline_exceeded].  Without a [budget] a multi-member call
      still escalates after its optimistic rounds and commits.  With a
      one-member list and no [bounds] it is {!try_atomically}. *)

  val try_atomically_one :
    sem:Semantics.t ->
    label:string ->
    ?budget:int ->
    ?deadline:int ->
    ?wake:(unit -> unit) ->
    t ->
    (unit -> 'a) ->
    'a outcome
  (** [try_atomically_one ~sem ~label stm f] is [try_atomically_multi
      ~sem ~label [stm] f], and with [wake] it is
      [try_atomically_or_wait ~sem ~label ~wake [stm] f]: the form for
      a caller that already holds its one instance, such as a server
      running a point request.  It builds no member list, wraps [f] in
      no closure, and takes [sem] and [label] unboxed. *)

  (** {1 Waiting without blocking}

      A thread that serves many clients, such as an event loop, cannot
      park in {!retry}.  It runs the transaction through
      {!try_atomically_or_wait} instead, and gets the wait back. *)

  type wait
  (** A [retry] wait set registered with a caller's wake function.  It
      stays registered, and counts in {!waiting}, until {!cancel_wait}. *)

  exception Waiting of wait
  (** The body of {!try_atomically_or_wait} retried and its wait set is
      registered. *)

  val try_atomically_or_wait :
    ?sem:Semantics.t ->
    ?label:string ->
    ?budget:int ->
    ?deadline:int ->
    wake:(unit -> unit) ->
    t list ->
    (unit -> 'a) ->
    'a outcome
  (** [try_atomically_or_wait ~wake stms f] runs [f] as
      {!try_atomically_multi} does, one member through the same
      one-member path, except where {!retry} would park: there the
      attempt's wait set is registered with [wake] and the call raises
      [Waiting w] at once.  Registration takes the same
      register-then-revalidate step as a park, so a commit that changed
      the wait set before the registration makes the call re-run [f]
      instead of returning, and the first later commit that writes the
      set calls [wake] (from the committing thread, outside every STM
      lock; possibly spuriously: the write need not enable [f]).  [wake]
      runs at most once per wait, and not once {!cancel_wait} has
      marked it.  It must therefore only hand the resume to its
      caller's own thread — post it to an event loop — and must not
      block or run a transaction.
      The resume is the caller's: {!cancel_wait} [w], then call this
      function again, which may register anew.  A deadline or budget
      applies to one call, not across waits; the caller owns the time
      it waits.  Counted in [parks] when registered; [wakes] and
      [wake_timeouts] count blocking parks only.
      @raise Invalid_operation as {!retry} does. *)

  val cancel_wait : wait -> unit
  (** Deregister a wait and silence its wake.  Idempotent; a wake that
      had already begun when the cancel ran may still finish. *)

  val read : tx -> 'a tvar -> 'a
  (** Transactional read, honouring the transaction's semantics. *)

  val write : tx -> 'a tvar -> 'a -> unit
  (** Buffered transactional write; takes effect at commit.
      @raise Invalid_operation inside a snapshot transaction. *)

  val semantics : tx -> Semantics.t

  val abort : tx -> 'a
  (** Explicitly abort and retry the whole transaction (after the
      contention manager's backoff). *)

  val retry : tx -> 'a
  (** Haskell-style blocking retry (Harris et al., reference [30]):
      abort this attempt and {e park} the thread until a later commit
      writes one of the locations the attempt read — its {e wait set}:
      the flat read set, the elastic window, and the reads of any
      {!orelse} branch that retried — then re-run.  No polling: under
      the simulator the thread is descheduled and woken in virtual
      time; under domains it sleeps on a [Mutex]/[Condition] pair.
      Wakeups are conservative (a wake re-runs and may retry again; a
      NOrec instance wakes on {e every} commit — it has no
      per-location metadata), but never lost: the waiter registers,
      re-validates its wait set, and only then parks, so a racing
      commit either fails the validation or deposits a wakeup permit.
      Under {!try_atomically_or_wait} the same wait set is registered
      and handed back to the caller instead of parking the thread.

      Liveness bounds compose: [atomically ~deadline] / [~budget] cap
      the wait — a deadline wakes the parked thread and surfaces as
      {!Too_many_attempts} (or [Deadline_exceeded] from
      {!try_atomically}); each wakeup's re-run spends one attempt of
      the budget, and an exhausted waiter is {e never} serialized
      (parking under the global token would block its own waker) —
      exhaustion surfaces as data/exception instead.

      @raise Invalid_operation inside a snapshot transaction (snapshot
      reads are not tracked in a wait set), inside an irrevocable or
      serial-fallback transaction (the token holder blocks every
      committer, including its would-be waker), or when the attempt
      read nothing (an empty wait set would wait forever). *)

  val waiting : t -> int
  (** Number of [retry] waiters currently registered: threads parked or
      about to park, and waits from {!try_atomically_or_wait} not yet
      cancelled.  Uncharged read; used by shutdown drains and admission
      control.  With no transaction in flight and every registered wait
      cancelled it must be 0 — no park outlives its [atomically]
      call. *)

  val orelse : tx -> (tx -> 'a) -> (tx -> 'a) -> 'a
  (** [orelse tx f g] runs [f]; if [f] aborts explicitly via {!abort}
      or blocks via {!retry}, its effects are rolled back and [g] runs
      instead (composable alternatives in the style of Harris et al.,
      reference [30]).  Conflict aborts ([Read_invalid], …) restart
      the whole transaction, not just [f] — and since the savepoint
      rollback discards the failed branch's reads and buffered writes
      entirely, a rolled-back branch leaks nothing into a later wait
      set.  The exception: a {e retrying} left branch deliberately
      contributes its reads — if [g] then retries too, the transaction
      waits on the {e union} of both branches' read sets, so a write
      enabling either branch wakes it. *)

  (** {1 Lifecycle hooks}

      The integration points {e transactional boosting} (Herlihy &
      Koskinen, PPoPP'08 — reference [39] of the paper) needs: eager
      operations register a compensating inverse to run if the
      transaction aborts, and abstract locks register their release to
      run when it finishes either way. *)

  val on_abort : tx -> (unit -> unit) -> unit
  (** Register a compensation, run (newest first) if this transaction
      aborts — including when {!orelse} rolls back its left branch. *)

  val on_cleanup : tx -> (unit -> unit) -> unit
  (** Register a finaliser, run (newest first) after the transaction
      commits or aborts, after any compensations. *)

  val serial : tx -> int
  (** Unique identifier of this transaction attempt (used by boosted
      structures to implement transaction-scoped abstract locks). *)

  val release : tx -> 'a tvar -> unit
  (** {e Early release} (Herlihy et al., reference [15]): stop
      validating an earlier read of the given variable.  Increases
      concurrency but, as Section 4.1 of the paper warns, breaks
      composition; the test suite demonstrates the hazard.  No effect
      on variables in the write set or never read. *)

  (** {1 Telemetry}

      The STM emits one {!Polytm_telemetry.event} per lifecycle point
      — begin, shared read, buffered write, commit-time lock
      acquisition, commit, abort — into the installed sink.  The hook
      is a single mutable-field test when no sink is installed: no
      allocation, no clock read, no event construction.  Under the
      simulator events are stamped with virtual time and virtual
      thread ids, so a seeded run yields a byte-identical trace;
      under domains install a {!Polytm_telemetry.Ring} and drain it
      after joining. *)

  val set_sink : t -> Polytm_telemetry.sink option -> unit
  (** Install (or remove) the telemetry sink.  Install before the
      measured section; swapping sinks concurrently with running
      transactions is not synchronised. *)

  val sink : t -> Polytm_telemetry.sink option

  val set_commit_hook : t -> (int -> unit) option -> unit
  (** Install (or remove) the durability hook: called once per write
      commit with the commit stamp (the version written back), {e
      inside} the commit critical section — after validation decides
      the commit will succeed, before any lock or sequence-lock
      release.  Because no dependent commit can start until this
      commit releases, invocation order equals serialization order:
      appending a record per invocation yields a log whose replay
      reproduces the store.  Cross-instance (2PC) commits fire the
      hook once per written member, all members' intents still held.
      The callback must be fast, must never raise, and must not run
      transactions on any instance.  Like {!set_sink}, the hook is a
      single mutable-field test when absent — the default path charges
      nothing and sim schedules are untouched. *)

  val commit_hook : t -> (int -> unit) option

  val cause_of_reason : abort_reason -> Polytm_telemetry.cause
  (** Total mapping from the STM's abort reasons onto the telemetry
      taxonomy — exhaustive by construction, so adding an
      [abort_reason] constructor without classifying it is a compile
      error. *)

  (** {1 Statistics} *)

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
    cuts : int;  (** elastic cuts performed *)
    extensions : int;  (** successful classic timestamp extensions *)
    stale_reads : int;  (** snapshot reads served from the old version *)
    fast_commits : int;  (** write commits that skipped validation *)
    ro_commits : int;  (** read-only commits (no clock access, no locks) *)
    serial_commits : int;
        (** commits made under the serialization token: irrevocable
            transactions and serial-fallback escalations *)
    budget_exhaustions : int;
        (** times a transaction spent its whole optimistic retry
            budget (whether it then serialized or raised) *)
    retry_waits : int;  (** attempts aborted by {!retry} *)
    parks : int;
        (** times a retrying thread actually parked, or registered a
            wait with {!try_atomically_or_wait} (a validation failure
            after registering re-runs immediately instead) *)
    wakes : int;  (** blocking parks ended by a committing writer's notify *)
    wake_timeouts : int;  (** blocking parks ended by the call's deadline *)
    multi_commits : int;
        (** commits this instance took part in as a member of a
            cross-instance transaction ({!atomically_multi}) *)
    multi_escalations : int;
        (** times a cross-instance transaction on this instance gave
            up optimism and escalated to the serialization tokens *)
  }

  val stats : t -> stats
  val reset_stats : t -> unit
  val pp_stats : Format.formatter -> stats -> unit

  (** {1 History recording (single-scheduler runs only)}

      When enabled, every shared access performed by committed and
      aborted transactions is appended, in execution order, to an
      event log that tests convert into a {!Polytm_history.History.t}
      and feed to the opacity/elastic checkers.  Recording uses plain
      mutable state: enable it only under the deterministic simulator
      or in single-threaded code. *)

  type recorded = {
    rec_tx : int;  (** transaction serial *)
    rec_loc : int;  (** tvar identifier *)
    rec_write : bool;
    rec_sem : Semantics.t;
  }

  val record : t -> bool -> unit
  (** Turn recording on or off (clears the log when turned on). *)

  val recorded_events : t -> recorded list
  (** Events in execution order. *)

  val recorded_aborted : t -> int list
  (** Serials of transactions that aborted (each retry attempt is a
      distinct serial). *)

  val tvar_id : 'a tvar -> int

  val tvar_locked : 'a tvar -> bool
  (** Quiescence probe: whether the variable's lock word is currently
      held by a committing transaction.  With no transaction in
      flight, every variable must answer [false] — the stress
      harnesses assert exactly that after joining all threads.  Racy
      by nature while transactions run. *)
end
