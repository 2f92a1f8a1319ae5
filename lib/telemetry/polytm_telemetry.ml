(* Implementation notes live in the interface; this file keeps only
   the mechanics. *)

type cause =
  | Read_validation
  | Lock_busy
  | Elastic_cut
  | Snapshot_overwrite
  | Cm_kill
  | Explicit

let all_causes =
  [ Read_validation; Lock_busy; Elastic_cut; Snapshot_overwrite; Cm_kill;
    Explicit ]

let num_causes = List.length all_causes

let cause_index = function
  | Read_validation -> 0
  | Lock_busy -> 1
  | Elastic_cut -> 2
  | Snapshot_overwrite -> 3
  | Cm_kill -> 4
  | Explicit -> 5

let cause_label = function
  | Read_validation -> "read-validation"
  | Lock_busy -> "lock-busy"
  | Elastic_cut -> "elastic-cut"
  | Snapshot_overwrite -> "snapshot-overwrite"
  | Cm_kill -> "cm-kill"
  | Explicit -> "explicit"

let cause_short = function
  | Read_validation -> "rdval"
  | Lock_busy -> "lockb"
  | Elastic_cut -> "cut"
  | Snapshot_overwrite -> "snap"
  | Cm_kill -> "kill"
  | Explicit -> "expl"

type kind =
  | Begin of { sem : string; attempt : int }
  | Read of { loc : int }
  | Write of { loc : int }
  | Lock_acquire of { loc : int }
  | Commit of { reads : int; writes : int; lock_hold : int }
  | Abort of { cause : cause; reads : int; writes : int }
  | Serialize of { attempt : int }
  | Budget_exhausted of { attempts : int; cause : cause }
  | Park of { locs : int }
  | Wake of { timed_out : bool }

type event = {
  time : int;
  thread : int;
  serial : int;
  label : string;
  kind : kind;
}

type sink = { emit : event -> unit }

let null = { emit = (fun _ -> ()) }

let fan_out sinks =
  match sinks with
  | [] -> null
  | [ s ] -> s
  | sinks -> { emit = (fun e -> List.iter (fun s -> s.emit e) sinks) }

let is_access e = match e.kind with Read _ | Write _ -> true | _ -> false

(* ---------------------------------------------------------------- *)
(* Recorder                                                          *)

module Recorder = struct
  type t = {
    capacity : int;
    accesses : bool;
    mutable rev : event list;
    mutable kept : int;
    mutable dropped : int;
  }

  let create ?(capacity = 2_000_000) ?(accesses = true) () =
    { capacity; accesses; rev = []; kept = 0; dropped = 0 }

  let sink t =
    {
      emit =
        (fun e ->
          if (not t.accesses) && is_access e then ()
          else if t.kept >= t.capacity then t.dropped <- t.dropped + 1
          else begin
            t.rev <- e :: t.rev;
            t.kept <- t.kept + 1
          end);
    }

  let events t = List.rev t.rev
  let dropped t = t.dropped

  let clear t =
    t.rev <- [];
    t.kept <- 0;
    t.dropped <- 0
end

(* ---------------------------------------------------------------- *)
(* Ring                                                              *)

module Ring = struct
  (* Write cursors are spread [pad] ints apart so two lanes never
     share a cache line (64-byte lines hold 8 boxed-int words; 16 is
     comfortably clear).  Each lane has a single writer, so the bump
     is a plain load/store — no CAS on the hot path. *)
  let pad = 16

  type t = {
    lanes : int;  (** power of two *)
    capacity : int;  (** per lane, power of two *)
    slots : event option array array;  (** [lanes][capacity] *)
    cursors : int array;  (** lane i's count at [i * pad] *)
    mutable lost : int;  (** overwrites carried over past drains *)
  }

  let rec pow2 n k = if k >= n then k else pow2 n (k * 2)

  let create ?(lanes = 64) ?(capacity = 8192) () =
    let lanes = pow2 (max 1 lanes) 1 in
    let capacity = pow2 (max 1 capacity) 1 in
    {
      lanes;
      capacity;
      slots = Array.init lanes (fun _ -> Array.make capacity None);
      cursors = Array.make (lanes * pad) 0;
      lost = 0;
    }

  let sink t =
    {
      emit =
        (fun e ->
          let lane = e.thread land (t.lanes - 1) in
          let c = t.cursors.(lane * pad) in
          t.slots.(lane).(c land (t.capacity - 1)) <- Some e;
          t.cursors.(lane * pad) <- c + 1);
    }

  let overwritten t =
    let n = ref t.lost in
    for lane = 0 to t.lanes - 1 do
      n := !n + max 0 (t.cursors.(lane * pad) - t.capacity)
    done;
    !n

  let drain t =
    let out = ref [] in
    for lane = 0 to t.lanes - 1 do
      let count = t.cursors.(lane * pad) in
      let first = max 0 (count - t.capacity) in
      t.lost <- t.lost + first;
      (* Oldest surviving entry first, so each lane contributes in
         emission order. *)
      for c = count - 1 downto first do
        match t.slots.(lane).(c land (t.capacity - 1)) with
        | Some e -> out := e :: !out
        | None -> ()
      done;
      Array.fill t.slots.(lane) 0 t.capacity None;
      t.cursors.(lane * pad) <- 0
    done;
    List.stable_sort
      (fun a b -> compare (a.time, a.thread, a.serial) (b.time, b.thread, b.serial))
      !out
end

(* ---------------------------------------------------------------- *)
(* Aggregation                                                       *)

module Agg = struct
  type site_stats = {
    site : string;
    attempts : int;
    commits : int;
    aborts : int;
    aborts_by_cause : (cause * int) list;
    retries : int;
    lock_acquires : int;
    reads_committed : int;
    max_read_set : int;
    writes_committed : int;
    lock_hold : int;
  }

  let abort_count s c =
    match List.assoc_opt c s.aborts_by_cause with Some n -> n | None -> 0

  type cell = {
    mutable a_attempts : int;
    mutable a_commits : int;
    a_causes : int array;  (** indexed by {!cause_index} *)
    mutable a_retries : int;
    mutable a_locks : int;
    mutable a_reads : int;
    mutable a_max_reads : int;
    mutable a_writes : int;
    mutable a_hold : int;
  }

  type t = (string, cell) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let cell t label =
    match Hashtbl.find_opt t label with
    | Some c -> c
    | None ->
        let c =
          {
            a_attempts = 0;
            a_commits = 0;
            a_causes = Array.make num_causes 0;
            a_retries = 0;
            a_locks = 0;
            a_reads = 0;
            a_max_reads = 0;
            a_writes = 0;
            a_hold = 0;
          }
        in
        Hashtbl.replace t label c;
        c

  let feed t e =
    let c = cell t e.label in
    match e.kind with
    | Begin { attempt; _ } ->
        c.a_attempts <- c.a_attempts + 1;
        if attempt > 1 then c.a_retries <- c.a_retries + 1
    | Read _ | Write _ -> ()
    | Lock_acquire _ -> c.a_locks <- c.a_locks + 1
    | Commit { reads; writes; lock_hold } ->
        c.a_commits <- c.a_commits + 1;
        c.a_reads <- c.a_reads + reads;
        c.a_max_reads <- max c.a_max_reads reads;
        c.a_writes <- c.a_writes + writes;
        c.a_hold <- c.a_hold + lock_hold
    | Abort { cause; reads; _ } ->
        c.a_causes.(cause_index cause) <- c.a_causes.(cause_index cause) + 1;
        c.a_max_reads <- max c.a_max_reads reads
    (* Liveness escalations and blocking park/wake annotate attempts
       that are already counted through their Begin/Commit/Abort
       events; the snapshot layout (and with it the JSON goldens)
       stays unchanged. *)
    | Serialize _ | Budget_exhausted _ | Park _ | Wake _ -> ()

  let sink t = { emit = feed t }

  let stats_of site (c : cell) =
    let aborts = Array.fold_left ( + ) 0 c.a_causes in
    {
      site;
      attempts = c.a_attempts;
      commits = c.a_commits;
      aborts;
      aborts_by_cause =
        List.map (fun k -> (k, c.a_causes.(cause_index k))) all_causes;
      retries = c.a_retries;
      lock_acquires = c.a_locks;
      reads_committed = c.a_reads;
      max_read_set = c.a_max_reads;
      writes_committed = c.a_writes;
      lock_hold = c.a_hold;
    }

  type snapshot = { sites : site_stats list; total : site_stats }

  let snapshot t =
    let sites =
      Hashtbl.fold (fun label c acc -> stats_of label c :: acc) t []
      |> List.sort (fun a b -> compare a.site b.site)
    in
    let total =
      List.fold_left
        (fun acc s ->
          {
            site = "TOTAL";
            attempts = acc.attempts + s.attempts;
            commits = acc.commits + s.commits;
            aborts = acc.aborts + s.aborts;
            aborts_by_cause =
              List.map
                (fun k -> (k, abort_count acc k + abort_count s k))
                all_causes;
            retries = acc.retries + s.retries;
            lock_acquires = acc.lock_acquires + s.lock_acquires;
            reads_committed = acc.reads_committed + s.reads_committed;
            max_read_set = max acc.max_read_set s.max_read_set;
            writes_committed = acc.writes_committed + s.writes_committed;
            lock_hold = acc.lock_hold + s.lock_hold;
          })
        (stats_of "TOTAL"
           {
             a_attempts = 0;
             a_commits = 0;
             a_causes = Array.make num_causes 0;
             a_retries = 0;
             a_locks = 0;
             a_reads = 0;
             a_max_reads = 0;
             a_writes = 0;
             a_hold = 0;
           })
        sites
    in
    { sites; total }

  let of_events events =
    let t = create () in
    List.iter (feed t) events;
    snapshot t
end

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let rec render b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (string_of_bool v)
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f ->
        (* JSON has no NaN/infinity literals; degrade to null. *)
        if not (Float.is_finite f) then Buffer.add_string b "null"
        else if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.1f" f)
        else Buffer.add_string b (Printf.sprintf "%.6g" f)
    | Str s ->
        Buffer.add_char b '"';
        escape b s;
        Buffer.add_char b '"'
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            render b x)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            render b (Str k);
            Buffer.add_char b ':';
            render b v)
          fields;
        Buffer.add_char b '}'

  let to_string j =
    let b = Buffer.create 1024 in
    render b j;
    Buffer.contents b

  let pp ppf j = Format.pp_print_string ppf (to_string j)
end

(* ---------------------------------------------------------------- *)
(* Exporters                                                         *)

module Export = struct
  let pp_table ppf (s : Agg.snapshot) =
    let open Agg in
    let site_width =
      List.fold_left
        (fun acc st -> max acc (String.length st.site))
        12 (s.total :: s.sites)
      + 2
    in
    Format.fprintf ppf "%-*s %8s %8s %7s %7s |" site_width "site" "attempts"
      "commits" "aborts" "retries";
    List.iter (fun c -> Format.fprintf ppf " %5s" (cause_short c)) all_causes;
    Format.fprintf ppf " | %9s %6s %9s@." "rds/cmt" "max" "lockhold";
    let width =
      site_width + 35 + (6 * num_causes) + 30
    in
    Format.fprintf ppf "%s@." (String.make width '-');
    let row st =
      Format.fprintf ppf "%-*s %8d %8d %7d %7d |" site_width st.site
        st.attempts st.commits st.aborts st.retries;
      List.iter
        (fun c -> Format.fprintf ppf " %5d" (abort_count st c))
        all_causes;
      let mean_reads =
        if st.commits = 0 then 0.
        else float_of_int st.reads_committed /. float_of_int st.commits
      in
      Format.fprintf ppf " | %9.1f %6d %9d@." mean_reads st.max_read_set
        st.lock_hold
    in
    List.iter row s.sites;
    if s.sites <> [] then Format.fprintf ppf "%s@." (String.make width '-');
    row s.total

  let site_json (st : Agg.site_stats) =
    Json.Obj
      [
        ("site", Json.Str st.site);
        ("attempts", Json.Int st.attempts);
        ("commits", Json.Int st.commits);
        ("aborts", Json.Int st.aborts);
        ( "aborts_by_cause",
          Json.Obj
            (List.map
               (fun (c, n) -> (cause_label c, Json.Int n))
               st.aborts_by_cause) );
        ("retries", Json.Int st.retries);
        ("lock_acquires", Json.Int st.lock_acquires);
        ("reads_committed", Json.Int st.reads_committed);
        ("max_read_set", Json.Int st.max_read_set);
        ("writes_committed", Json.Int st.writes_committed);
        ("lock_hold", Json.Int st.lock_hold);
      ]

  let snapshot_json (s : Agg.snapshot) =
    Json.Obj
      [
        ("sites", Json.Arr (List.map site_json s.sites));
        ("total", site_json s.total);
      ]

  let kind_json = function
    | Begin { sem; attempt } ->
        [ ("type", Json.Str "begin"); ("sem", Json.Str sem);
          ("attempt", Json.Int attempt) ]
    | Read { loc } -> [ ("type", Json.Str "read"); ("loc", Json.Int loc) ]
    | Write { loc } -> [ ("type", Json.Str "write"); ("loc", Json.Int loc) ]
    | Lock_acquire { loc } ->
        [ ("type", Json.Str "lock"); ("loc", Json.Int loc) ]
    | Commit { reads; writes; lock_hold } ->
        [ ("type", Json.Str "commit"); ("reads", Json.Int reads);
          ("writes", Json.Int writes); ("lock_hold", Json.Int lock_hold) ]
    | Abort { cause; reads; writes } ->
        [ ("type", Json.Str "abort"); ("cause", Json.Str (cause_label cause));
          ("reads", Json.Int reads); ("writes", Json.Int writes) ]
    | Serialize { attempt } ->
        [ ("type", Json.Str "serialize"); ("attempt", Json.Int attempt) ]
    | Budget_exhausted { attempts; cause } ->
        [ ("type", Json.Str "budget-exhausted");
          ("attempts", Json.Int attempts);
          ("cause", Json.Str (cause_label cause)) ]
    | Park { locs } -> [ ("type", Json.Str "park"); ("locs", Json.Int locs) ]
    | Wake { timed_out } ->
        [ ("type", Json.Str "wake"); ("timed_out", Json.Bool timed_out) ]

  let events_json events =
    Json.Arr
      (List.map
         (fun e ->
           Json.Obj
             (("time", Json.Int e.time) :: ("thread", Json.Int e.thread)
             :: ("serial", Json.Int e.serial) :: ("label", Json.Str e.label)
             :: kind_json e.kind))
         events)

  (* Chrome trace-event format: every attempt becomes one complete
     ("X") slice on its thread's lane, lock acquisitions become
     instant ("i") events.  Perfetto interprets [ts]/[dur] as
     microseconds; we map one tick (or one nanosecond, under domains)
     to one microsecond rather than scaling. *)
  let chrome_trace ?(process_name = "polytm") ?(extra = []) events =
    let slice_name label sem = if label = "" then "tx:" ^ sem else label in
    let threads = Hashtbl.create 8 in
    let pending = Hashtbl.create 64 in
    let out = ref [] in
    let push j = out := j :: !out in
    let complete ~(b : event) ~sem ~attempt ~ts_end ~outcome ~args =
      push
        (Json.Obj
           [
             ("name", Json.Str (slice_name b.label sem));
             ("cat", Json.Str "tx");
             ("ph", Json.Str "X");
             ("ts", Json.Int b.time);
             ("dur", Json.Int (max 1 (ts_end - b.time)));
             ("pid", Json.Int 0);
             ("tid", Json.Int b.thread);
             ( "args",
               Json.Obj
                 (("serial", Json.Int b.serial) :: ("sem", Json.Str sem)
                 :: ("attempt", Json.Int attempt)
                 :: ("outcome", Json.Str outcome) :: args) );
           ])
    in
    List.iter
      (fun e ->
        if not (Hashtbl.mem threads e.thread) then
          Hashtbl.replace threads e.thread ();
        match e.kind with
        | Begin { sem; attempt } ->
            Hashtbl.replace pending e.serial (e, sem, attempt)
        | Read _ | Write _ -> ()
        | Lock_acquire { loc } ->
            push
              (Json.Obj
                 [
                   ("name", Json.Str "lock-acquire");
                   ("cat", Json.Str "lock");
                   ("ph", Json.Str "i");
                   ("ts", Json.Int e.time);
                   ("pid", Json.Int 0);
                   ("tid", Json.Int e.thread);
                   ("s", Json.Str "t");
                   ("args", Json.Obj [ ("loc", Json.Int loc) ]);
                 ])
        | Serialize { attempt } ->
            push
              (Json.Obj
                 [
                   ("name", Json.Str "serialize");
                   ("cat", Json.Str "liveness");
                   ("ph", Json.Str "i");
                   ("ts", Json.Int e.time);
                   ("pid", Json.Int 0);
                   ("tid", Json.Int e.thread);
                   ("s", Json.Str "t");
                   ("args", Json.Obj [ ("attempt", Json.Int attempt) ]);
                 ])
        | Budget_exhausted { attempts; cause } ->
            push
              (Json.Obj
                 [
                   ("name", Json.Str "budget-exhausted");
                   ("cat", Json.Str "liveness");
                   ("ph", Json.Str "i");
                   ("ts", Json.Int e.time);
                   ("pid", Json.Int 0);
                   ("tid", Json.Int e.thread);
                   ("s", Json.Str "t");
                   ( "args",
                     Json.Obj
                       [ ("attempts", Json.Int attempts);
                         ("cause", Json.Str (cause_label cause)) ] );
                 ])
        | Park { locs } ->
            push
              (Json.Obj
                 [
                   ("name", Json.Str "park");
                   ("cat", Json.Str "blocking");
                   ("ph", Json.Str "i");
                   ("ts", Json.Int e.time);
                   ("pid", Json.Int 0);
                   ("tid", Json.Int e.thread);
                   ("s", Json.Str "t");
                   ("args", Json.Obj [ ("locs", Json.Int locs) ]);
                 ])
        | Wake { timed_out } ->
            push
              (Json.Obj
                 [
                   ("name", Json.Str "wake");
                   ("cat", Json.Str "blocking");
                   ("ph", Json.Str "i");
                   ("ts", Json.Int e.time);
                   ("pid", Json.Int 0);
                   ("tid", Json.Int e.thread);
                   ("s", Json.Str "t");
                   ("args", Json.Obj [ ("timed_out", Json.Bool timed_out) ]);
                 ])
        | Commit { reads; writes; lock_hold } -> (
            match Hashtbl.find_opt pending e.serial with
            | None -> ()
            | Some (b, sem, attempt) ->
                Hashtbl.remove pending e.serial;
                complete ~b ~sem ~attempt ~ts_end:e.time ~outcome:"commit"
                  ~args:
                    [ ("reads", Json.Int reads); ("writes", Json.Int writes);
                      ("lock_hold", Json.Int lock_hold) ])
        | Abort { cause; reads; writes } -> (
            match Hashtbl.find_opt pending e.serial with
            | None -> ()
            | Some (b, sem, attempt) ->
                Hashtbl.remove pending e.serial;
                complete ~b ~sem ~attempt ~ts_end:e.time ~outcome:"abort"
                  ~args:
                    [ ("cause", Json.Str (cause_label cause));
                      ("reads", Json.Int reads); ("writes", Json.Int writes) ]))
      events;
    (* In-flight attempts at drain time: zero-length slices, so they
       stay visible rather than silently vanishing. *)
    Hashtbl.fold (fun serial v acc -> (serial, v) :: acc) pending []
    |> List.sort compare
    |> List.iter (fun (_, (b, sem, attempt)) ->
           complete ~b ~sem ~attempt ~ts_end:b.time ~outcome:"in-flight"
             ~args:[]);
    let meta =
      Json.Obj
        [
          ("name", Json.Str "process_name");
          ("ph", Json.Str "M");
          ("pid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.Str process_name) ]);
        ]
      :: (Hashtbl.fold (fun tid () acc -> tid :: acc) threads []
         |> List.sort compare
         |> List.map (fun tid ->
                Json.Obj
                  [
                    ("name", Json.Str "thread_name");
                    ("ph", Json.Str "M");
                    ("pid", Json.Int 0);
                    ("tid", Json.Int tid);
                    ( "args",
                      Json.Obj
                        [ ("name", Json.Str (Printf.sprintf "vthread %d" tid)) ]
                    );
                  ]))
    in
    Json.Obj
      [
        ("traceEvents", Json.Arr (meta @ List.rev !out @ extra));
        ("displayTimeUnit", Json.Str "ms");
      ]
end
