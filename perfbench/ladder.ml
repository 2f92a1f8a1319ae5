(* ladder — the benchmark's traced run: polytmd's layers called
   in-process on one thread, with the workload's generator and seed.

   Each rung times calls into one layer's public functions (Stm,
   Registry, Wire, Session, Aof, Persist) and records a span per call:
   name, start, end, parent span and request id.  A layer figure is the
   median over rounds of the mean span duration; allocation is the
   [Gc.minor_words] delta around the same calls.  Spans are kept in
   memory and written out at the end.

   The session rung drives [Session] inline over socketpairs, the way
   the server's allocation probe does, in batches of the workload's
   depth alternating between [Mix.conns] sessions, as the load
   generator's connections do.  Its time splits into decode, resolve,
   transaction and encode, measured on their own rungs, plus a residual
   the run reports.  The figures that are differences (spans on against
   off, persistence on against off) feed the same batches to two
   sessions in turn, so that the machine's drift falls on both alike.

   The result is one JSON object on stdout mapping each metric to
   [value, unit]. *)

open Perfbench
module Wire = Polytm_server.Wire
module Registry = Polytm_server.Registry
module Session = Polytm_server.Session
module Limits = Polytm_server.Limits
module Persist = Polytm_server.Persist
module Aof = Polytm_persist.Aof
module Pframe = Polytm_persist.Frame
module S = Registry.S
module Sem = Polytm.Semantics

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("ladder: " ^ m);
      exit 2)
    fmt

(* ---- spans ---------------------------------------------------------------- *)

module Spans = struct
  let cap = 100_000
  let per_name = 2_000
  let kept = Hashtbl.create 16
  let names = Array.make cap ""
  let starts = Array.make cap 0
  let stops = Array.make cap 0
  let parents = Array.make cap (-1)
  let reqs = Array.make cap (-1)
  let count = ref 0
  let dropped = ref 0

  (* The first [per_name] spans of each name are kept; returns the
     span's id, or -1 for a span not kept. *)
  let add name ~start ~stop ~parent ~req =
    let i = !count in
    let k = Option.value (Hashtbl.find_opt kept name) ~default:0 in
    if i < cap && k < per_name then begin
      Hashtbl.replace kept name (k + 1);
      names.(i) <- name;
      starts.(i) <- start;
      stops.(i) <- stop;
      parents.(i) <- parent;
      reqs.(i) <- req;
      count := i + 1;
      i
    end
    else begin
      incr dropped;
      -1
    end

  let write path =
    let oc = open_out path in
    for i = 0 to !count - 1 do
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \
         \"parent\": %d, \"req\": %d}\n"
        i names.(i) starts.(i) stops.(i) parents.(i) reqs.(i)
    done;
    close_out oc
end

let now = Clock.now_ns

(* ---- statistics ------------------------------------------------------------ *)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let rounds = 5

(* [rounds] rounds of [f], each returning (total, count); the median of
   the per-round means. *)
let per_round f =
  median
    (List.init rounds (fun _ ->
         let total, n = f () in
         if n = 0 then 0. else total /. float_of_int n))

(* ---- the store under test --------------------------------------------------- *)

let cmd_of = function
  | Mix.Get k -> Wire.Get (Mix.map_name, k)
  | Mix.Put (k, v) -> Wire.Put (Mix.map_name, k, v)
  | Mix.Del k -> Wire.Del (Mix.map_name, k)
  | Mix.Snap -> Wire.Snapshot_iter Mix.map_name

let sem_of = function
  | Mix.Get _ -> Sem.Elastic
  | Mix.Put _ | Mix.Del _ -> Sem.Classic
  | Mix.Snap -> Sem.Snapshot

(* Resolve one point op, then run its body, the way the session does. *)
let resolve reg op =
  match Registry.resolve reg (cmd_of op) with
  | Ok r -> r
  | Error _ -> die "the registry refused a generated request"

let commit op { Registry.site; run; _ } =
  match site with
  | Registry.Single stm -> (
      match S.try_atomically ~sem:(sem_of op) stm (fun _ -> run ()) with
      | S.Committed r -> r
      | _ -> die "transaction did not commit")
  | _ -> die "a one-shard registry resolved a spanning site"

let exec reg op = commit op (resolve reg op)

(* A registry holding the workload's map, empty. *)
let fresh_registry () =
  let reg = Registry.create () in
  (match Registry.ensure reg Wire.Kmap Mix.map_name with
  | Ok _ -> ()
  | Error _ -> die "cannot create the map");
  reg

(* The load generator's set-up: the prefill, then the churn that
   leaves the map's nodes spread over the major heap as long traffic
   does. *)
let populate reg ~seed =
  for conn = 0 to Mix.conns - 1 do
    List.iter (fun op -> ignore (exec reg op)) (Mix.prefill ~seed ~conn);
    List.iter (fun op -> ignore (exec reg op)) (Mix.churn ~seed ~conn)
  done

(* The workload's request stream: batches of the workload's depth
   alternating between the connections' generators. *)
type gen = { depth : int; streams : Mix.stream array; mutable issued : int }

let gen mix ~seed =
  {
    depth = mix.Mix.depth;
    streams = Array.init Mix.conns (fun conn -> Mix.stream mix ~seed ~conn);
    issued = 0;
  }

let batch g =
  let conn = g.issued / g.depth mod Mix.conns in
  g.issued <- g.issued + g.depth;
  (conn, List.init g.depth (fun _ -> Mix.next g.streams.(conn)))

(* ---- rungs ------------------------------------------------------------------ *)

let ops_per_round = 20_000

(* Stm: an empty transaction, and 64-op read and write transactions on
   the registry's instance. *)
let stm_rung reg =
  let stm = Registry.stm reg in
  let tvs = Array.init 64 (fun i -> S.tvar stm i) in
  let timed name body =
    per_round (fun () ->
        let total = ref 0 in
        for i = 1 to ops_per_round do
          let t0 = now () in
          S.atomically stm body;
          let t1 = now () in
          ignore (Spans.add name ~start:t0 ~stop:t1 ~parent:(-1) ~req:i);
          total := !total + (t1 - t0)
        done;
        (float_of_int !total, ops_per_round))
  in
  let empty = timed "stm.tx_empty" (fun _ -> ()) in
  let reads =
    timed "stm.tx_read64" (fun tx ->
        for i = 0 to 63 do
          ignore (S.read tx tvs.(i))
        done)
  in
  let writes =
    timed "stm.tx_write64" (fun tx ->
        for i = 0 to 63 do
          S.write tx tvs.(i) i
        done)
  in
  (empty, (reads -. empty) /. 64., (writes -. empty) /. 64.)

type point = {
  get_ns : float;
  put_ns : float;
  del_ns : float;
  get_words : float;
  put_words : float;
  resolve_ns : float;
  replies : Wire.response array;  (** point replies, for the encode rung *)
}

(* Stm_map point ops through Registry.resolve plus S.try_atomically, as
   the session runs them; each is a span with the two calls as children. *)
let point_rung reg g =
  let replies = Array.make ops_per_round Wire.Nil in
  let names = [| "stm_map.get"; "stm_map.put"; "stm_map.del" |] in
  let round () =
    let ns = Array.make 3 0. and words = Array.make 3 0. and n = Array.make 3 0 in
    let resolve_ns = ref 0 and done_ = ref 0 in
    while !done_ < ops_per_round do
      List.iter
        (fun op ->
          let k =
            match op with
            | Mix.Get _ -> 0
            | Mix.Put _ -> 1
            | Mix.Del _ -> 2
            | Mix.Snap -> -1
          in
          if k >= 0 && !done_ < ops_per_round then begin
            let req = !done_ in
            let w0 = Gc.minor_words () in
            let t0 = now () in
            let site = resolve reg op in
            let t1 = now () in
            let r = commit op site in
            let t2 = now () in
            let w1 = Gc.minor_words () in
            let parent = Spans.add names.(k) ~start:t0 ~stop:t2 ~parent:(-1) ~req in
            ignore (Spans.add "registry.resolve" ~start:t0 ~stop:t1 ~parent ~req);
            ignore (Spans.add "stm.try_atomically" ~start:t1 ~stop:t2 ~parent ~req);
            replies.(req) <- r;
            ns.(k) <- ns.(k) +. float_of_int (t2 - t0);
            words.(k) <- words.(k) +. (w1 -. w0);
            n.(k) <- n.(k) + 1;
            resolve_ns := !resolve_ns + (t1 - t0);
            incr done_
          end)
        (snd (batch g))
    done;
    let mean a k = if n.(k) = 0 then 0. else a.(k) /. float_of_int n.(k) in
    [| mean ns 0; mean ns 1; mean ns 2; mean words 0; mean words 1;
       float_of_int !resolve_ns /. float_of_int ops_per_round |]
  in
  let results = List.init rounds (fun _ -> round ()) in
  let med i = median (List.map (fun r -> r.(i)) results) in
  { get_ns = med 0; put_ns = med 1; del_ns = med 2; get_words = med 3;
    put_words = med 4; resolve_ns = med 5; replies }

(* Stm_map's fold plus item encoding, through Registry.snapshot_stream
   under a snapshot transaction: (us per fold, entries, words). *)
let snapshot_rung reg =
  let items = Wire.Obuf.create ~initial:4096 () in
  let folds = 40 in
  let samples =
    List.init rounds (fun _ ->
        let total = ref 0 and words = ref 0. and entries = ref 0 in
        for i = 1 to folds do
          let w0 = Gc.minor_words () in
          let t0 = now () in
          let n =
            match Registry.snapshot_stream reg Mix.map_name items with
            | Ok (Registry.Single stm, enc) -> (
                match S.try_atomically ~sem:Sem.Snapshot stm (fun _ -> enc ()) with
                | S.Committed n -> n
                | _ -> die "snapshot did not commit")
            | _ -> die "cannot stream the map"
          in
          let t1 = now () in
          words := !words +. (Gc.minor_words () -. w0);
          ignore (Spans.add "stm_map.snapshot" ~start:t0 ~stop:t1 ~parent:(-1) ~req:i);
          total := !total + (t1 - t0);
          entries := n
        done;
        ( float_of_int !total /. float_of_int folds /. 1e3,
          !entries,
          !words /. float_of_int folds ))
  in
  let us = median (List.map (fun (u, _, _) -> u) samples) in
  let entries = median (List.map (fun (_, e, _) -> float_of_int e) samples) in
  let words = median (List.map (fun (_, _, w) -> w) samples) in
  (us, entries, words)

(* Wire: Decoder.next_request per frame over the workload's requests as
   the load generator encodes them, and write_response_obuf per point
   reply.  Returns (decode ns, encode ns, request bytes per op). *)
let wire_rung g replies =
  let bytes = ref 0 and frames = ref 0 in
  let decode =
    per_round (fun () ->
        let total = ref 0 and n = ref 0 in
        let dec = Wire.Decoder.create () in
        let b = Buffer.create 2048 in
        while !n < ops_per_round do
          let _, ops = batch g in
          List.iter (Codec.add_op b) ops;
          bytes := !bytes + Buffer.length b;
          Wire.Decoder.feed_string dec (Buffer.contents b);
          Buffer.clear b;
          let rec go () =
            let t0 = now () in
            match Wire.Decoder.next_request dec with
            | `Ok _ ->
                let t1 = now () in
                ignore (Spans.add "wire.decode" ~start:t0 ~stop:t1 ~parent:(-1) ~req:!n);
                total := !total + (t1 - t0);
                incr n;
                incr frames;
                go ()
            | `Await -> ()
            | `Bad m | `Corrupt m -> die "decoder rejected a request: %s" m
          in
          go ()
        done;
        (float_of_int !total, !n))
  in
  let ob = Wire.Obuf.create ~initial:8192 () in
  let encode =
    per_round (fun () ->
        let total = ref 0 in
        Array.iteri
          (fun i r ->
            if i mod g.depth = 0 then Wire.Obuf.clear ob;
            let t0 = now () in
            Wire.write_response_obuf ob r;
            let t1 = now () in
            ignore (Spans.add "wire.encode" ~start:t0 ~stop:t1 ~parent:(-1) ~req:i);
            total := !total + (t1 - t0))
          replies;
        (float_of_int !total, Array.length replies))
  in
  (decode, encode, float_of_int !bytes /. float_of_int (max 1 !frames))

let inline_services =
  { Session.submit = (fun f -> f ()); post = (fun f -> f ()) }

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        die "a request batch did not fit the socket buffer"

(* One registry's sessions, driven inline over socketpairs, one per
   connection; with [spans], each on_readable/try_flush pair is timed
   and recorded. *)
type side = {
  reg : Registry.t;
  spans : bool;
  sessions : (Unix.file_descr * Unix.file_descr * Session.stats * Session.t) array;
}

let side reg ~spans =
  let open_session _ =
    let sfd, cfd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_nonblock sfd;
    Unix.set_nonblock cfd;
    let stats = Session.create_stats () in
    let sess =
      Session.create ~limits:Limits.default ~registry:reg ~stats
        ~services:inline_services sfd
    in
    (sfd, cfd, stats, sess)
  in
  { reg; spans; sessions = Array.init Mix.conns open_session }

let close_side s =
  Array.iter
    (fun (sfd, cfd, _, sess) ->
      Session.teardown sess;
      Unix.close sfd;
      Unix.close cfd)
    s.sessions

type tally = {
  mutable sess_ns : int;  (** inside Session calls; spans on only *)
  mutable sess_words : float;
  mutable batch_ns : int;  (** the whole batch: write, session, drain *)
  mutable bytes_out : int;
}

let rbuf = Bytes.create 65536

let rec drain cfd n =
  match Unix.read cfd rbuf 0 (Bytes.length rbuf) with
  | 0 -> n
  | k -> drain cfd (n + k)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> n

(* Run one batch of [depth] requests through a side's session for
   connection [conn] until every reply is out. *)
let feed s t ~conn ~req ~depth frame =
  let _, cfd, stats, sess = s.sessions.(conn) in
  let b0 = now () in
  write_all cfd frame 0;
  let target = stats.Session.replies + depth in
  let guard = ref 0 in
  while stats.Session.replies < target do
    incr guard;
    if !guard > 100_000 then die "the session made no progress";
    if s.spans then begin
      let w0 = Gc.minor_words () in
      let t0 = now () in
      Session.on_readable sess;
      Session.try_flush sess;
      let t1 = now () in
      t.sess_words <- t.sess_words +. (Gc.minor_words () -. w0);
      ignore (Spans.add "session.batch" ~start:t0 ~stop:t1 ~parent:(-1) ~req);
      t.sess_ns <- t.sess_ns + (t1 - t0)
    end
    else begin
      Session.on_readable sess;
      Session.try_flush sess
    end;
    t.bytes_out <- drain cfd t.bytes_out
  done;
  t.batch_ns <- t.batch_ns + (now () - b0)

type round = { tallies : tally array; ops : int; mutations : int }

(* Drive [sides], on identically populated registries, with the same
   requests: [rounds] rounds of [n_ops], each batch fed to every side in
   turn, starting with a different side each batch.  Two sides see the
   machine alike, so their difference is the sides' own, not the drift
   between two runs. *)
let session_rounds sides g ~n_ops =
  let buf = Buffer.create 4096 in
  let n = Array.length sides in
  List.init rounds (fun _ ->
      let tallies =
        Array.init n (fun _ ->
            { sess_ns = 0; sess_words = 0.; batch_ns = 0; bytes_out = 0 })
      in
      let ops = ref 0 and mutations = ref 0 in
      while !ops < n_ops do
        let conn, batch_ops = batch g in
        List.iter
          (fun op ->
            Codec.add_op buf op;
            if Mix.is_mutation op then incr mutations)
          batch_ops;
        let frame = Buffer.contents buf in
        Buffer.clear buf;
        let req = !ops and depth = g.depth in
        for i = 0 to n - 1 do
          let k = (req / depth + i) mod n in
          feed sides.(k) tallies.(k) ~conn ~req ~depth frame
        done;
        ops := !ops + depth
      done;
      { tallies; ops = !ops; mutations = !mutations })

(* Aof: append the workload's mutation records (payload = the hint-free
   wire frame, as the commit hook logs it) and sync once per batch of
   requests, as group commit does.  Returns (append ns, sync us). *)
let aof_rung g ~dir =
  let path = Filename.concat dir "aof-rung.ptmlog" in
  let aof = Aof.open_log path in
  let b = Buffer.create 256 in
  let appends = ref [] and syncs = ref [] in
  for _ = 1 to rounds do
    let app = ref 0 and n_app = ref 0 and sync = ref 0 and n_sync = ref 0 in
    while !n_app < 2_000 do
      let _, ops = batch g in
      List.iter
        (fun op ->
          if Mix.is_mutation op then begin
            Codec.add_op ~hint:false b op;
            let payload = Buffer.contents b in
            Buffer.clear b;
            let hdr =
              { Pframe.rtype = Pframe.rt_op; algo = 0; shard = 0; stamp = !n_app }
            in
            let t0 = now () in
            ignore (Aof.append aof hdr ~payload);
            let t1 = now () in
            ignore (Spans.add "aof.append" ~start:t0 ~stop:t1 ~parent:(-1) ~req:!n_app);
            app := !app + (t1 - t0);
            incr n_app
          end)
        ops;
      let t0 = now () in
      Aof.sync aof;
      let t1 = now () in
      ignore (Spans.add "aof.sync" ~start:t0 ~stop:t1 ~parent:(-1) ~req:!n_sync);
      sync := !sync + (t1 - t0);
      incr n_sync
    done;
    appends := (float_of_int !app /. float_of_int !n_app) :: !appends;
    syncs := (float_of_int !sync /. float_of_int !n_sync /. 1e3) :: !syncs
  done;
  Aof.close aof;
  Sys.remove path;
  (median !appends, median !syncs)

let recover_us_per_record dir =
  match Persist.recover ~dir (Registry.create ()) with
  | Ok r when r.Persist.r_replayed > 0 ->
      r.Persist.r_ms *. 1e3 /. float_of_int r.Persist.r_replayed
  | Ok _ -> die "nothing to replay in %s" dir
  | Error m -> die "recovery failed: %s" m

let () =
  let workload = ref "" and seed = ref 1 and dir = ref "" in
  let replay_dir = ref "" and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME mixed | point | durable");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--dir", Arg.Set_string dir, "DIR working directory for the log rungs");
      ("--replay-dir", Arg.Set_string replay_dir, "DIR crashed data directory to replay");
      ("--spans-out", Arg.Set_string spans_out, "FILE where the spans are written");
    ]
    (fun a -> die "unexpected argument %S" a)
    "ladder [options]";
  let mix =
    match Mix.of_name !workload with Some m -> m | None -> die "unknown workload %S" !workload
  in
  if !dir = "" then die "--dir is required";
  let seed = !seed in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir !dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let reg = fresh_registry () in
  populate reg ~seed;
  let g = gen mix ~seed in
  let tx_empty, read_ns, write_ns = stm_rung reg in
  let p = point_rung reg g in
  let snap_us, snap_entries, snap_words = snapshot_rung reg in
  let decode_ns, encode_ns, bytes_in = wire_rung g p.replies in
  let populated () =
    let reg = fresh_registry () in
    populate reg ~seed;
    reg
  in
  let median_over rs f = median (List.map f rs) in
  let n_ops = 8_000 in
  (* Session rung, persistence off, one session alone as the server
     runs it: two registries fed in turn evict each other's map from
     the caches, and on mixed read 73 us per op against 48 us alone. *)
  let solo = side (populated ()) ~spans:true in
  let stm = Registry.stm solo.reg in
  S.reset_stats stm;
  let alone = session_rounds [| solo |] (gen mix ~seed) ~n_ops in
  let stats = S.stats stm in
  close_side solo;
  let per_op f =
    median_over alone (fun r -> f r.tallies.(0) /. float_of_int r.ops)
  in
  let sess_ns = per_op (fun t -> float_of_int t.sess_ns) in
  let sess_words = per_op (fun t -> t.sess_words) in
  let bytes_out = per_op (fun t -> float_of_int t.bytes_out) in
  let starts_per_commit =
    float_of_int stats.S.starts /. float_of_int (max 1 stats.S.commits)
  in
  (* The tracing overhead: the same session with spans on against off. *)
  let off = side (populated ()) ~spans:false in
  let on = side (populated ()) ~spans:true in
  let traced = session_rounds [| off; on |] (gen mix ~seed) ~n_ops in
  close_side off;
  close_side on;
  let overhead =
    median_over traced (fun r ->
        let t = r.tallies in
        (float_of_int t.(1).batch_ns /. float_of_int t.(0).batch_ns) -. 1.)
  in
  (* The same session with persistence activated under durable's policy
     (fsync everysec, whose once-a-second sync runs off the ack path)
     against it off: the difference per mutation is the commit hook and
     the log append. *)
  let pdir = Filename.concat !dir "persist" in
  let plain = side (populated ()) ~spans:true in
  let logged_reg = fresh_registry () in
  let recovered =
    match Persist.recover ~dir:pdir logged_reg with
    | Ok r -> r
    | Error m -> die "%s" m
  in
  populate logged_reg ~seed;
  let persist =
    match Persist.activate ~dir:pdir ~policy:`Everysec logged_reg recovered with
    | Ok t -> t
    | Error m -> die "cannot activate persistence: %s" m
  in
  let logged = side logged_reg ~spans:true in
  let persisted = session_rounds [| plain; logged |] (gen mix ~seed) ~n_ops in
  close_side plain;
  close_side logged;
  Persist.stop persist;
  let persist_ns =
    median_over persisted (fun r ->
        let t = r.tallies in
        float_of_int (t.(1).sess_ns - t.(0).sess_ns) /. float_of_int (max 1 r.mutations))
  in
  let replay_us =
    recover_us_per_record (if !replay_dir = "" then pdir else !replay_dir)
  in
  let append_ns, sync_us = aof_rung g ~dir:!dir in
  (* Reconcile the session with its parts, weighted by the mix. *)
  let share pct = float_of_int pct /. 100. in
  let upd = share mix.Mix.upd_pct and snap = share mix.Mix.snap_pct in
  let get = 1. -. upd -. snap in
  let tx_ns =
    (get *. p.get_ns)
    +. (upd /. 2. *. (p.put_ns +. p.del_ns))
    +. (snap *. snap_us *. 1e3)
    -. ((get +. upd) *. p.resolve_ns)
  in
  let point_share = get +. upd in
  let residual =
    sess_ns -. decode_ns -. (point_share *. (p.resolve_ns +. encode_ns)) -. tx_ns
  in
  Printf.eprintf
    "ladder: session %.0f ns/op = decode %.0f + resolve %.0f + tx %.0f + \
     encode %.0f + residual %.0f (%.1f%%)\n"
    sess_ns decode_ns (point_share *. p.resolve_ns) tx_ns
    (point_share *. encode_ns) residual (100. *. residual /. sess_ns);
  if !Spans.dropped > 0 then
    Printf.eprintf "ladder: kept %d spans, the first %d of each name; %d not kept\n"
      !Spans.count Spans.per_name !Spans.dropped;
  if !spans_out <> "" then Spans.write !spans_out;
  let metrics =
    [
      ("stm.tx_empty_ns", tx_empty, "ns");
      ("stm.read_ns", read_ns, "ns");
      ("stm.write_ns", write_ns, "ns");
      ("stm.starts_per_commit", starts_per_commit, "ratio");
      ("stm_map.get_ns", p.get_ns, "ns");
      ("stm_map.put_ns", p.put_ns, "ns");
      ("stm_map.del_ns", p.del_ns, "ns");
      ("stm_map.get_words", p.get_words, "words");
      ("stm_map.put_words", p.put_words, "words");
      ("stm_map.snapshot_us", snap_us, "us");
      ("stm_map.snapshot_ns_per_entry", snap_us *. 1e3 /. snap_entries, "ns");
      ("stm_map.snapshot_entries", snap_entries, "count");
      ("stm_map.snapshot_words_per_entry", snap_words /. snap_entries, "words");
      ("wire.decode_ns", decode_ns, "ns");
      ("wire.encode_ns", encode_ns, "ns");
      ("wire.bytes_in_per_op", bytes_in, "B");
      ("wire.bytes_out_per_op", bytes_out, "B");
      ("registry.resolve_ns", p.resolve_ns, "ns");
      ("session.ns_per_op", sess_ns, "ns");
      ("session.words_per_op", sess_words, "words");
      ("session.residual_ns_per_op", residual, "ns");
      ("aof.append_ns", append_ns, "ns");
      ("aof.sync_us", sync_us, "us");
      ("persist.ns_per_mutation", persist_ns, "ns");
      ("persist.replay_us_per_record", replay_us, "us");
      ("trace.overhead_frac", overhead, "ratio");
    ]
  in
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map
           (fun (k, v, u) -> Printf.sprintf "%S: [%.17g, %S]" k v u)
           metrics)
    ^ "}")
