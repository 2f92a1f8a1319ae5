(* loadgen — the benchmark's client for one polytmd process.

   One thread drives [Mix.conns] connections over a Unix socket, each
   keeping the workload's depth of requests outstanding (a closed loop).  Every
   reply is checked: GET/PUT/DEL exactly against the issuing
   connection's model of its own keys, SNAPSHOT-ITER exactly on the
   issuing connection's half and for order and format on the other.
   Only successful replies count toward throughput and latency; BUSY
   replies, typed errors, protocol errors and wrong answers count as
   failed attempts.

   Modes:
   - [traffic]: read the server's pid from stdin, set up (a prefill, or
     load a seed model and verify the recovered map), churn the map if
     it was prefilled, warm up for [Mix.warmup_requests] replies, then
     measure for [--seconds]: throughput and latency timed here, the
     server's and the client's own CPU time read from /proc, op-log
     counters from INFO.  The server's peak RSS is read from /proc as
     the window opens, after the fixed work of set-up, churn and
     warm-up: over a window of fixed length it would grow with the
     machine's speed, on durable by a fifth, since the op log buffers
     a second of writes.
   - [setup]: the same set-up alone, for the set-up time.
   - [seed]: one connection writes [Mix.seed_requests] PUT/DEL requests
     over the whole keyspace, checks every ack, and saves the final map.

   The result is one JSON object on stdout. *)

open Perfbench

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("loadgen: " ^ m);
      exit 2)
    fmt

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt

(* ---- connections --------------------------------------------------------- *)

(* Readiness is a connect that succeeds: retried until [deadline]. *)
let connect path ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED | EAGAIN), _, _) ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then die "no server on %s" path;
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let write_all fd b =
  let s = Buffer.contents b in
  Buffer.clear b;
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* Blocking round trip for harness requests (PING, INFO, the recovery
   check): the reply body as [(bytes, offset, length)]. *)
let call fd rd fields =
  let b = Buffer.create 64 in
  Codec.add_request b fields;
  write_all fd b;
  let rec go () =
    match Codec.next_frame rd with
    | Some (off, len) -> (rd.Codec.buf, off, len)
    | None ->
        if Codec.fill rd fd = 0 then
          raise (Codec.Protocol "server closed the connection");
        go ()
  in
  go ()

(* ---- the model ------------------------------------------------------------ *)

(* [vals.(k)] is key [k]'s value; each connection touches only its own
   keys, so one array serves all of them.  [present.(c)] counts the
   keys of connection [c] that are bound. *)
type model = { vals : string option array; present : int array }

let empty_model () =
  { vals = Array.make Mix.keys None; present = Array.make Mix.conns 0 }

let bind m k v =
  if m.vals.(k) = None then m.present.(Mix.owner k) <- m.present.(Mix.owner k) + 1;
  m.vals.(k) <- Some v

let unbind m k =
  if m.vals.(k) <> None then m.present.(Mix.owner k) <- m.present.(Mix.owner k) - 1;
  m.vals.(k) <- None

let show = function None -> "nil" | Some v -> Printf.sprintf "%S" v

let expect_int b off len want what =
  let c = Codec.cursor b off len in
  Codec.expect c ':';
  let got = Codec.int_line c in
  if got <> want || not (Codec.at_end c) then
    wrong "%s replied %d, expected %d" what got want

(* A SNAPSHOT-ITER reply: [*n] of [*2 :key $value], keys ascending.
   Keys owned by [mine] must equal the model exactly (every bound key
   present, with its value); the rest must be in range and carry a
   value written for that key. *)
let check_snapshot m ~mine b off len =
  let c = Codec.cursor b off len in
  Codec.expect c '*';
  let n = Codec.int_line c in
  let last = ref (-1) and seen = ref 0 in
  for _ = 1 to n do
    Codec.expect c '*';
    if Codec.int_line c <> 2 then wrong "snapshot item is not a pair";
    Codec.expect c ':';
    let k = Codec.int_line c in
    if k <= !last || k >= Mix.keys then
      wrong "snapshot key %d after %d (out of order or range)" k !last;
    last := k;
    let vo, vl = Codec.bulk c in
    if mine k then begin
      incr seen;
      match m.vals.(k) with
      | Some v when Codec.equal_sub b vo vl v -> ()
      | want ->
          wrong "snapshot key %d = %S, expected %s" k
            (Bytes.sub_string b vo vl) (show want)
    end
    else
      let prefix = string_of_int k ^ "." in
      let pl = String.length prefix in
      if vl <= pl || not (Codec.equal_sub b vo pl prefix) then
        wrong "snapshot key %d holds a value of another key: %S" k
          (Bytes.sub_string b vo vl)
  done;
  if not (Codec.at_end c) then wrong "snapshot reply has trailing bytes";
  let want =
    Array.fold_left ( + ) 0
      (Array.of_list
         (List.filter_map
            (fun i -> if mine i then Some m.present.(i) else None)
            (List.init Mix.conns Fun.id)))
  in
  (* keys are distinct and each one seen matched a bound key *)
  if !seen <> want then wrong "snapshot holds %d own keys, expected %d" !seen want

(* Check one reply against the model and apply the op's effect. *)
let check m ~conn op b off len =
  match Codec.classify b off len with
  | (Codec.Busy | Codec.Error _) as e -> e
  | Codec.Value ->
      (match op with
      | Mix.Get k -> (
          match (m.vals.(k), Bytes.get b off) with
          | None, '_' when len = 2 -> ()
          | Some v, '$' ->
              let c = Codec.cursor b off len in
              let vo, vl = Codec.bulk c in
              if not (Codec.equal_sub b vo vl v && Codec.at_end c) then
                wrong "GET %d = %S, expected %S" k (Bytes.sub_string b vo vl) v
          | want, _ ->
              wrong "GET %d replied %S, expected %s" k
                (Bytes.sub_string b off len) (show want))
      | Mix.Put (k, v) ->
          expect_int b off len
            (if m.vals.(k) = None then 1 else 0)
            (Printf.sprintf "PUT %d" k);
          bind m k v
      | Mix.Del k ->
          expect_int b off len
            (if m.vals.(k) = None then 0 else 1)
            (Printf.sprintf "DEL %d" k);
          unbind m k
      | Mix.Snap -> check_snapshot m ~mine:(fun k -> Mix.owner k = conn) b off len);
      Codec.Value

(* ---- /proc and INFO -------------------------------------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_proc path =
  (* /proc files report length 0: read line by line *)
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_string b (input_line ic);
           Buffer.add_char b '\n'
         done
       with End_of_file -> ());
      Buffer.contents b)

(* CPU time of the whole process in ns: the run time of each of its
   threads from /proc/<pid>/task/*/schedstat, which counts to the
   nanosecond, where /proc/<pid>/stat counts in clock ticks of 10 ms
   (the client runs for under 80 ticks of a 2.4 s window). *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      let s = read_proc (Printf.sprintf "%s/%s/schedstat" dir tid) in
      match String.index_opt s ' ' with
      | Some i -> acc + int_of_string (String.sub s 0 i)
      | None -> die "cannot parse %s/%s/schedstat" dir tid)
    0 (Sys.readdir dir)

let vm_hwm_kb pid =
  let s = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  match
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id
  | None -> die "no VmHWM in /proc/%d/status" pid

let info fd rd =
  let b, off, len = call fd rd [ "INFO" ] in
  let c = Codec.cursor b off len in
  let vo, vl = Codec.bulk c in
  let field name =
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = name ->
            int_of_string (String.sub line (i + 1) (String.length line - i - 1))
        | _ -> acc)
      0
      (String.split_on_char '\n' (Bytes.sub_string b vo vl))
  in
  (field "persist_fsyncs", field "persist_bytes", field "persist_appends")

(* ---- the closed loop ------------------------------------------------------- *)

type conn = {
  id : int;
  fd : Unix.file_descr;
  rd : Codec.reader;
  wb : Buffer.t;
  inflight : (Mix.op * int) Queue.t;  (** op and its send time, ns *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable busy : int;
  mutable errors : int;
  mutable wrong : int;
  mutable first_wrong : string option;
}

let tally () =
  { attempted = 0; failed = 0; busy = 0; errors = 0; wrong = 0; first_wrong = None }

(* Keep [window] requests outstanding on every connection until [next]
   runs dry for all of them; [on_reply] sees each reply with its op, its
   send and receive times and its class.  Replies are matched to
   requests in order, as the server executes them. *)
let drive conns ~window ~next ~on_reply ~on_read =
  let refill c n =
    let now = Clock.now_ns () in
    let rec go i =
      if i < n then
        match next c with
        | Some op ->
            Codec.add_op c.wb op;
            Queue.push (op, now) c.inflight;
            go (i + 1)
        | None -> ()
    in
    go 0;
    if Buffer.length c.wb > 0 then write_all c.fd c.wb
  in
  Array.iter (fun c -> refill c window) conns;
  let busy () = Array.exists (fun c -> not (Queue.is_empty c.inflight)) conns in
  while busy () do
    let fds =
      Array.fold_left
        (fun acc c -> if Queue.is_empty c.inflight then acc else c.fd :: acc)
        [] conns
    in
    match Unix.select fds [] [] 10.0 with
    | [], _, _ -> raise (Codec.Protocol "no reply for 10 s")
    | ready, _, _ ->
        List.iter
          (fun fd ->
            let c = Option.get (Array.find_opt (fun c -> c.fd = fd) conns) in
            if Codec.fill c.rd c.fd = 0 then
              raise (Codec.Protocol "server closed the connection");
            let now = Clock.now_ns () in
            on_read now;
            let rec frames n =
              match Codec.next_frame c.rd with
              | Some (off, len) ->
                  let op, sent =
                    match Queue.take_opt c.inflight with
                    | Some x -> x
                    | None -> raise (Codec.Protocol "reply without a request")
                  in
                  on_reply c op ~sent ~now c.rd.Codec.buf off len;
                  frames (n + 1)
              | None -> n
            in
            refill c (frames 0))
          ready
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* Check a reply and fold its outcome into [t]; [true] when it succeeded. *)
let account t m ~conn op b off len =
  t.attempted <- t.attempted + 1;
  match check m ~conn op b off len with
  | Codec.Value -> true
  | Codec.Busy ->
      t.busy <- t.busy + 1;
      t.failed <- t.failed + 1;
      false
  | Codec.Error e ->
      if t.errors = 0 then prerr_endline ("loadgen: error reply: " ^ e);
      t.errors <- t.errors + 1;
      t.failed <- t.failed + 1;
      false
  | exception Wrong msg ->
      if t.first_wrong = None then t.first_wrong <- Some msg;
      t.wrong <- t.wrong + 1;
      t.failed <- t.failed + 1;
      false

let open_conns sock ~deadline n =
  Array.init n (fun id ->
      {
        id;
        fd = connect sock ~deadline;
        rd = Codec.reader ();
        wb = Buffer.create 4096;
        inflight = Queue.create ();
      })

(* Run each connection's list of requests, [window] outstanding on each. *)
let run_lists conns t m ~window (ops : Mix.op list array) =
  let todo = Array.copy ops in
  drive conns ~window
    ~next:(fun c ->
      match todo.(c.id) with
      | [] -> None
      | op :: rest ->
          todo.(c.id) <- rest;
          Some op)
    ~on_reply:(fun c op ~sent:_ ~now:_ b off len ->
      ignore (account t m ~conn:c.id op b off len))
    ~on_read:ignore

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0. else float_of_int sorted.(int_of_float (q *. float_of_int (n - 1)))

let json_result fields =
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}")

(* Set-up: a prefill, or the recovered map checked against the seed.  It
   ends at the prefill's last ack or the restarted server's first reply;
   returns that time and whether the recovered map matched. *)
let set_up conns t m ~seed ~model_in =
  match model_in with
  | None ->
      run_lists conns t m ~window:64
        (Array.init Mix.conns (fun conn -> Mix.prefill ~seed ~conn));
      (Unix.gettimeofday (), true)
  | Some file -> (
      String.split_on_char '\n' (read_file file)
      |> List.iter (fun line ->
             match String.index_opt line ' ' with
             | Some i ->
                 bind m
                   (int_of_string (String.sub line 0 i))
                   (String.sub line (i + 1) (String.length line - i - 1))
             | None -> ());
      let c0 = conns.(0) in
      ignore (call c0.fd c0.rd [ "PING" ]);
      let ready_at = Unix.gettimeofday () in
      let b, off, len = call c0.fd c0.rd [ "~snapshot"; "SNAPSHOT-ITER"; Mix.map_name ] in
      match check_snapshot m ~mine:(fun _ -> true) b off len with
      | () -> (ready_at, true)
      | exception Wrong msg ->
          prerr_endline ("loadgen: recovered map differs from the seed: " ^ msg);
          (ready_at, false))

let setup_only ~sock ~seed ~model_in =
  let m = empty_model () in
  let t = tally () in
  let conns = open_conns sock ~deadline:(Unix.gettimeofday () +. 60.) Mix.conns in
  let ready_at, verified = set_up conns t m ~seed ~model_in in
  Option.iter (fun m -> prerr_endline ("loadgen: wrong answer: " ^ m)) t.first_wrong;
  json_result
    [
      ("ready_at", Printf.sprintf "%.6f" ready_at);
      ("verified", string_of_bool verified);
      ("attempted", string_of_int t.attempted);
      ("failed", string_of_int t.failed);
      ("wrong", string_of_int t.wrong);
    ]

let traffic ~sock ~mix ~seed ~seconds ~pid ~model_in =
  let deadline = Unix.gettimeofday () +. 60. in
  let m = empty_model () in
  let t = tally () in
  let conns = open_conns sock ~deadline Mix.conns in
  let ready_at, verified = set_up conns t m ~seed ~model_in in
  (* a recovered map was rebuilt by replaying its log instead *)
  if model_in = None then
    run_lists conns t m ~window:Mix.writes.Mix.depth
      (Array.init Mix.conns (fun conn -> Mix.churn ~seed ~conn));
  let info_conn = connect sock ~deadline in
  let info_rd = Codec.reader () in
  (* warm-up, then a window of [seconds] timed here *)
  let streams = Array.init Mix.conns (fun conn -> Mix.stream mix ~seed ~conn) in
  let phase = ref `Warm and completed = ref 0 in
  let t0 = ref 0 and t1 = ref 0 in
  let me = Unix.getpid () in
  let cpu0 = ref 0 and cpu1 = ref 0 in
  let own0 = ref 0 and own1 = ref 0 in
  let info0 = ref (0, 0, 0) and info1 = ref (0, 0, 0) in
  let rss_kb = ref 0 in
  let ok = ref 0 and mutations = ref 0 in
  let lat = ref (Array.make (1 lsl 20) 0) in
  let record d =
    if !ok >= Array.length !lat then begin
      let a = Array.make (2 * Array.length !lat) 0 in
      Array.blit !lat 0 a 0 !ok;
      lat := a
    end;
    !lat.(!ok) <- d;
    incr ok
  in
  let window_ns = int_of_float (seconds *. 1e9) in
  drive conns ~window:mix.Mix.depth
    ~next:(fun c -> if !phase = `Done then None else Some (Mix.next streams.(c.id)))
    ~on_read:(fun now ->
      match !phase with
      | `Warm when !completed >= Mix.warmup_requests ->
          info0 := info info_conn info_rd;
          rss_kb := vm_hwm_kb pid;
          cpu0 := cpu_ns pid;
          own0 := cpu_ns me;
          t0 := Clock.now_ns ();
          phase := `Window
      | `Window when now - !t0 >= window_ns ->
          t1 := now;
          own1 := cpu_ns me;
          cpu1 := cpu_ns pid;
          info1 := info info_conn info_rd;
          phase := `Done
      | _ -> ())
    ~on_reply:(fun c op ~sent ~now b off len ->
      let good = account t m ~conn:c.id op b off len in
      incr completed;
      if good && !phase = `Window && now >= !t0 then begin
        record (now - sent);
        if Mix.is_mutation op then incr mutations
      end);
  let window_s = float_of_int (!t1 - !t0) /. 1e9 in
  let sorted = Array.sub !lat 0 !ok in
  Array.sort Int.compare sorted;
  let f0, b0, a0 = !info0 and f1, b1, a1 = !info1 in
  Option.iter (fun m -> prerr_endline ("loadgen: wrong answer: " ^ m)) t.first_wrong;
  json_result
    [
      ("ready_at", Printf.sprintf "%.6f" ready_at);
      ("verified", string_of_bool verified);
      ("window_s", Printf.sprintf "%.6f" window_s);
      ("ok", string_of_int !ok);
      ("mutations", string_of_int !mutations);
      ("p50_us", Printf.sprintf "%.3f" (percentile sorted 0.50 /. 1e3));
      ("p99_us", Printf.sprintf "%.3f" (percentile sorted 0.99 /. 1e3));
      ("cpu_s", Printf.sprintf "%.6f" (float_of_int (!cpu1 - !cpu0) /. 1e9));
      ("client_cpu_s", Printf.sprintf "%.6f" (float_of_int (!own1 - !own0) /. 1e9));
      ("rss_kb", string_of_int !rss_kb);
      ("fsyncs", string_of_int (f1 - f0));
      ("log_bytes", string_of_int (b1 - b0));
      ("appends", string_of_int (a1 - a0));
      ("attempted", string_of_int t.attempted);
      ("failed", string_of_int t.failed);
      ("busy", string_of_int t.busy);
      ("errors", string_of_int t.errors);
      ("wrong", string_of_int t.wrong);
    ]

let seed_store ~sock ~seed ~model_out =
  let deadline = Unix.gettimeofday () +. 60. in
  let m = empty_model () in
  let t = tally () in
  let conn = (open_conns sock ~deadline 1).(0) in
  let records = ref 0 in
  let todo = ref (Mix.seed_ops ~seed) in
  drive [| conn |] ~window:64
    ~next:(fun _ ->
      match !todo with
      | [] -> None
      | op :: rest ->
          todo := rest;
          Some op)
    ~on_read:ignore
    ~on_reply:(fun _ op ~sent:_ ~now:_ b off len ->
      (* a PUT always writes; a DEL writes only when the key was bound *)
      (match op with
      | Mix.Put _ -> incr records
      | Mix.Del k when m.vals.(k) <> None -> incr records
      | _ -> ());
      (* one connection owns every key here *)
      match check m ~conn:0 op b off len with
      | Codec.Value -> t.attempted <- t.attempted + 1
      | Codec.Busy | Codec.Error _ -> die "seed write failed"
      | exception Wrong msg -> die "seed reply wrong: %s" msg);
  let oc = open_out model_out in
  Array.iteri
    (fun k v -> Option.iter (fun v -> Printf.fprintf oc "%d %s\n" k v) v)
    m.vals;
  close_out oc;
  json_result
    [
      ("ops", string_of_int t.attempted);
      ("records", string_of_int !records);
      ("bound", string_of_int (Array.fold_left ( + ) 0 m.present));
    ]

let () =
  let mode = ref "traffic" and sock = ref "" and workload = ref "" in
  let seed = ref 1 and seconds = ref 10. in
  let model_in = ref "" in
  let model_out = ref "" in
  Arg.parse
    [
      ("--mode", Arg.Set_string mode, "traffic | setup | seed");
      ("--sock", Arg.Set_string sock, "PATH server socket");
      ("--workload", Arg.Set_string workload, "NAME mixed | point | durable");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--model-in", Arg.Set_string model_in, "FILE seeded map to verify");
      ("--model-out", Arg.Set_string model_out, "FILE where seed writes its map");
    ]
    (fun a -> die "unexpected argument %S" a)
    "loadgen [options]";
  if !sock = "" then die "--sock is required";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let model_in = if !model_in = "" then None else Some !model_in in
  (* the server's pid arrives on stdin once it has been spawned, so the
     client's own start-up falls outside the set-up time *)
  let server_pid () =
    match int_of_string_opt (String.trim (input_line stdin)) with
    | Some p when p > 0 -> p
    | _ -> die "no server pid on stdin"
    | exception End_of_file -> die "no server pid on stdin"
  in
  try
    match !mode with
    | "seed" ->
        if !model_out = "" then die "--model-out is required";
        seed_store ~sock:!sock ~seed:!seed ~model_out:!model_out
    | "setup" ->
        ignore (server_pid ());
        setup_only ~sock:!sock ~seed:!seed ~model_in
    | "traffic" ->
        let mix =
          match Mix.of_name !workload with
          | Some m -> m
          | None -> die "unknown workload %S" !workload
        in
        let pid = server_pid () in
        traffic ~sock:!sock ~mix ~seed:!seed ~seconds:!seconds ~pid ~model_in
    | m -> die "unknown mode %S" m
  with
  | Codec.Protocol m -> die "protocol error: %s" m
  | Unix.Unix_error (e, fn, _) -> die "%s: %s" fn (Unix.error_message e)
