(* The benchmark's workloads and their seeded request generator, shared
   by the load generator and the in-process ladder so that both see the
   same requests for the same seed.

   Keys are partitioned between connections: connection [c] owns the
   keys [k] with [k mod conns = c].  Only the owner reads or writes a
   key, and a connection's requests execute in order, so each
   connection can predict every reply on its own keys exactly. *)

type op = Get of int | Put of int * string | Del of int | Snap

type t = {
  name : string;
  depth : int;  (** requests each connection keeps outstanding *)
  snap_pct : int;  (** SNAPSHOT-ITER ~snapshot *)
  upd_pct : int;  (** PUT/DEL ~classic, half each; the rest is GET ~elastic *)
}

let keys = 4096
let hot_keys = keys / 10
let hot_pct = 50
let conns = 2
let map_name = "bench"

let all =
  [
    (* 8, not 16: with 16 outstanding per connection about half of all
       requests queue behind a snapshot, so the median sat on the cliff
       between the two latency modes and moved by 2x between runs *)
    { name = "mixed"; depth = 8; snap_pct = 2; upd_pct = 20 };
    { name = "point"; depth = 16; snap_pct = 0; upd_pct = 20 };
    { name = "durable"; depth = 16; snap_pct = 0; upd_pct = 50 };
  ]

let of_name n = List.find_opt (fun m -> m.name = n) all
let owner k = k mod conns

type stream = {
  mix : t;
  conn : int;
  rng : Random.State.t;
  tag : char;  (** with [version], makes every written value distinct *)
  mutable version : int;
}

let make mix ~conn ~tag rng = { mix; conn; rng; tag; version = 0 }

let stream mix ~seed ~conn =
  make mix ~conn ~tag:'t' (Random.State.make [| seed; conn; 0x6d6978 |])

(* One of the connection's own keys: half the draws go to its share of
   the hot set (the lowest tenth of the keyspace). *)
let own_key s =
  let range =
    if Random.State.int s.rng 100 < hot_pct then hot_keys else keys
  in
  let n = (range - s.conn + conns - 1) / conns in
  s.conn + (conns * Random.State.int s.rng n)

(* A value names its key, so the half of a snapshot that belongs to the
   other connection can still be checked for format. *)
let value s k =
  s.version <- s.version + 1;
  Printf.sprintf "%d.%d%c%d" k s.conn s.tag s.version

let next s =
  let r = Random.State.int s.rng 100 in
  if r < s.mix.snap_pct then Snap
  else if r < s.mix.snap_pct + s.mix.upd_pct then
    let k = own_key s in
    if Random.State.bool s.rng then Put (k, value s k) else Del k
  else Get (own_key s)

(* ---- set-up ---------------------------------------------------------------- *)

let writes = { name = "writes"; depth = 16; snap_pct = 0; upd_pct = 100 }

(* The prefill: each own key present with probability 1/2, the
   occupancy that an even PUT/DEL mix sustains. *)
let prefill ~seed ~conn =
  let s =
    make writes ~conn ~tag:'p' (Random.State.make [| seed; conn; 0x66696c6c |])
  in
  List.filter_map
    (fun k -> if Random.State.bool s.rng then Some (Put (k, value s k)) else None)
    (List.init (keys / conns) (fun i -> conn + (i * conns)))

(* PUT/DEL requests of churn after the prefill, over all connections.
   Without them, mixed's snapshot fold slows by half over its first
   ~250k requests. *)
let churn_requests = 60_000

(* Churn after the prefill: the connection's share of [churn_requests]
   PUT/DEL requests on its own keys, which leave the map's nodes spread
   over the major heap as long traffic leaves them, at the cost of point
   writes rather than of snapshot folds. *)
let churn ~seed ~conn =
  let s =
    make writes ~conn ~tag:'c' (Random.State.make [| seed; conn; 0x6368726e |])
  in
  List.init (churn_requests / conns) (fun _ -> next s)

(* Requests of the workload's own mix after set-up and churn, before the
   window opens: the churn has already taken the heap past its ramp, so
   these only fill the pipelines and warm the workload's own paths. *)
let warmup_requests = 2_000

(* PUT/DEL requests that seed durable's log (about 3/4 of them write). *)
let seed_requests = 120_000

(* The durable seed: one writer over the whole keyspace, PUT and DEL
   in equal shares, so the map ends near half full. *)
let seed_ops ~seed =
  let s =
    make writes ~conn:0 ~tag:'s' (Random.State.make [| seed; 0x73656564 |])
  in
  List.init seed_requests (fun _ ->
      let k = Random.State.int s.rng keys in
      if Random.State.bool s.rng then Put (k, value s k) else Del k)

let is_mutation = function Put _ | Del _ -> true | Get _ | Snap -> false
