(* N-client incast over the switched star fabric, sharded across domains.

   The first workload that needs more hosts than one simulator comfortably
   holds: [fan_in] TCP clients behind a store-and-forward switch fire
   synchronized request bursts at one server, and the server's access link
   plus the switch's bounded egress queue produce the classic incast tail.

   Hosts shard across domains: shard 0 owns the switch and the server,
   client shards own [fan_in / n] clients each.  Every client's access
   segment is split into two half-links — the client half on its shard's
   simulator, the switch half on shard 0's — joined by the
   {!Ns.Ether.Link.set_remote}/{!Ns.Ether.Link.inject} exchange.  Shards
   advance in lock-step epochs bounded by the minimum cross-shard wire
   latency, and cross-shard frames are injected in fixed shard order at
   every barrier, so the whole run — and its digest — is bit-identical at
   any [jobs] count, including 1. *)

module Ns = Protolat_netsim
module Obs = Protolat_obs
module T = Protolat_tcpip
module Util = Protolat_util

(* epoch barrier: no frame crosses shards in less than the smallest
   frame's serialization plus propagation, so an epoch that ends at
   [min next event + delta_us] can never miss a cross-shard arrival *)
let propagation_us = 0.3

let delta_us = Ns.Ether.tx_time_us 0 +. propagation_us

let server_port = 7000

let client_port = 10_000

type workload = {
  req_bytes : int;
  resp_bytes : int;
  requests_per_client : int;
  stagger_us : float;  (** connect spacing; the burst itself is synchronized *)
  switch_latency_us : float;
  port_queue_frames : int;
  horizon_us : float;
}

let default_workload =
  { req_bytes = 64;
    resp_bytes = 512;
    requests_per_client = 4;
    stagger_us = 50.0;
    switch_latency_us = 5.0;
    port_queue_frames = 32;
    horizon_us = 2_000_000.0 }

(* client shards beyond the hub: fixed by fan-in alone (never by [jobs]),
   because the shard layout determines per-shard event interleaving *)
let client_shards fan_in = min fan_in 8

(* global host index: server 0, client k at 1+k — addressing reuses the
   stack's pure per-index functions so the static forwarding tables and
   every route agree without coordination *)
let mac_of = T.Stack.mac_of

let ip_of = T.Stack.ip_of

type client = {
  g : int;  (** global host index *)
  host : T.Stack.host;
  link : Ns.Ether.Link.t;  (** client half of the access segment *)
  hist : Util.Stats.Hist.t;
  mutable session : T.Tcp.session option;
  mutable started : bool;
  mutable sent : int;
  mutable completed : int;
  mutable resp_acc : int;
  mutable send_t : float;
}

(* a cross-shard frame parked at the barrier: [link]/[station] name the
   receiving half-link, [at] the absolute arrival time *)
type parked = {
  p_link : Ns.Ether.Link.t;
  p_station : int;
  p_at : float;
  p_frame : Ns.Ether.frame;
}

type shard = {
  sim : Ns.Sim.t;
  metrics : Obs.Metrics.t;
  outbox : parked Queue.t;
      (* filled only while this shard's simulator runs (single domain),
         drained only at the barrier (coordinator) *)
}

type cell = {
  fan_in : int;
  seed : int;
  completed : int;
  total : int;
  lat : Util.Stats.Hist.digest;  (** per-exchange completion latency *)
  retransmits : int;
  queue_drops : int;
  queue_peak : int;
  epochs : int;
  end_us : float;
  drained : bool;
  violations : string list;
  digest : string;
}

let run_cell ?(wl = default_workload) ?(jobs = 1) ~fan_in ~seed () =
  if fan_in < 1 || fan_in > 1024 then
    invalid_arg "Incast.run_cell: fan_in must be in 1..1024";
  let nshards = client_shards fan_in in
  let mk_shard () =
    { sim = Ns.Sim.create ();
      metrics = Obs.Metrics.create ();
      outbox = Queue.create () }
  in
  let hub = mk_shard () in
  let shards = Array.init nshards (fun _ -> mk_shard ()) in
  let shard_of k = shards.(k mod nshards) in
  let opts = T.Opts.improved in
  (* --- hub: switch, server, switch-side half-links ------------------- *)
  let switch =
    Ns.Switch.create hub.sim ~ports:(fan_in + 1)
      ~latency_us:wl.switch_latency_us ~queue_frames:wl.port_queue_frames
      ~metrics:hub.metrics ()
  in
  let server_link =
    Ns.Ether.Link.create hub.sim ~propagation_us
      ~metrics:(Obs.Metrics.scoped hub.metrics "link0")
      ()
  in
  let server =
    T.Stack.make_host hub.sim server_link ~station:0 ~mac:(mac_of 0)
      ~ip_addr:(ip_of 0) ~opts
      ~metrics:(Obs.Metrics.scoped hub.metrics "server")
      ~simmem_base:0x1010_0000 ()
  in
  Ns.Switch.attach switch ~port:0 ~station:1 server_link;
  Ns.Switch.add_static switch ~mac:(mac_of 0) ~port:0;
  (* switch halves: station 1 faces the switch, station 0 is the remote
     client; egress toward a client parks the frame in the hub outbox *)
  let b_links =
    Array.init fan_in (fun k ->
        let g = 1 + k in
        let b =
          Ns.Ether.Link.create hub.sim ~propagation_us
            ~metrics:(Obs.Metrics.scoped hub.metrics (Printf.sprintf "port%d" g))
            ()
        in
        Ns.Switch.attach switch ~port:g ~station:1 b;
        Ns.Switch.add_static switch ~mac:(mac_of g) ~port:g;
        b)
  in
  (* --- client shards ------------------------------------------------- *)
  let rng = Util.Rng.create seed in
  let jitter = Array.init fan_in (fun _ -> Util.Rng.float rng wl.stagger_us) in
  let clients =
    Array.init fan_in (fun k ->
        let g = 1 + k in
        let sh = shard_of k in
        let a =
          Ns.Ether.Link.create sh.sim ~propagation_us
            ~metrics:(Obs.Metrics.scoped sh.metrics (Printf.sprintf "link%d" g))
            ()
        in
        let host =
          T.Stack.make_host sh.sim a ~station:0 ~mac:(mac_of g)
            ~ip_addr:(ip_of g) ~opts
            ~metrics:(Obs.Metrics.scoped sh.metrics (Printf.sprintf "h%d" g))
            ~simmem_base:(0x1010_0000 + (g * 0x0100_0000))
            ()
        in
        T.Vnet.add_route host.T.Stack.vnet ~ip:(ip_of 0) ~mac:(mac_of 0);
        T.Vnet.add_route host.T.Stack.vnet ~ip:(ip_of g) ~mac:(mac_of g);
        { g;
          host;
          link = a;
          hist = Util.Stats.Hist.create ();
          session = None;
          started = false;
          sent = 0;
          completed = 0;
          resp_acc = 0;
          send_t = 0.0 })
  in
  Array.iteri
    (fun k c ->
      T.Vnet.add_route server.T.Stack.vnet ~ip:(ip_of c.g) ~mac:(mac_of c.g);
      ignore k)
    clients;
  T.Vnet.add_route server.T.Stack.vnet ~ip:(ip_of 0) ~mac:(mac_of 0);
  (* --- cross-shard plumbing ------------------------------------------ *)
  Array.iteri
    (fun k c ->
      let b = b_links.(k) in
      let sh = shard_of k in
      (* client -> switch: leaves the client half at station 1 *)
      Ns.Ether.Link.set_remote c.link ~station:1 (fun ~at frame ->
          Queue.push
            { p_link = b; p_station = 1; p_at = at; p_frame = frame }
            sh.outbox);
      (* switch -> client: leaves the switch half at station 0 *)
      Ns.Ether.Link.set_remote b ~station:0 (fun ~at frame ->
          Queue.push
            { p_link = c.link; p_station = 0; p_at = at; p_frame = frame }
            hub.outbox))
    clients;
  (* --- server application: byte-counting echo ------------------------ *)
  let srv_acc : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let resp_payload = Bytes.make (max 1 wl.resp_bytes) 'r' in
  let req_payload = Bytes.make (max 1 wl.req_bytes) 'q' in
  T.Tcp.listen server.T.Stack.tcp ~port:server_port ~receive:(fun s data ->
      T.Tcp.set_nodelay s true;
      let key = T.Tcb.key_of (T.Tcp.tcb s) in
      let acc =
        match Hashtbl.find_opt srv_acc key with
        | Some r -> r
        | None ->
          let r = ref 0 in
          Hashtbl.replace srv_acc key r;
          r
      in
      acc := !acc + Bytes.length data;
      while !acc >= wl.req_bytes do
        acc := !acc - wl.req_bytes;
        T.Tcp.send s resp_payload
      done);
  (* --- client application: synchronized burst, then closed loop ------ *)
  let go_us = (wl.stagger_us *. float_of_int (fan_in + 1)) +. 5_000.0 in
  let clients_done = ref 0 in
  let send_next c =
    match c.session with
    | Some s when T.Tcp.state s = T.Tcb.Established ->
      c.send_t <- Ns.Sim.now (shard_of (c.g - 1)).sim;
      c.sent <- c.sent + 1;
      T.Tcp.send s req_payload
    | _ -> ()
  in
  let on_receive c _s data =
    c.resp_acc <- c.resp_acc + Bytes.length data;
    while c.resp_acc >= wl.resp_bytes do
      c.resp_acc <- c.resp_acc - wl.resp_bytes;
      let now = Ns.Sim.now (shard_of (c.g - 1)).sim in
      Util.Stats.Hist.add c.hist (now -. c.send_t);
      c.completed <- c.completed + 1;
      if c.completed < wl.requests_per_client then send_next c
      else if c.completed = wl.requests_per_client then
        incr clients_done
    done
  in
  Array.iteri
    (fun k c ->
      let env = c.host.T.Stack.env in
      let rec poll_start () =
        let now = Ns.Sim.now (shard_of k).sim in
        match c.session with
        | Some s
          when T.Tcp.state s = T.Tcb.Established
               && now >= go_us && not c.started ->
          c.started <- true;
          send_next c
        | _ ->
          if not c.started then
            ignore (Ns.Host_env.timeout env ~delay:100.0 poll_start)
      in
      let start_at = (wl.stagger_us *. float_of_int k) +. jitter.(k) in
      ignore
        (Ns.Host_env.timeout env ~delay:start_at (fun () ->
             c.session <-
               Some
                 (T.Tcp.connect c.host.T.Stack.tcp ~local_port:client_port
                    ~remote_ip:(ip_of 0) ~remote_port:server_port
                    ~receive:(on_receive c));
             poll_start ())))
    clients;
  (* --- the epoch engine ---------------------------------------------- *)
  let all = Array.append [| hub |] shards in
  let total = fan_in * wl.requests_per_client in
  let epochs = ref 0 in
  let drain_barrier () =
    (* fixed shard order at every barrier keeps injection deterministic *)
    Array.iter
      (fun sh ->
        while not (Queue.is_empty sh.outbox) do
          let p = Queue.pop sh.outbox in
          Ns.Ether.Link.inject p.p_link ~station:p.p_station ~at:p.p_at
            p.p_frame
        done)
      all
  in
  let next_event () =
    Array.fold_left
      (fun acc sh ->
        match (Ns.Sim.next_at sh.sim, acc) with
        | None, a -> a
        | Some t, None -> Some t
        | Some t, Some a -> Some (Float.min t a))
      None all
  in
  let rec loop () =
    if !clients_done < fan_in then
      match next_event () with
      | None -> ()
      | Some t when t > wl.horizon_us -> ()
      | Some t ->
        incr epochs;
        let t1 = t +. delta_us in
        let busy, idle =
          Array.to_list all
          |> List.partition (fun sh ->
                 match Ns.Sim.next_at sh.sim with
                 | Some e -> e <= t1
                 | None -> false)
        in
        (* idle shards just move their clocks; busy ones do real work,
           in parallel when asked to.  Shards share nothing mid-epoch,
           so the result cannot depend on [jobs]. *)
        List.iter (fun sh -> ignore (Ns.Sim.run ~until:t1 sh.sim)) idle;
        (match busy with
        | [] -> ()
        | [ sh ] -> ignore (Ns.Sim.run ~until:t1 sh.sim)
        | _ when jobs <= 1 ->
          List.iter (fun sh -> ignore (Ns.Sim.run ~until:t1 sh.sim)) busy
        | _ ->
          ignore
            (Util.Dpool.run ~jobs
               (List.map
                  (fun sh ->
                    fun () -> ignore (Ns.Sim.run ~until:t1 sh.sim))
                  busy)));
        drain_barrier ();
        loop ()
  in
  loop ();
  (* --- audit + digest ------------------------------------------------ *)
  let end_us =
    Array.fold_left (fun a sh -> Float.max a (Ns.Sim.now sh.sim)) 0.0 all
  in
  let merged_dump =
    List.concat_map (fun sh -> Obs.Metrics.dump sh.metrics) (Array.to_list all)
  in
  let inv = Invariant.create () in
  Invariant.conservation_dump inv ~at_us:end_us merged_dump;
  let completed =
    Array.fold_left (fun a (c : client) -> a + c.completed) 0 clients
  in
  let lat =
    Array.fold_left
      (fun acc c -> Util.Stats.Hist.merge acc c.hist)
      (Util.Stats.Hist.create ()) clients
    |> Util.Stats.Hist.digest
  in
  let retransmits =
    Array.fold_left (fun a c -> a + T.Tcp.retransmits c.host.T.Stack.tcp) 0
      clients
    + T.Tcp.retransmits server.T.Stack.tcp
  in
  let b = Buffer.create 1024 in
  Printf.bprintf b "incast fan_in=%d seed=%d completed=%d/%d end=%.3f\n"
    fan_in seed completed total end_us;
  Array.iter
    (fun c ->
      Printf.bprintf b "h%d sent=%d completed=%d n=%d\n" c.g c.sent
        c.completed
        (Util.Stats.Hist.count c.hist))
    clients;
  Printf.bprintf b "lat p50=%.3f p90=%.3f p99=%.3f p999=%.3f max=%.3f n=%d\n"
    lat.Util.Stats.Hist.p50 lat.Util.Stats.Hist.p90 lat.Util.Stats.Hist.p99
    lat.Util.Stats.Hist.p999 lat.Util.Stats.Hist.max lat.Util.Stats.Hist.n;
  List.iter
    (fun (name, sample) ->
      match sample with
      | Obs.Metrics.Counter n -> Printf.bprintf b "%s=%d\n" name n
      | _ -> ())
    merged_dump;
  { fan_in;
    seed;
    completed;
    total;
    lat;
    retransmits;
    queue_drops = Ns.Switch.queue_drops switch;
    queue_peak = Ns.Switch.queue_peak switch;
    epochs = !epochs;
    end_us;
    drained = completed = total;
    violations = List.map Invariant.render_violation (Invariant.violations inv);
    digest = Digest.to_hex (Digest.string (Buffer.contents b)) }

(* ----- sweep --------------------------------------------------------- *)

type report = {
  fan_ins : int list;
  seeds : int;
  wl : workload;
  cells : cell list;  (** fan-in major, seed minor *)
}

(* distinct seed stream from Engine/Soak/Mflow/Chaos *)
let seed_for base i = base + (i * 4241)

let sweep ?(wl = default_workload) ?(fan_ins = [ 2; 4; 8; 16; 32; 64 ])
    ?(seeds = 1) ?(jobs = 1) ~seed () =
  if seeds <= 0 then invalid_arg "Incast.sweep: seeds must be positive";
  (* cells run sequentially: the parallelism budget goes to each cell's
     shard fan-out, which is where the hosts are *)
  let cells =
    List.concat_map
      (fun fan_in ->
        List.init seeds (fun i ->
            run_cell ~wl ~jobs ~fan_in ~seed:(seed_for seed i) ()))
      fan_ins
  in
  { fan_ins; seeds; wl; cells }

let passed t =
  List.for_all (fun c -> c.drained && c.violations = []) t.cells

let render t =
  let tbl =
    Util.Table.create
      ~title:
        (Printf.sprintf
           "Incast: completion latency vs fan-in (%dB req, %dB resp, %d \
            req/client)"
           t.wl.req_bytes t.wl.resp_bytes t.wl.requests_per_client)
      ~headers:
        [ "Fan-in"; "seed"; "done"; "p50 [us]"; "p90"; "p99"; "p99.9";
          "max"; "rexmt"; "qdrops"; "qpeak"; "epochs"; "ok" ]
  in
  let f1 = Util.Table.cell_f ~digits:1 in
  List.iter
    (fun c ->
      Util.Table.add_row tbl
        [ string_of_int c.fan_in; string_of_int c.seed;
          Printf.sprintf "%d/%d" c.completed c.total;
          f1 c.lat.Util.Stats.Hist.p50; f1 c.lat.Util.Stats.Hist.p90;
          f1 c.lat.Util.Stats.Hist.p99; f1 c.lat.Util.Stats.Hist.p999;
          f1 c.lat.Util.Stats.Hist.max; string_of_int c.retransmits;
          string_of_int c.queue_drops; string_of_int c.queue_peak;
          string_of_int c.epochs;
          (if c.drained && c.violations = [] then "yes" else "NO") ])
    t.cells;
  let b = Buffer.create 256 in
  Buffer.add_string b (Util.Table.render tbl);
  List.iter
    (fun c ->
      List.iter
        (fun v ->
          Buffer.add_string b
            (Printf.sprintf "violation (fan_in=%d seed=%d): %s\n" c.fan_in
               c.seed v))
        c.violations)
    t.cells;
  Buffer.contents b

let to_json t =
  let module J = Obs.Json in
  let cell c =
    let q = c.lat in
    J.Obj
      [ ("fan_in", J.int c.fan_in);
        ("seed", J.int c.seed);
        ("completed", J.int c.completed);
        ("total", J.int c.total);
        ("p50_us", J.Num q.Util.Stats.Hist.p50);
        ("p90_us", J.Num q.Util.Stats.Hist.p90);
        ("p99_us", J.Num q.Util.Stats.Hist.p99);
        ("p999_us", J.Num q.Util.Stats.Hist.p999);
        ("max_us", J.Num q.Util.Stats.Hist.max);
        ("retransmits", J.int c.retransmits);
        ("queue_drops", J.int c.queue_drops);
        ("queue_peak", J.int c.queue_peak);
        ("epochs", J.int c.epochs);
        ("end_us", J.Num c.end_us);
        ("drained", J.Bool c.drained);
        ("digest", J.Str c.digest) ]
  in
  J.Obj
    [ ("schema_version", J.int J.schema_version);
      ("kind", J.Str "incast");
      ( "topology",
        J.Str (Printf.sprintf "star:%d" (1 + List.fold_left max 0 t.fan_ins)) );
      ( "workload",
        J.Obj
          [ ("req_bytes", J.int t.wl.req_bytes);
            ("resp_bytes", J.int t.wl.resp_bytes);
            ("requests_per_client", J.int t.wl.requests_per_client);
            ("stagger_us", J.Num t.wl.stagger_us);
            ("switch_latency_us", J.Num t.wl.switch_latency_us);
            ("port_queue_frames", J.int t.wl.port_queue_frames) ] );
      ("seeds", J.int t.seeds);
      ("fan_ins", J.Arr (List.map J.int t.fan_ins));
      ("cells", J.Arr (List.map cell t.cells)) ]
