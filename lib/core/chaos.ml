(* Host-lifecycle chaos engine.  See chaos.mli for the model.

   Everything here is a pure function of the case record: the schedule is
   explicit, the workload draws no randomness at run time, and all
   harness-level supervision timers go through [Ns.Sim.schedule] directly
   (never [Host_env.timeout]) so that a host crash — which wipes the
   host's Event manager — cannot kill the harness itself. *)

module Util = Protolat_util
module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module T = Protolat_tcpip
module Obs = Protolat_obs

(* ----- schedules ---------------------------------------------------------- *)

type host =
  | Client
  | Server

type event =
  | Crash of host
  | Restart of host
  | Partition_on
  | Partition_off
  | Skew of host * float
  | Skew_reset of host
  | Cache_flush of host

type item = {
  at_us : float;
  ev : event;
}

type schedule = item list

let host_string = function Client -> "client" | Server -> "server"

let event_string = function
  | Crash h -> Printf.sprintf "crash(%s)" (host_string h)
  | Restart h -> Printf.sprintf "restart(%s)" (host_string h)
  | Partition_on -> "partition_on"
  | Partition_off -> "partition_off"
  | Skew (h, s) -> Printf.sprintf "skew(%s,%.2f)" (host_string h) s
  | Skew_reset h -> Printf.sprintf "skew_reset(%s)" (host_string h)
  | Cache_flush h -> Printf.sprintf "cache_flush(%s)" (host_string h)

let item_string i = Printf.sprintf "%.0fus %s" i.at_us (event_string i.ev)

let normalize sched =
  let sorted = List.stable_sort (fun a b -> Float.compare a.at_us b.at_us) sched in
  (* whole microseconds, strictly increasing: the simulator heap is not
     stable for equal times, so ties would make replay order depend on
     insertion history *)
  let prev = ref neg_infinity in
  List.map
    (fun i ->
      let t = Float.max (Float.round i.at_us) (!prev +. 1.0) in
      prev := t;
      { i with at_us = t })
    sorted

let last_event_us sched =
  List.fold_left (fun acc i -> Float.max acc i.at_us) 0.0 sched

let gen ~seed ~intensity ~horizon_us =
  if intensity <= 0 then []
  else begin
    if horizon_us < 50_000.0 then
      invalid_arg "Chaos.gen: horizon must be at least 50ms";
    let rng = Util.Rng.create (seed lxor 0xC4A05) in
    let items = ref [] in
    let push at ev = items := { at_us = at; ev } :: !items in
    let span lo hi = lo +. Util.Rng.float rng (hi -. lo) in
    let pick_host () = if Util.Rng.bool rng then Client else Server in
    for _ = 1 to intensity do
      let roll = Util.Rng.int rng 100 in
      (* incidents start in the first 60% of the horizon and recover well
         before it, so liveness has a quiet tail to be judged in *)
      let t0 = span (0.10 *. horizon_us) (0.60 *. horizon_us) in
      if roll < 35 then begin
        let h = pick_host () in
        let dt = span 5_000.0 25_000.0 in
        push t0 (Crash h);
        push (t0 +. dt) (Restart h)
      end
      else if roll < 60 then begin
        let dt = span 3_000.0 20_000.0 in
        push t0 Partition_on;
        push (t0 +. dt) Partition_off
      end
      else if roll < 80 then begin
        let h = pick_host () in
        let scale =
          Float.round ((0.5 +. Util.Rng.float rng 1.5) *. 100.0) /. 100.0
        in
        let dt = span 10_000.0 40_000.0 in
        push t0 (Skew (h, scale));
        push (t0 +. dt) (Skew_reset h)
      end
      else push t0 (Cache_flush (pick_host ()))
    done;
    normalize (List.rev !items)
  end

(* ----- injection ---------------------------------------------------------- *)

type status = {
  mutable client_down : bool;
  mutable server_down : bool;
  mutable partition_depth : int;
  mutable s_crashes : int;
  mutable s_restarts : int;
  mutable s_partitions : int;
  mutable s_skews : int;
  mutable s_flushes : int;
}

let is_down st = function
  | Client -> st.client_down
  | Server -> st.server_down

let crashes st = st.s_crashes

let restarts st = st.s_restarts

let partitions st = st.s_partitions

let skews st = st.s_skews

let flushes st = st.s_flushes

let crash_host (h : T.Stack.host) =
  (* power failure: the NIC goes deaf, and every piece of volatile kernel
     state — PCBs, timers, reassembly buffers, driver queues — is gone *)
  Ns.Lance.set_power h.T.Stack.lance false;
  ignore (T.Tcp.abort_all h.T.Stack.tcp);
  T.Ip.reset h.T.Stack.ip;
  Ns.Netdev.reset h.T.Stack.netdev;
  ignore (Xk.Event.cancel_all h.T.Stack.env.Ns.Host_env.events)

let inject (net : T.Stack.net) ?(flush_us = 250.0) ~on_restart sched =
  let st =
    { client_down = false;
      server_down = false;
      partition_depth = 0;
      s_crashes = 0;
      s_restarts = 0;
      s_partitions = 0;
      s_skews = 0;
      s_flushes = 0 }
  in
  let host_of = function
    | Client -> net.T.Stack.hosts.(0)
    | Server -> net.T.Stack.hosts.(1)
  in
  let set_down h v =
    match h with
    | Client -> st.client_down <- v
    | Server -> st.server_down <- v
  in
  List.iter
    (fun { at_us; ev } ->
      Ns.Sim.schedule_at net.T.Stack.n_sim ~at:at_us (fun () ->
          match ev with
          | Crash h ->
            if not (is_down st h) then begin
              crash_host (host_of h);
              set_down h true;
              st.s_crashes <- st.s_crashes + 1
            end
          | Restart h ->
            if is_down st h then begin
              Ns.Lance.set_power (host_of h).T.Stack.lance true;
              set_down h false;
              st.s_restarts <- st.s_restarts + 1;
              on_restart h
            end
          | Partition_on ->
            st.partition_depth <- st.partition_depth + 1;
            if st.partition_depth = 1 then begin
              (* pair fabric: the historic whole-link filter; switched
                 fabrics black-hole every switch port instead *)
              Ns.Fabric.partition_all net.T.Stack.fabric true;
              st.s_partitions <- st.s_partitions + 1
            end
          | Partition_off ->
            if st.partition_depth > 0 then begin
              st.partition_depth <- st.partition_depth - 1;
              if st.partition_depth = 0 then
                Ns.Fabric.partition_all net.T.Stack.fabric false
            end
          | Skew (h, s) ->
            Ns.Host_env.set_timer_scale (host_of h).T.Stack.env s;
            st.s_skews <- st.s_skews + 1
          | Skew_reset h ->
            Ns.Host_env.set_timer_scale (host_of h).T.Stack.env 1.0
          | Cache_flush h ->
            if not (is_down st h) then begin
              Ns.Lance.stall (host_of h).T.Stack.lance ~us:flush_us;
              st.s_flushes <- st.s_flushes + 1
            end))
    (normalize sched);
  st

(* ----- the at-most-once workload ------------------------------------------ *)

type bug =
  | No_bug
  | Dedup_off

let bug_string = function No_bug -> "none" | Dedup_off -> "dedup_off"

let bug_of_string = function
  | "none" -> Some No_bug
  | "dedup_off" -> Some Dedup_off
  | _ -> None

type case = {
  seed : int;
  flows : int;
  requests : int;
  horizon_us : float;
  bug : bug;
  topology : Ns.Topology.t;
  sched : schedule;
}

let case ?(flows = 4) ?(requests = 24) ?(horizon_us = 200_000.0)
    ?(bug = No_bug) ?(topology = Ns.Topology.pair ()) ~seed sched =
  { seed; flows; requests; horizon_us; bug; topology; sched }

type outcome = {
  completed : int;
  total : int;
  reconnects : int;
  duplicate_execs : int;
  o_crashes : int;
  o_restarts : int;
  o_partitions : int;
  o_flushes : int;
  end_us : float;
  goodput_rps : float;
  lat : Util.Stats.quantiles;
  violations : Invariant.violation list;
}

(* framed request/response over the TCP byte stream:
   [magic; fid; rid_hi; rid_lo; len; payload...] *)
let req_magic = 0xC5

let resp_magic = 0xC6

let payload_len = 32

let req_byte ~fid ~rid i = ((fid * 31) + (rid * 7) + i) land 0xFF

let resp_byte ~fid ~rid i = ((fid * 31) + (rid * 7) + i + 13) land 0xFF

let encode ~magic ~fid ~rid byte_of =
  let b = Bytes.create (5 + payload_len) in
  Bytes.set b 0 (Char.chr magic);
  Bytes.set b 1 (Char.chr (fid land 0xFF));
  Bytes.set b 2 (Char.chr (rid lsr 8 land 0xFF));
  Bytes.set b 3 (Char.chr (rid land 0xFF));
  Bytes.set b 4 (Char.chr payload_len);
  for i = 0 to payload_len - 1 do
    Bytes.set b (5 + i) (Char.chr (byte_of ~fid ~rid i land 0xFF))
  done;
  b

let payload_matches ~fid ~rid byte_of payload =
  Bytes.length payload = payload_len
  && begin
       let ok = ref true in
       for i = 0 to payload_len - 1 do
         if Char.code (Bytes.get payload i) <> byte_of ~fid ~rid i land 0xFF
         then ok := false
       done;
       !ok
     end

(* parse complete frames out of a stream-reassembly buffer, leaving any
   partial tail in place *)
let drain_frames buf k =
  let data = Buffer.to_bytes buf in
  let n = Bytes.length data in
  let pos = ref 0 in
  let run = ref true in
  while !run do
    if n - !pos < 5 then run := false
    else begin
      let len = Char.code (Bytes.get data (!pos + 4)) in
      if n - !pos < 5 + len then run := false
      else begin
        let magic = Char.code (Bytes.get data !pos) in
        let fid = Char.code (Bytes.get data (!pos + 1)) in
        let rid =
          (Char.code (Bytes.get data (!pos + 2)) lsl 8)
          lor Char.code (Bytes.get data (!pos + 3))
        in
        let payload = Bytes.sub data (!pos + 5) len in
        pos := !pos + 5 + len;
        k ~magic ~fid ~rid payload
      end
    end
  done;
  Buffer.clear buf;
  if !pos < n then Buffer.add_subbytes buf data !pos (n - !pos)

type cflow = {
  fid : int;
  buf : Buffer.t;
  mutable rid : int;
  mutable gen : int;  (* connection incarnation; stale callbacks bail *)
  mutable conn : T.Tcp.session option;
  mutable waiting : bool;
  mutable first_send_us : float;
  mutable fl_completed : int;
  mutable fl_done : bool;
}

let server_port = 4321

let conn_poll_us = 200.0

let conn_retry_us = 2_000.0

let req_timeout_us = 30_000.0

let watchdog_period_us = 5_000.0

let sweep_period_us = 2_000.0

let run_case (c : case) =
  if c.flows < 1 || c.flows > 64 then
    invalid_arg "Chaos.run_case: flows must be in 1..64";
  if c.requests < 1 || c.requests > 1000 then
    invalid_arg "Chaos.run_case: requests must be in 1..1000";
  if Ns.Topology.hosts c.topology <> 2 then
    invalid_arg "Chaos.run_case: topology must have exactly 2 hosts";
  let sched = normalize c.sched in
  let net = T.Stack.make_net ~topology:c.topology () in
  let pair = T.Stack.pair_of_net net in
  let sim = pair.T.Stack.sim in
  let ctcp = pair.T.Stack.client.T.Stack.tcp in
  let stcp = pair.T.Stack.server.T.Stack.tcp in
  let cenv = pair.T.Stack.client.T.Stack.env in
  let senv = pair.T.Stack.server.T.Stack.env in
  let server_ip = pair.T.Stack.server.T.Stack.ip_addr in
  let inv = Invariant.create () in
  let now () = Ns.Sim.now sim in
  (* --- server: at-most-once executor with a durable reply cache ------ *)
  (* executions/replies model the application's persistent state: they
     survive crashes.  The per-session stream buffers are volatile, but
     they are keyed by the 4-tuple and reconnects use fresh ports, so
     stale entries are simply never touched again. *)
  let executions : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let replies : (int, bytes) Hashtbl.t = Hashtbl.create 64 in
  let sbufs : (string, Buffer.t) Hashtbl.t = Hashtbl.create 64 in
  let duplicate_execs = ref 0 in
  let rkey ~fid ~rid = (fid lsl 16) lor rid in
  (* service time between executing a request (durable) and the reply
     leaving the host (volatile): a crash inside this window loses the
     reply but not the execution — exactly the case at-most-once reply
     caching exists for.  The reply timer lives in the server's Event
     manager, so a crash kills it along with the rest of the kernel. *)
  let service_us = 2_000.0 in
  let serve s ~fid ~rid payload =
    Invariant.check inv ~at_us:(now ()) ~name:"payload_integrity"
      ~detail:(fun () ->
        Printf.sprintf "request %d.%d arrived corrupted at the server" fid rid)
      (payload_matches ~fid ~rid req_byte payload);
    let k = rkey ~fid ~rid in
    match (Hashtbl.find_opt replies k, c.bug) with
    | Some r, No_bug ->
      (* duplicate request: answer from the durable cache, no re-run,
         and no service time — the work was already done *)
      if T.Tcp.state s = T.Tcb.Established then T.Tcp.send s r
    | _ ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt executions k) in
      Hashtbl.replace executions k n;
      if n > 1 then incr duplicate_execs;
      Invariant.check inv ~at_us:(now ()) ~name:"at_most_once"
        ~detail:(fun () ->
          Printf.sprintf "request %d.%d executed %d times" fid rid n)
        (n <= 1);
      let r = encode ~magic:resp_magic ~fid ~rid resp_byte in
      Hashtbl.replace replies k r;
      ignore
        (Ns.Host_env.timeout senv ~delay:service_us (fun () ->
             if T.Tcp.state s = T.Tcb.Established then T.Tcp.send s r))
  in
  let server_listen () =
    T.Tcp.listen stcp ~port:server_port ~receive:(fun s data ->
        T.Tcp.set_nodelay s true;
        let key = T.Tcb.key_of (T.Tcp.tcb s) in
        let buf =
          match Hashtbl.find_opt sbufs key with
          | Some b -> b
          | None ->
            let b = Buffer.create 128 in
            Hashtbl.replace sbufs key b;
            b
        in
        Buffer.add_bytes buf data;
        drain_frames buf (fun ~magic ~fid ~rid payload ->
            if magic = req_magic then serve s ~fid ~rid payload))
  in
  server_listen ();
  let st =
    inject net sched ~on_restart:(function
      | Server -> server_listen () (* reboot re-installs the listener *)
      | Client -> () (* flows recover through their own supervision *))
  in
  (* --- client flows -------------------------------------------------- *)
  let flows_done = ref 0 in
  let reconnects = ref 0 in
  let lat = ref [] in
  let quiesced = ref false in
  let fl_of i =
    { fid = i;
      buf = Buffer.create 128;
      rid = 0;
      gen = 0;
      conn = None;
      waiting = false;
      first_send_us = -1.0;
      fl_completed = 0;
      fl_done = false }
  in
  let flows = Array.init c.flows fl_of in
  (* pace requests so each flow's traffic covers ~80% of the horizon: the
     schedule's incidents then land mid-traffic, not after it *)
  let think_us =
    Float.max 500.0 (c.horizon_us *. 0.8 /. float_of_int c.requests)
  in
  let finish_flow fl =
    if not fl.fl_done then begin
      fl.fl_done <- true;
      incr flows_done;
      (match fl.conn with
      | Some s when T.Tcp.state s = T.Tcb.Established -> T.Tcp.close s
      | _ -> ());
      fl.conn <- None
    end
  in
  let rec connect_flow fl =
    if fl.fl_done || !quiesced then ()
    else if is_down st Client then
      (* the host is dead: wait for the restart, then try again *)
      Ns.Sim.schedule sim ~delay:conn_retry_us (fun () -> connect_flow fl)
    else begin
      fl.gen <- fl.gen + 1;
      if fl.gen > 1 then incr reconnects;
      Buffer.clear fl.buf;
      let gen = fl.gen in
      (* fresh local port per incarnation: old Time_wait corpses and
         stale server-side sessions never collide with the new one *)
      let port = 20_000 + fl.fid + (gen * 64) in
      let s =
        T.Tcp.connect ctcp ~local_port:port ~remote_ip:server_ip
          ~remote_port:server_port
          ~receive:(fun s data -> client_rx fl gen s data)
      in
      fl.conn <- Some s;
      await_established fl gen s
    end
  and await_established fl gen s =
    Ns.Sim.schedule sim ~delay:conn_poll_us (fun () ->
        if fl.fl_done || !quiesced || gen <> fl.gen then ()
        else
          match T.Tcp.state s with
          | T.Tcb.Established ->
            T.Tcp.set_nodelay s true;
            send_current fl gen s
          | T.Tcb.Closed ->
            (* the handshake died (SYN gave up, or a crash wiped the
               PCB): reconnect from a fresh port *)
            fl.conn <- None;
            connect_flow fl
          | _ -> await_established fl gen s)
  and send_current fl gen s =
    if fl.fl_done || !quiesced || gen <> fl.gen then ()
    else if fl.rid >= c.requests then finish_flow fl
    else if T.Tcp.state s <> T.Tcb.Established then begin
      (* the connection died between responses (a crash, most likely):
         reconnect now rather than burning a request timeout *)
      fl.conn <- None;
      fl.waiting <- false;
      connect_flow fl
    end
    else begin
      fl.waiting <- true;
      if fl.first_send_us < 0.0 then fl.first_send_us <- now ();
      T.Tcp.send s (encode ~magic:req_magic ~fid:fl.fid ~rid:fl.rid req_byte);
      let rid = fl.rid in
      Ns.Sim.schedule sim ~delay:req_timeout_us (fun () ->
          if
            (not fl.fl_done) && (not !quiesced) && fl.waiting && fl.rid = rid
            && gen = fl.gen
          then begin
            (* the reply is overdue: the connection (or its peer) died.
               Abandon it and resend the same request id over a new
               connection — at-most-once semantics are the server's
               problem, which is the point of the exercise *)
            (match fl.conn with
            | Some s when T.Tcp.state s = T.Tcb.Established -> T.Tcp.close s
            | _ -> ());
            fl.conn <- None;
            fl.waiting <- false;
            connect_flow fl
          end)
    end
  and client_rx fl gen _s data =
    if fl.fl_done || gen <> fl.gen then ()
    else begin
      Buffer.add_bytes fl.buf data;
      drain_frames fl.buf (fun ~magic ~fid ~rid payload ->
          if magic = resp_magic && fid = fl.fid && rid = fl.rid && fl.waiting
          then begin
            Invariant.check inv ~at_us:(now ()) ~name:"payload_integrity"
              ~detail:(fun () ->
                Printf.sprintf "reply %d.%d surfaced corrupted" fid rid)
              (payload_matches ~fid ~rid resp_byte payload);
            fl.waiting <- false;
            lat := (now () -. fl.first_send_us) :: !lat;
            fl.first_send_us <- -1.0;
            fl.fl_completed <- fl.fl_completed + 1;
            fl.rid <- fl.rid + 1;
            if fl.rid >= c.requests then finish_flow fl
            else
              (* paced arrivals: the flow's request stream spans the fault
                 horizon instead of racing past it before the first event
                 lands.  A Sim-level timer, so it survives crashes. *)
              Ns.Sim.schedule sim ~delay:think_us (fun () ->
                  if (not fl.fl_done) && (not !quiesced) && gen = fl.gen then
                    match fl.conn with
                    | Some s -> send_current fl gen s
                    | None -> connect_flow fl)
          end)
    end
  in
  (* staggered starts keep the handshake burst off a single instant *)
  Array.iter
    (fun fl ->
      Ns.Sim.schedule sim ~delay:(97.0 *. float_of_int (fl.fid + 1)) (fun () ->
          connect_flow fl))
    flows;
  (* --- harness timers ------------------------------------------------ *)
  let rec watchdog_tick () =
    if not !quiesced then begin
      Invariant.conservation inv ~at_us:(now ()) pair.T.Stack.metrics;
      Ns.Sim.schedule sim ~delay:watchdog_period_us watchdog_tick
    end
  in
  Ns.Sim.schedule sim ~delay:watchdog_period_us watchdog_tick;
  let rec sweep_tick () =
    if not !quiesced then begin
      ignore (T.Tcp.sweep stcp);
      Ns.Sim.schedule sim ~delay:sweep_period_us sweep_tick
    end
  in
  Ns.Sim.schedule sim ~delay:sweep_period_us sweep_tick;
  (* --- drive ---------------------------------------------------------- *)
  let faults_clear = Float.max (last_event_us sched) 0.0 in
  let liveness_bound =
    Float.max c.horizon_us faults_clear
    +. 1_000_000.0
    +. (float_of_int (c.flows * c.requests) *. 3_000.0)
  in
  let rec pump () =
    if !flows_done < c.flows && now () < liveness_bound then begin
      ignore (Ns.Sim.run ~until:(now () +. 2_000.0) sim);
      pump ()
    end
  in
  pump ();
  let end_us = now () in
  (* liveness: every flow must have completed (or been torn down) within
     the bound once all faults cleared *)
  if !flows_done < c.flows then begin
    let stuck =
      Array.to_list flows
      |> List.filter (fun fl -> not fl.fl_done)
      |> List.map (fun fl ->
             Printf.sprintf "flow %d: rid=%d/%d conn=%s waiting=%b" fl.fid
               fl.rid c.requests
               (match fl.conn with
               | None -> "none"
               | Some s -> T.Tcb.state_string (T.Tcp.state s))
               fl.waiting)
    in
    Invariant.report inv ~at_us:end_us ~name:"liveness.flows"
      ~detail:
        (Printf.sprintf "%d of %d flows incomplete after faults cleared: %s"
           (c.flows - !flows_done) c.flows
           (String.concat "; " stuck))
  end;
  (* quiesce: stop harness timers, let TCP wind down, then require the
     timer wheels to drain *)
  quiesced := true;
  Array.iter (fun fl -> fl.fl_done <- true) flows;
  let drain_deadline = now () +. 60.0e6 in
  let rec drain () =
    ignore (Ns.Sim.run ~until:(now () +. sweep_period_us) sim);
    ignore (T.Tcp.sweep stcp);
    (* client too: the finwait2 reaper must cover half-closes a crashed
       server can no longer finish *)
    ignore (T.Tcp.sweep ctcp);
    if
      (T.Tcp.session_count stcp > 0 || T.Tcp.session_count ctcp > 0)
      && now () < drain_deadline
    then drain ()
  in
  drain ();
  ignore (Ns.Sim.run sim);
  Invariant.check inv ~at_us:(now ()) ~name:"liveness.timer_drain"
    ~detail:(fun () ->
      Printf.sprintf
        "timers leaked at quiesce: client=%d server=%d sessions=%d+%d"
        (Xk.Event.pending cenv.Ns.Host_env.events)
        (Xk.Event.pending senv.Ns.Host_env.events)
        (T.Tcp.session_count ctcp) (T.Tcp.session_count stcp))
    (Xk.Event.pending cenv.Ns.Host_env.events = 0
    && Xk.Event.pending senv.Ns.Host_env.events = 0
    && T.Tcp.session_count ctcp = 0
    && T.Tcp.session_count stcp = 0);
  Invariant.conservation inv ~at_us:(now ()) pair.T.Stack.metrics;
  let completed = Array.fold_left (fun a fl -> a + fl.fl_completed) 0 flows in
  let lat_q =
    match !lat with
    | [] -> { Util.Stats.p50 = 0.0; p90 = 0.0; p99 = 0.0; max = 0.0; n = 0 }
    | xs -> Util.Stats.quantiles xs
  in
  { completed;
    total = c.flows * c.requests;
    reconnects = !reconnects;
    duplicate_execs = !duplicate_execs;
    o_crashes = st.s_crashes;
    o_restarts = st.s_restarts;
    o_partitions = st.s_partitions;
    o_flushes = st.s_flushes;
    end_us;
    goodput_rps =
      (if end_us <= 0.0 then 0.0
       else float_of_int completed /. (end_us /. 1.0e6));
    lat = lat_q;
    violations = Invariant.violations inv }

let ok o = o.violations = []

let failure_names o = List.map (fun v -> v.Invariant.name) o.violations

(* ----- matrix runs -------------------------------------------------------- *)

type cell = {
  intensity : int;
  c_case : case;
  c_outcome : outcome;
}

(* distinct seed stream from Engine/Soak/Mflow *)
let seed_for base i = base + (i * 9176)

let run_matrix ?(flows = 4) ?(requests = 24) ?(horizon_us = 200_000.0)
    ?(bug = No_bug) ?(topology = Ns.Topology.pair ())
    ?(intensities = [ 0; 1; 2; 4 ]) ?(seeds = 2) ?jobs ~seed () =
  if seeds <= 0 then invalid_arg "Chaos.run_matrix: seeds must be positive";
  let tasks =
    List.concat_map
      (fun intensity ->
        List.init seeds (fun i ->
            let s = seed_for seed i in
            let sched = gen ~seed:(s + (1009 * intensity)) ~intensity ~horizon_us in
            let c =
              { seed = s; flows; requests; horizon_us; bug; topology; sched }
            in
            fun () -> { intensity; c_case = c; c_outcome = run_case c }))
      intensities
  in
  Util.Dpool.run ?jobs tasks

let passed cells = List.for_all (fun cl -> ok cl.c_outcome) cells

let render cells =
  let tbl =
    Util.Table.create ~title:"Chaos soak: graceful degradation"
      ~headers:
        [ "Int"; "seed"; "events"; "done"; "reconn"; "dups"; "goodput/s";
          "p50 [us]"; "p99 [us]"; "violations" ]
  in
  let f1 = Util.Table.cell_f ~digits:1 in
  List.iter
    (fun cl ->
      let o = cl.c_outcome in
      Util.Table.add_row tbl
        [ string_of_int cl.intensity; string_of_int cl.c_case.seed;
          string_of_int (List.length cl.c_case.sched);
          Printf.sprintf "%d/%d" o.completed o.total;
          string_of_int o.reconnects; string_of_int o.duplicate_execs;
          f1 o.goodput_rps; f1 o.lat.Util.Stats.p50; f1 o.lat.Util.Stats.p99;
          (match failure_names o with
          | [] -> "-"
          | names -> String.concat "," names) ])
    cells;
  Util.Table.render tbl

(* ----- JSON --------------------------------------------------------------- *)

module J = Obs.Json

let cells_json cells =
  J.Arr
    (List.map
       (fun cl ->
         let o = cl.c_outcome in
         J.Obj
           [ ("intensity", J.int cl.intensity);
             ("seed", J.int cl.c_case.seed);
             ("events", J.int (List.length cl.c_case.sched));
             ("bug", J.Str (bug_string cl.c_case.bug));
             ("topology", J.Str (Ns.Topology.to_string cl.c_case.topology));
             ("completed", J.int o.completed);
             ("total", J.int o.total);
             ("reconnects", J.int o.reconnects);
             ("duplicate_execs", J.int o.duplicate_execs);
             ("crashes", J.int o.o_crashes);
             ("restarts", J.int o.o_restarts);
             ("partitions", J.int o.o_partitions);
             ("flushes", J.int o.o_flushes);
             ("end_us", J.Num o.end_us);
             ("goodput_rps", J.Num o.goodput_rps);
             ("p50_us", J.Num o.lat.Util.Stats.p50);
             ("p99_us", J.Num o.lat.Util.Stats.p99);
             ( "violations",
               J.Arr (List.map (fun n -> J.Str n) (failure_names o)) ) ])
       cells)

(* the digest is taken over the exported cells, so the two cannot drift *)
let digest_of cells_v = Digest.to_hex (Digest.string (J.to_string cells_v))

let digest cells = digest_of (cells_json cells)

let matrix_to_json cells =
  let cells_v = cells_json cells in
  J.Obj
    [ ("schema_version", J.int J.schema_version);
      ("kind", J.Str "chaos");
      ("digest", J.Str (digest_of cells_v));
      ("cells", cells_v) ]

let item_json i =
  let host h = ("host", J.Str (host_string h)) in
  let ev name rest =
    J.Obj (("at_us", J.Num i.at_us) :: ("event", J.Str name) :: rest)
  in
  match i.ev with
  | Crash h -> ev "crash" [ host h ]
  | Restart h -> ev "restart" [ host h ]
  | Partition_on -> ev "partition_on" []
  | Partition_off -> ev "partition_off" []
  | Skew (h, s) -> ev "skew" [ host h; ("scale", J.Num s) ]
  | Skew_reset h -> ev "skew_reset" [ host h ]
  | Cache_flush h -> ev "cache_flush" [ host h ]

let case_to_json ?(expect = []) c =
  J.Obj
    [ ("schema_version", J.int J.schema_version);
      ("kind", J.Str "chaos_repro");
      ("seed", J.int c.seed);
      ("flows", J.int c.flows);
      ("requests", J.int c.requests);
      ("horizon_us", J.Num c.horizon_us);
      ("bug", J.Str (bug_string c.bug));
      ("topology", J.Str (Ns.Topology.to_string c.topology));
      ("expect", J.Arr (List.map (fun n -> J.Str n) expect));
      ("schedule", J.Arr (List.map item_json (normalize c.sched))) ]

let case_of_json text =
  let ( let* ) r f = Result.bind r f in
  let* v = J.parse text in
  let num name v =
    match J.member name v with
    | Some (J.Num f) -> Ok f
    | _ -> Error (Printf.sprintf "chaos repro: missing number %S" name)
  in
  let str name v =
    match J.member name v with
    | Some (J.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "chaos repro: missing string %S" name)
  in
  let* kind = str "kind" v in
  let* () =
    if String.equal kind "chaos_repro" then Ok ()
    else Error (Printf.sprintf "chaos repro: kind is %S" kind)
  in
  (* the ranges run_case demands, checked here so a hostile file is an
     Error rather than an exception or a silently truncated replay *)
  let int_in name ~lo ~hi =
    let* f = num name v in
    if Float.is_integer f && f >= float_of_int lo && f <= float_of_int hi then
      Ok (int_of_float f)
    else
      Error
        (Printf.sprintf "chaos repro: %S must be an integer in %d..%d" name lo
           hi)
  in
  let* seed = int_in "seed" ~lo:(-(1 lsl 52)) ~hi:(1 lsl 52) in
  let* flows = int_in "flows" ~lo:1 ~hi:64 in
  let* requests = int_in "requests" ~lo:1 ~hi:1000 in
  let* horizon_us = num "horizon_us" v in
  let* () =
    if Float.is_finite horizon_us && horizon_us > 0.0 then Ok ()
    else Error "chaos repro: \"horizon_us\" must be finite and positive"
  in
  let* bug_s = str "bug" v in
  let* bug =
    match bug_of_string bug_s with
    | Some b -> Ok b
    | None -> Error (Printf.sprintf "chaos repro: unknown bug %S" bug_s)
  in
  let* topology =
    (* absent in pre-fabric (schema ≤ 3) repro files: the historic pair *)
    match J.member "topology" v with
    | None -> Ok (Ns.Topology.pair ())
    | Some (J.Str s) -> (
      match Ns.Topology.of_string s with
      | Some t -> Ok t
      | None -> Error (Printf.sprintf "chaos repro: unknown topology %S" s))
    | Some _ -> Error "chaos repro: \"topology\" must be a string"
  in
  let* expect =
    match J.member "expect" v with
    | Some (J.Arr xs) ->
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          match x with
          | J.Str s -> Ok (s :: acc)
          | _ -> Error "chaos repro: expect entries must be strings")
        (Ok []) xs
      |> Result.map List.rev
    | _ -> Error "chaos repro: missing \"expect\" array"
  in
  let host_of name v =
    let* h = str name v in
    match h with
    | "client" -> Ok Client
    | "server" -> Ok Server
    | _ -> Error (Printf.sprintf "chaos repro: unknown host %S" h)
  in
  let item_of x =
    let* at_us = num "at_us" x in
    let* () =
      if Float.is_finite at_us && at_us >= 0.0 then Ok ()
      else Error "chaos repro: event time out of range"
    in
    let* ev_s = str "event" x in
    let* ev =
      match ev_s with
      | "crash" ->
        let* h = host_of "host" x in
        Ok (Crash h)
      | "restart" ->
        let* h = host_of "host" x in
        Ok (Restart h)
      | "partition_on" -> Ok Partition_on
      | "partition_off" -> Ok Partition_off
      | "skew" ->
        let* h = host_of "host" x in
        let* s = num "scale" x in
        if Float.is_finite s && s > 0.0 then Ok (Skew (h, s))
        else Error "chaos repro: skew scale out of range"
      | "skew_reset" ->
        let* h = host_of "host" x in
        Ok (Skew_reset h)
      | "cache_flush" ->
        let* h = host_of "host" x in
        Ok (Cache_flush h)
      | other -> Error (Printf.sprintf "chaos repro: unknown event %S" other)
    in
    Ok { at_us; ev }
  in
  let* sched =
    match J.member "schedule" v with
    | Some (J.Arr xs) ->
      List.fold_left
        (fun acc x ->
          let* acc = acc in
          let* i = item_of x in
          Ok (i :: acc))
        (Ok []) xs
      |> Result.map List.rev
    | _ -> Error "chaos repro: missing \"schedule\" array"
  in
  Ok ({ seed; flows; requests; horizon_us; bug; topology; sched }, expect)

(* ----- shrinking ---------------------------------------------------------- *)

type shrink_result = {
  target : string;
  minimal : schedule;
  runs : int;
}

let split_chunks xs n =
  (* n roughly equal chunks, in order *)
  let len = List.length xs in
  let size = max 1 ((len + n - 1) / n) in
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = size then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let shrink (c : case) =
  let o0 = run_case c in
  match o0.violations with
  | [] -> None
  | first :: _ ->
    let target = first.Invariant.name in
    let runs = ref 1 in
    let still_fails sched =
      incr runs;
      let o = run_case { c with sched } in
      List.mem target (failure_names o)
    in
    (* ddmin: try dropping ever-smaller chunks while the violation holds *)
    let rec ddmin sched n =
      let len = List.length sched in
      if len <= 1 then sched
      else begin
        let chunks = split_chunks sched n in
        let rec try_without i =
          if i >= List.length chunks then None
          else begin
            let candidate =
              List.concat (List.filteri (fun j _ -> j <> i) chunks)
            in
            if candidate <> [] && still_fails candidate then Some candidate
            else try_without (i + 1)
          end
        in
        match try_without 0 with
        | Some smaller -> ddmin smaller (max (n - 1) 2)
        | None -> if n < len then ddmin sched (min len (2 * n)) else sched
      end
    in
    let minimal =
      if still_fails [] then []
      else ddmin (normalize c.sched) 2
    in
    (* time-coarsening: snap each surviving event onto coarser grids *)
    let coarsen sched grid =
      List.fold_left
        (fun sched i ->
          let rounded =
            List.mapi
              (fun j it ->
                if j = i then
                  { it with at_us = Float.round (it.at_us /. grid) *. grid }
                else it)
              sched
          in
          if rounded <> sched && still_fails rounded then rounded else sched)
        sched
        (List.init (List.length sched) (fun i -> i))
    in
    let minimal =
      List.fold_left coarsen minimal [ 50_000.0; 10_000.0; 1_000.0 ]
    in
    Some { target; minimal = normalize minimal; runs = !runs }

let replay (c : case) ~expect =
  let o = run_case c in
  let norm xs = List.sort_uniq compare xs in
  (o, norm (failure_names o) = norm expect)
