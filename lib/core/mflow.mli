(** Multi-flow traffic engine: N concurrent flows with connection churn
    through one shared host pair, reported with latency percentiles and
    demux-map statistics.

    The paper's §2.2 demux optimizations (one-entry map cache with the
    conditionally inlined hit test, the lazily maintained non-empty-bucket
    list) are only interesting when many connections are live: with one
    flow the cache always hits and traversal is trivial.  This engine makes
    that regime measurable — the cache hit rate falls and chain compares
    and traversal scans grow as the active-flow count exceeds what the
    single-entry cache can cover.

    Cells run the protocol stacks standalone (no machine model), like
    {!Soak}: a cell costs milliseconds, and sweeps parallelize over
    {!Protolat_util.Dpool} with bit-identical reports at any job count. *)

module Util = Protolat_util
module Obs = Protolat_obs

(** How each flow generates requests. *)
type arrival =
  | Closed_loop of { think_us : float }
      (** next request after the previous response plus an exponential
          think time with the given mean (0 = back-to-back) *)
  | Open_loop of { interarrival_us : float }
      (** Poisson arrivals with the given mean interarrival, regardless of
          outstanding responses *)

type workload = {
  arrival : arrival;
  req_bytes : int;
  resp_bytes : int;
  requests_per_flow : int;
  conn_lifetime : int option;
      (** mean request/response exchanges a TCP connection carries before
          it is torn down and reopened (drawn per connection, uniform in
          [\[1, 2n-1\]]); [None] = one connection per flow, no churn *)
}

val default_workload : workload
(** Closed loop with 200 µs mean think time, 64 B requests, 256 B
    responses, 32 exchanges per flow, connection lifetime 8. *)

val arrival_name : arrival -> string

(** Demux-map counters of the server's connection map (TCP PCB map or CHAN
    channel map) accumulated over the cell. *)
type map_stats = {
  resolves : int;
  cache_hits : int;
  key_compares : int;
  buckets_scanned : int;
  nonempty : int;
}

val hit_rate : map_stats -> float
(** Fraction of resolves answered by the one-entry cache (1.0 when no
    resolves happened).  Note that when the conditionally inlined cache
    test is enabled ({!Protolat_tcpip.Opts.map_cache_inline}), an inline
    miss falls into the general function, which resolves through the
    just-refilled cache — so a true miss counts two resolves and one hit
    and the reported rate is compressed toward [1/(2-h)] of the true
    rate [h].  Disable the inline test to measure raw demux locality. *)

val compares_per_resolve : map_stats -> float

(** One cell: [flows] concurrent flows at one seed. *)
type cell = {
  stack : Engine.stack_kind;
  flows : int;
  seed : int;
  requests : int;  (** completed request/response exchanges *)
  conns : int;  (** TCP connections opened (channel-map size for RPC) *)
  reconnects : int;
      (** connections the chaos supervisor force-reopened after a host
          crash stranded their flow (0 without chaos) *)
  retransmits : int;
  lat : Util.Stats.Hist.digest;
      (** aggregate latency over every exchange: quantile digest of the
          per-flow streaming histograms merged in flow order (exact
          counts; p50–p99.99 accurate to one log-bucket) *)
  per_flow : Util.Stats.Hist.digest array;  (** indexed by flow id *)
  server_map : map_stats;
  timer_high_water : int;
      (** peak simultaneously pending timer events on the worse host *)
  sweeps : int;  (** PCB housekeeping traversals run (TCP only) *)
  drained : bool;
      (** teardown left no session, no pending timer, no sim event *)
  violations : string list;
      (** {!Invariant.conservation} findings against the cell's metrics
          at quiesce, rendered; empty for a sound cell *)
  metrics : Obs.Metrics.t;
      (** the pair's unified registry, including the [mflow.*] scope
          (latency histogram, request/connection counters, hit-rate and
          timer-occupancy gauges) *)
}

val run_cell :
  ?workload:workload ->
  ?chaos:Chaos.schedule ->
  flows:int ->
  Engine.Spec.t ->
  cell
(** Run one cell.  The spec supplies the stack, the protocol configuration
    (whose {!Config.t} opts control e.g. the inlined map-cache test) and
    the seed; machine-model fields ([rounds], [params], ...) are unused —
    cells run standalone.

    [chaos] injects a host-lifecycle fault schedule (see {!Chaos}): hosts
    crash and restart mid-run, the server's listener and sweep timer are
    rebuilt on restart, and a crash-proof supervisor reconnects stranded
    flows and resends their cleared in-flight requests (counted in
    [reconnects]).  Chaos requires the TCP stack and a closed-loop
    workload.
    @raise Failure if flows do not finish before the internal deadline or
    a handshake fails (the message names each stuck flow with its
    connection state and in-flight count).
    @raise Invalid_argument for chaos on RPC or an open-loop workload. *)

type report = {
  rstack : Engine.stack_kind;
  rtopology : Protolat_netsim.Topology.t;
      (** the 2-host wiring every cell ran over (from the base spec) *)
  flow_counts : int list;
  seeds : int;
  workload : workload;
  cells : cell list;  (** flow counts major, seeds minor *)
}

val seed_for : int -> int -> int
(** [seed_for base i]: seed of the [i]-th repetition — a stream distinct
    from {!Engine.sample_seed} and the soak's. *)

val sweep :
  ?flow_counts:int list ->
  ?seeds:int ->
  ?jobs:int ->
  ?workload:workload ->
  Engine.Spec.t ->
  report
(** Run [flow_counts × seeds] cells (defaults: flows 1/8/64, 2 seeds),
    fanned over a domain pool; the report is bit-identical at any [jobs]. *)

val summary : report -> (int * (float * float * float * float)) list
(** Per flow count, averaged over seeds:
    [(flows, (p50_us, p99_us, hit_rate, key_compares_per_resolve))]. *)

val render : report -> string

val passed : report -> bool
(** Every cell drained cleanly and broke no conservation law. *)

val to_json : report -> Obs.Json.v
(** Deterministic JSON document (carries ["schema_version"]). *)
