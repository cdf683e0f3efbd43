(** N-client incast over the switched star fabric — the first scenario
    that exercises {!Protolat_netsim.Topology}/{!Protolat_netsim.Switch}
    beyond two hosts.

    [fan_in] TCP clients connect through a store-and-forward switch to one
    server, synchronize on a start barrier, then fire closed-loop
    request/response exchanges.  The server's single access link and the
    switch's bounded per-port egress queue are the shared bottleneck, so
    completion latency grows — and its tail stretches — with the fan-in
    degree, the classic incast signature.

    {2 Sharded execution}

    Hosts shard across domains: the {e hub} shard owns the switch and the
    server, up to 8 {e client} shards split the clients round-robin.  Each
    client's access segment is two half-links (client half on its shard,
    switch half on the hub) joined by the {!Protolat_netsim.Ether.Link}
    remote-sink/inject exchange.  Shards advance in lock-step epochs of at
    most [min-frame serialization + propagation] past the globally
    earliest pending event — no cross-shard frame can arrive sooner, so
    parking frames at the epoch barrier and injecting them in fixed shard
    order is both causally safe and deterministic.  The shard count
    depends only on the fan-in, never on [jobs]: cells — and their
    digests — are bit-identical whether epochs run serially or on a
    domain pool. *)

module Util = Protolat_util

type workload = {
  req_bytes : int;
  resp_bytes : int;
  requests_per_client : int;
  stagger_us : float;
      (** connect spacing (plus seeded jitter); the request burst itself
          is synchronized at a barrier past the last connect *)
  switch_latency_us : float;
  port_queue_frames : int;  (** switch egress queue bound, per port *)
  horizon_us : float;  (** give-up time for stuck cells *)
}

val default_workload : workload
(** 64 B requests, 512 B responses, 4 requests per client, 50 µs connect
    stagger, 5 µs switch latency, 32-frame port queues. *)

(** One fan-in × seed measurement. *)
type cell = {
  fan_in : int;
  seed : int;
  completed : int;  (** exchanges finished before the horizon *)
  total : int;  (** [fan_in × requests_per_client] *)
  lat : Util.Stats.Hist.digest;
      (** request-to-response completion latency over all exchanges,
          merged from per-client streaming histograms in client order *)
  retransmits : int;
  queue_drops : int;  (** switch egress-queue overflow drops *)
  queue_peak : int;
  epochs : int;  (** lock-step rounds the shard engine ran *)
  end_us : float;
  drained : bool;  (** every exchange completed *)
  violations : string list;
      (** {!Invariant.conservation_dump} findings over the merged
          per-shard registries at quiesce, rendered; empty when sound *)
  digest : string;
      (** MD5 over a canonical client-ordered rendering of the cell —
          equal across [jobs] values by construction *)
}

val run_cell :
  ?wl:workload -> ?jobs:int -> fan_in:int -> seed:int -> unit -> cell
(** Run one incast cell on a [star:(fan_in+1)] fabric.
    @raise Invalid_argument unless [1 <= fan_in <= 1024]. *)

type report = {
  fan_ins : int list;
  seeds : int;
  wl : workload;
  cells : cell list;  (** fan-in major, seed minor *)
}

val seed_for : int -> int -> int
(** [seed_for base i]: seed of the [i]-th repetition — a stream distinct
    from the engine's, the soak's and mflow's. *)

val sweep :
  ?wl:workload ->
  ?fan_ins:int list ->
  ?seeds:int ->
  ?jobs:int ->
  seed:int ->
  unit ->
  report
(** Latency-vs-fan-in sweep (defaults: fan-ins 2/4/8/16/32/64, 1 seed).
    Cells run sequentially — [jobs] parallelizes the shards {e within}
    each cell, which is where the hosts are. *)

val passed : report -> bool
(** Every cell drained and broke no conservation law. *)

val render : report -> string

val to_json : report -> Protolat_obs.Json.v
(** Deterministic JSON document ([kind = "incast"], carries
    ["schema_version"] and the largest cell's ["topology"] stamp). *)
