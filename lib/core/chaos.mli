(** Host-lifecycle chaos engine: deterministic, seeded fault schedules
    layered above {!Protolat_netsim.Fault}, an at-most-once RPC workload
    supervised by the {!Invariant} watchdog, and a delta-debugging
    shrinker that reduces a failing schedule to a locally-minimal,
    replayable repro.

    Where [Fault] perturbs individual frames, a chaos schedule perturbs
    {e hosts}: it crashes and restarts them (all protocol state — PCBs,
    timers, reassembly buffers, driver queues — dies; the application's
    durable state survives), partitions the link for a window, skews a
    host's timer clock, and injects cache-pressure stalls at the NIC.
    A schedule is an explicit [(time, event) list], so every run is a
    pure function of [(case, schedule)]: replayable bit-identically at
    any job count, and shrinkable by removing or coarsening events. *)

module Ns = Protolat_netsim
module T = Protolat_tcpip
module Obs = Protolat_obs
module Util = Protolat_util

(** {1 Schedules} *)

type host =
  | Client
  | Server

type event =
  | Crash of host  (** power off: protocol state lost, frames dropped *)
  | Restart of host  (** power on; the workload's restart hook runs *)
  | Partition_on  (** link drops everything (nests; see {!inject}) *)
  | Partition_off
  | Skew of host * float  (** timer-clock scale factor (1.0 = nominal) *)
  | Skew_reset of host
  | Cache_flush of host  (** NIC busy-stall modelling cache pressure *)

type item = {
  at_us : float;
  ev : event;
}

type schedule = item list

val host_string : host -> string

val event_string : event -> string

val item_string : item -> string

val normalize : schedule -> schedule
(** Stable-sort by time and bump ties to strictly increasing whole
    microseconds, so injection order — and therefore the whole run — is
    independent of list construction order.  [run_case], {!inject} and
    the JSON exporter all normalize, so a schedule and its export replay
    identically. *)

val last_event_us : schedule -> float

val gen : seed:int -> intensity:int -> horizon_us:float -> schedule
(** A deterministic schedule of [intensity] fault incidents (weighted
    mix of crash/restart pairs, partition windows, skew windows and
    cache flushes), all recovering before [horizon_us]. *)

(** {1 Injection} *)

(** Live injection state, exposed so workloads can consult it. *)
type status

val is_down : status -> host -> bool

val crashes : status -> int

val restarts : status -> int

val partitions : status -> int

val skews : status -> int

val flushes : status -> int

val inject :
  T.Stack.net ->
  ?flush_us:float ->
  on_restart:(host -> unit) ->
  schedule ->
  status
(** Arm every event of the (normalized) schedule on the net's simulator
    (host 0 is [Client], host 1 [Server]).  Crashes power the LANCE down
    and wipe the host's volatile protocol state ({!T.Tcp.abort_all},
    {!T.Ip.reset}, {!Ns.Netdev.reset}, [Event.cancel_all]); restarts
    power it back up and call [on_restart] (a server re-installs its
    listeners there).  Partition windows nest: the fabric is open again
    only when every [Partition_on] has been matched, and unmatched
    [Partition_off]s (a shrinker artifact) are ignored.  On the pair
    fabric a partition is the historic whole-link filter; on switched
    fabrics every switch port black-holes ({!Ns.Fabric.partition_all}),
    so drops land in the switch's partition counter.  Crash/restart and
    flush events are idempotent against unpaired duplicates. *)

(** {1 The at-most-once workload} *)

type bug =
  | No_bug
  | Dedup_off
      (** disable the server's duplicate-request cache: a crash-induced
          client retry then re-executes the request, violating
          at-most-once — the canned regression the shrinker demos on *)

val bug_string : bug -> string

val bug_of_string : string -> bug option

type case = {
  seed : int;
  flows : int;  (** concurrent client flows, 1..64 *)
  requests : int;  (** requests per flow *)
  horizon_us : float;  (** fault activity is confined to [0, horizon) *)
  bug : bug;
  topology : Ns.Topology.t;
      (** 2-host wiring; [pair] (the default) reproduces pre-fabric runs
          bit for bit, [star]/[line] with 2 hosts route through the
          switch and partition at its ports *)
  sched : schedule;
}

val case : ?flows:int -> ?requests:int -> ?horizon_us:float -> ?bug:bug ->
  ?topology:Ns.Topology.t -> seed:int -> schedule -> case
(** Defaults: 4 flows, 24 requests, 200 ms horizon, [No_bug], pair
    topology. *)

type outcome = {
  completed : int;  (** verified request/response exchanges *)
  total : int;  (** [flows * requests] *)
  reconnects : int;  (** client reconnect attempts after the first *)
  duplicate_execs : int;  (** server-side re-executions (bug indicator) *)
  o_crashes : int;
  o_restarts : int;
  o_partitions : int;
  o_flushes : int;
  end_us : float;  (** simulated time when traffic finished (or gave up) *)
  goodput_rps : float;  (** completed / end_us *)
  lat : Util.Stats.quantiles;  (** per-exchange latency incl. retries *)
  violations : Invariant.violation list;
}

val run_case : case -> outcome
(** Run the workload under the case's schedule: [flows] clients issue
    sequentially-numbered requests over TCP to an at-most-once server
    whose reply cache survives crashes; clients reconnect (fresh port)
    and resend on loss.  The watchdog checks at-most-once execution,
    reply payload integrity and metrics conservation continuously, and
    flow/timer liveness at quiesce.  Deterministic in [case]. *)

val ok : outcome -> bool

val failure_names : outcome -> string list

(** {1 Matrix runs (soak / degradation)} *)

type cell = {
  intensity : int;
  c_case : case;
  c_outcome : outcome;
}

val run_matrix :
  ?flows:int ->
  ?requests:int ->
  ?horizon_us:float ->
  ?bug:bug ->
  ?topology:Ns.Topology.t ->
  ?intensities:int list ->
  ?seeds:int ->
  ?jobs:int ->
  seed:int ->
  unit ->
  cell list
(** Cells ordered intensity-major, seed-minor; fanned over
    {!Util.Dpool} and bit-identical at any [jobs]. *)

val digest : cell list -> string
(** MD5 over the printed ["cells"] value of {!matrix_to_json}, so the
    digest covers exactly what the export carries. *)

val passed : cell list -> bool

val render : cell list -> string

val matrix_to_json : cell list -> Obs.Json.v
(** [{"schema_version","kind":"chaos","digest","cells":[...]}]. *)

(** {1 Shrinking and repro files} *)

type shrink_result = {
  target : string;  (** the violation the shrinker preserved *)
  minimal : schedule;
  runs : int;  (** workload executions the search spent *)
}

val shrink : case -> shrink_result option
(** Delta-debug the case's schedule: greedy chunk removal (ddmin), then
    per-event removal, then time-coarsening onto 50 ms/10 ms/1 ms grids —
    keeping every candidate whose run still exhibits the original run's
    primary violation.  [None] if the case does not fail at all. *)

val case_to_json : ?expect:string list -> case -> Obs.Json.v
(** Versioned repro file: the case plus the violation names a replay is
    expected to produce ([expect = []] documents a fixed, clean run). *)

val case_of_json : string -> (case * string list, string) result
(** Parse a repro file; the second component is the [expect] list.
    [Error] unless [seed] is an integer, [flows] an integer in 1..64,
    [requests] an integer in 1..1000 (the ranges {!run_case} demands) and
    [horizon_us] finite and positive. *)

val replay : case -> expect:string list -> outcome * bool
(** Run the case and compare its violation names against [expect]
    (order-insensitively).  The bool is the match verdict. *)
