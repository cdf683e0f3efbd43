(** Per-layer latency attribution reports ([protolat profile]).

    Runs one configuration, attributes every cycle of the collected
    steady-state (or cold) roundtrip trace to its originating function via
    {!Protolat_obs.Attrib}, and rolls functions up into the paper's
    protocol layers (TCPTEST/TCP/IP/VNET/ETH/LANCE for the TCP/IP stack;
    XRPCTEST/MSELECT/VCHAN/CHAN/BID/BLAST/ETH/LANCE for RPC; LIB for
    shared library code; OTHER for untagged instructions).

    {!check} enforces the conservation laws: per-function and per-layer
    columns must sum to the aggregate {!Protolat_machine.Perf} report, and
    cold + self + cross conflict classifications must account for every
    i-cache miss. *)

module Machine = Protolat_machine
module Obs = Protolat_obs

val layer_of : stack:Engine.stack_kind -> string -> string
(** Protocol layer of a function name ("LIB" for library helpers, "OTHER"
    for names the stack does not know). *)

val layer_order : stack:Engine.stack_kind -> string list
(** Layers top-down in protocol order, then LIB and OTHER. *)

type layer = {
  layer : string;
  instrs : int;
  issue : float;
  penalty : float;
  stall : float;
  imiss : int;
  imiss_cold : int;
  imiss_repl : int;
  dwb_miss : int;
}

val layer_cycles : layer -> float

val layer_mcpi : layer -> float

type t = {
  stack : Engine.stack_kind;
  version : Config.version;
  topology : Protolat_netsim.Topology.t;
  seed : int;
  mode : [ `Steady | `Cold ];
  run : Engine.run_result;
  attrib : Obs.Attrib.t;
  layers : layer list;
}

val collect :
  ?topology:Protolat_netsim.Topology.t ->
  ?seed:int ->
  ?rounds:int ->
  ?mode:[ `Steady | `Cold ] ->
  ?params:Machine.Params.t ->
  stack:Engine.stack_kind ->
  version:Config.version ->
  unit ->
  t

val collect_many :
  ?topology:Protolat_netsim.Topology.t ->
  ?seed:int ->
  ?rounds:int ->
  ?mode:[ `Steady | `Cold ] ->
  ?params:Machine.Params.t ->
  ?jobs:int ->
  stack:Engine.stack_kind ->
  Config.version list ->
  t list
(** One {!collect} per version, fanned over a domain pool; results are
    identical at any job count. *)

val report : t -> Machine.Perf.report
(** The aggregate report the attribution must agree with (steady or cold
    depending on [mode]). *)

val check : t -> (unit, string) result
(** All conservation laws, or a newline-separated list of violations. *)

val render : ?top:int -> t -> string
(** Text report: aggregate line, per-layer table, top-[top] (default 12)
    functions by attributed cycles, and the i-cache conflict matrix. *)

val to_json : t -> Obs.Json.v
(** Deterministic JSON document embedding the layer/function/conflict
    breakdowns and the run's unified metrics dump. *)
