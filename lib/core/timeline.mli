(** Timeline capture and Perfetto export ([protolat trace]).

    Runs one configuration with event tracing enabled — optionally over
    several seeds, fanned across a domain pool — and renders the captured
    packet/timer/fault/retransmission events as one Chrome/Perfetto
    trace-event JSON document.  Each seed becomes a Perfetto process with
    client (tid 0), server (tid 1) and wire (tid 2) tracks.  Output is
    byte-identical for the same seeds at any job count. *)

module Obs = Protolat_obs

type t = {
  stack : Engine.stack_kind;
  version : Config.version;
  processes : Obs.Perfetto.process list;
  results : Engine.run_result list;
}

val seed_of : base_seed:int -> int -> int
(** Seed of the [i]-th process: [base_seed + i * 7919]. *)

val collect :
  ?base_seed:int ->
  ?seeds:int ->
  ?rounds:int ->
  ?fault:Protolat_netsim.Fault.spec ->
  ?jobs:int ->
  stack:Engine.stack_kind ->
  version:Config.version ->
  unit ->
  t

val to_json : t -> Protolat_obs.Json.v
(** Perfetto trace-event JSON ([{"traceEvents":[...]}]). *)

val events : t -> int
(** Total retained events across all processes. *)

val raw : t -> string
(** Plain-text event listing (one line per event), for quick grepping. *)
