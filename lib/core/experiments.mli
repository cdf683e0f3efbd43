(** One entry point per table/figure of the paper (DESIGN.md §4).

    Each function returns a rendered table (or diagram) showing our measured
    values next to the paper's published ones.  [full_run] executes the six
    configurations on both stacks once; the per-table functions reuse it. *)

type results = {
  tcp : (Config.version * Engine.sample_set) list;
  rpc : (Config.version * Engine.sample_set) list;
}

val full_run :
  ?samples_tcp:int ->
  ?samples_rpc:int ->
  ?rounds:int ->
  ?jobs:int ->
  unit ->
  results
(** Defaults follow the paper: 10 samples for TCP/IP, 5 for RPC.  [jobs]
    (default 1) fans the independent (configuration, seed) runs across
    that many domains; results are bit-identical at any job count. *)

val get : results -> Engine.stack_kind -> Config.version -> Engine.sample_set
(** Look up one configuration's sample set in a [full_run] result. *)

val table1 : unit -> Protolat_util.Table.t
(** Dynamic instruction-count reductions of the §2.2 changes. *)

val table2 : unit -> Protolat_util.Table.t
(** Original vs improved x-kernel TCP/IP. *)

val table3 : unit -> Protolat_util.Table.t
(** Instruction counts per processing segment vs [CJRS89] and DEC Unix. *)

val profile :
  stack:Engine.stack_kind -> version:Config.version -> unit ->
  Protolat_util.Table.t
(** Per-function instruction breakdown of one steady-state roundtrip. *)

val instruction_mix :
  stack:Engine.stack_kind -> version:Config.version -> unit ->
  Protolat_util.Table.t

val table4 : results -> Protolat_util.Table.t
(** End-to-end roundtrip latency for the six versions. *)

val table5 : results -> Protolat_util.Table.t
(** Table 4 adjusted for the network controller constant. *)

val table6 : results -> Protolat_util.Table.t
(** Cache statistics (cold replay of the collected roundtrip trace). *)

val table7 : results -> Protolat_util.Table.t
(** Processing time, trace length, mCPI, iCPI (steady-state replay). *)

val table8 : results -> Protolat_util.Table.t
(** Latency-improvement decomposition between adjacent versions. *)

val table9 : results -> Protolat_util.Table.t
(** Outlining effectiveness: unused i-cache share and static path size. *)

val figure1 : unit -> string
(** The two protocol stacks. *)

val figure2 : unit -> string
(** i-cache footprint maps: STD vs OUT vs CLO (TCP/IP). *)

val map_traversal : unit -> Protolat_util.Table.t
(** §2.2.1: non-empty-bucket-list traversal vs full-table scan, by
    occupancy (operation counts; wall-clock lives in the bench). *)

val micro_positioning : unit -> Protolat_util.Table.t
(** §3.2: micro-positioning vs bipartite layout. *)

val layout_candidates : Config.layout list
(** Every placement strategy, in sweep order. *)

val layout_sweep_base :
  ?config:Config.t -> ?stack:Engine.stack_kind -> unit -> Engine.run_result
(** The base measurement run an incremental {!layout_sweep} starts from
    (the config's own layout).  Expose it so a caller timing sweep
    mechanics can hoist the shared base protocol simulation out of the
    timed region and pass it back via [?base]. *)

val layout_sweep :
  ?config:Config.t ->
  ?stack:Engine.stack_kind ->
  ?layouts:Config.layout list ->
  ?base:Engine.run_result ->
  incremental:bool ->
  unit ->
  (Config.layout * Protolat_machine.Perf.report
  * Protolat_machine.Perf.report) list
(** Cold and steady replay reports for each candidate placement of the
    same code units ([(layout, cold, steady)]).  [~incremental:true]
    captures one base run and re-evaluates only the i-side mapping per
    candidate: instruction addresses are rewritten with
    {!Protolat_layout.Image.pc_map}, the basic-block segmentation is
    re-bound with {!Protolat_machine.Blockcache.rebind}, and both the cold
    and warm replays go through the block cache
    ({!Protolat_machine.Perf.measure}).  [~incremental:false] runs the
    full protocol simulation per layout.  Both produce bit-identical reports; the
    incremental sweep is several times faster.  [?base] supplies the base
    run (from {!layout_sweep_base} with the same [config]/[stack]) instead
    of computing it; only the incremental path uses it. *)

val layout_sweep_table : ?incremental:bool -> unit -> Protolat_util.Table.t
(** {!layout_sweep} as a printed table (default incremental). *)

val layout_search :
  ?budget:int ->
  ?seeds:int ->
  ?geometries:int list ->
  ?jobs:int ->
  unit ->
  Protolat_util.Table.t
(** {!Layoutsearch.run} as a printed table: automated search vs the best
    hand-picked layout per stack x geometry cell, with candidates/sec.
    Defaults are the quick configuration (240 evaluations, 1 restart,
    8 KB geometry only); [protolat search] exposes the full matrix. *)

val throughput : unit -> Protolat_util.Table.t
(** §4.1: the techniques do not hurt throughput (the wire is the
    bottleneck); §2.2.5: the instruction-count changes reduce CPU
    utilization even when they cannot reduce latency. *)

val dec_unix_mcpi : unit -> Protolat_util.Table.t
(** §5: mCPI of a production-style (original-options) stack vs the
    optimally configured system. *)

val fault_injection : unit -> Protolat_util.Table.t
(** Seeded {!Protolat_netsim.Fault} schedules under the fully metered
    engine (ALL configuration): mean roundtrip latency, retransmissions,
    and how many of the soak-tracked outlined cold blocks each schedule
    drives.  Quantifies what the outlined error paths cost when they do
    run (S2.2.3). *)

val mflow_scaling :
  ?flow_counts:int list -> ?seeds:int -> ?jobs:int -> unit -> Protolat_util.Table.t
(** Multi-flow scaling (extra experiment): latency percentiles and
    demux-map statistics as the concurrent-flow count grows past what the
    one-entry map cache covers (defaults: 1/8/64/256 flows, 4 seeds). *)

val chaos_degradation :
  ?intensities:int list -> ?seeds:int -> ?jobs:int -> unit -> Protolat_util.Table.t
(** Degradation under host-lifecycle chaos (extra experiment): completed
    exchanges, reconnects, goodput and latency percentiles of the
    {!Chaos} at-most-once workload as the per-horizon fault-incident
    count grows (defaults: intensities 0/1/2/4/8, 2 seeds).  Any
    invariant violation appears in the last column — a correct stack
    shows "none" throughout. *)

val incast_latency :
  ?fan_ins:int list -> ?seeds:int -> ?jobs:int -> unit -> Protolat_util.Table.t
(** Incast over the switched star fabric (extra experiment): completion
    latency percentiles, switch queue drops and retransmissions as the
    client fan-in degree grows past what the server's access link and the
    switch's bounded egress queue absorb (defaults: fan-in 2..64, 1
    seed).  [jobs] parallelizes the per-cell host shards. *)
