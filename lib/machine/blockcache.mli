(** Memoized basic-block replay — the simulator's warm-block fast path.

    Segments a trace once into compact block-level tables (flat run-offset
    arrays plus a packed [Bigarray] data-reference stream), then replays it
    against a {!Memsys}: a run whose i-cache lines are verifiably resident
    (witnessed by {!Cache} generation tags) is charged its hits in one step
    and only its data references are simulated.  Anything not verifiably
    warm falls back per-run to the exact per-instruction loop.  Results —
    stall totals, every cache counter, eviction history — are bit-identical
    to {!Memsys.run}.

    A segmentation is everything {!Perf.measure} needs: it carries the
    params it was cut for and the trace's CPU-model scans
    ({!Cpu.issue_cycles}, {!Cpu.perfect_memory_cycles}).

    The knob: set [PROTOLAT_FASTPATH=0] (or [false]/[off]/[no]) in the
    environment, or call {!set_enabled}[ false], to force the slow path
    everywhere.  Used by the CI equivalence leg and the fast-path tests. *)

type t

val enabled : unit -> bool
(** Current state of the global fast-path knob (initialized from the
    [PROTOLAT_FASTPATH] environment variable; on by default). *)

val set_enabled : bool -> unit

val segment : Params.t -> Trace.t -> t
(** Segment [trace] into basic-block runs against the i-cache geometry in
    the params, and run the two CPU-model scans.  O(length); the result can
    replay against any number of memory systems. *)

val rebind : t -> Trace.t -> t
(** [rebind t trace'] reuses [t]'s segmentation — run boundaries, the
    packed data-reference stream and the CPU-model scans, which a code
    layout change does not alter, are shared structurally — but recomputes
    each run's i-cache lines from [trace']'s pcs: the incremental step of a
    layout sweep, where only instruction addresses moved.  [trace'] must
    differ from [trace t] in its pcs alone ({!Trace.map_pcs} /
    {!Trace.remap_pcs} of it).

    @raise Invalid_argument if the traces differ in length. *)

val replay : t -> Memsys.t -> unit
(** Replay the trace through [m], bit-identical to [Memsys.run m trace].
    Safe across distinct memory systems (snapshots are invalidated when the
    target changes) and across mid-replay invalidations (generation tags
    demote affected runs to the slow path). *)

val trace : t -> Trace.t

val params : t -> Params.t
(** The params given to {!segment}. *)

val issue_cycles : t -> float
(** {!Cpu.issue_cycles} of the trace under {!params}. *)

val instr_cycles : t -> float
(** {!Cpu.perfect_memory_cycles} of the trace under {!params}. *)

val n_runs : t -> int

(** {2 Per-instance replay counters}

    {!Perf.measure} resets them after warmup, immediately before the
    measured replay, so they describe the measured replay alone. *)

val fast_runs : t -> int
(** Runs replayed via the memoized i-side path since the last
    {!reset_counters}. *)

val slow_runs : t -> int
(** Runs replayed instruction-by-instruction since the last
    {!reset_counters}. *)

val reset_counters : t -> unit
