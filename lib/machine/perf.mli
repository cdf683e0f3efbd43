(** Trace analysis pipeline: runs a protocol-processing trace through the
    memory-hierarchy and CPU simulators and produces the paper's Table 6 and
    Table 7 quantities.

    Two modes reproduce the paper's two measurements:
    - cold: a single replay from empty caches — the Table 6 cache statistics
      (large cold b-cache miss counts, zero b-cache replacement misses unless
      the layout conflicts).
    - steady: the trace is replayed [warmup + 1] times and the final replay
      is measured — the per-invocation behaviour of a long ping-pong run, in
      which the b-cache is warm and the primary caches exhibit their
      per-path capacity and conflict misses.  This corresponds to the
      cycle-counter timings of Table 7.

    {!measure} is the one replay kernel: it takes a {!Blockcache}
    segmentation and returns both reports.  {!cold} and {!steady} are the
    same measurements straight from a trace. *)

type report = {
  length : int;  (** trace length in instructions *)
  stats : Memsys.stats;
  issue_cycles : float;
  instr_cycles : float;  (** perfect-memory cycles *)
  total_cycles : float;  (** instr_cycles + memory stalls *)
  icpi : float;
  mcpi : float;
  cpi : float;
  time_us : float;
}

val cold : Params.t -> Trace.t -> report
(** The cold report: one per-instruction replay from empty caches. *)

val steady : ?warmup:int -> Params.t -> Trace.t -> report
(** The steady report, [snd (measure ?warmup (Blockcache.segment p trace))].
    Default [warmup] is 3. *)

val measure : ?warmup:int -> Blockcache.t -> report * report
(** [(cold, steady)] of the segmentation's trace under its params
    ({!Blockcache.params}), from one memory system: the first replay from
    empty caches is the cold report and doubles as the first of [warmup]
    warmup replays; the final replay is the steady report (with
    [warmup <= 0] there is only the first replay, and both reports are
    it).  Bit-identical to [(cold p trace, steady ~warmup p trace)].  Warm
    replays go through the {!Blockcache} fast path when it is enabled.

    Resets the segmentation's replay counters
    ({!Blockcache.reset_counters}) immediately before the measured replay,
    so they describe that replay alone.

    Every entry point here replays into a hierarchy from
    {!Memsys.lease}, so calls at one geometry on one domain allocate no
    cache after the first. *)

val pp_report : Format.formatter -> report -> unit
