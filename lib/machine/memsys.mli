(** DEC 3000/600 memory hierarchy: split direct-mapped 8KB i/d caches, a
    4-deep merging write buffer on the write path, and a 2MB direct-mapped
    write-back b-cache.

    The d-cache serves only reads (write-through, read-allocate); writes go
    through the write buffer (§4.1).  An i-cache miss that starts a new
    sequential run additionally prefetches the next block from the b-cache,
    which is why b-cache accesses exceed i-misses plus d/wb misses (paper
    footnote to Table 8). *)

type t

val create : Params.t -> t

val params : t -> Params.t

val icache : t -> Cache.t
(** The i-cache itself — attribution passes read {!Cache.last_victim} and
    miss counters between accesses to classify conflict misses. *)

val dwb_misses : t -> int
(** Combined d-read misses + writes that reached the b-cache (the [dwb]
    row of {!stats}), readable mid-replay without building a [stats]. *)

val ifetch : t -> int -> float
(** Fetch the instruction at a byte address; returns stall cycles. *)

val load : t -> int -> float

val store : t -> int -> float

val drain_write_buffer : t -> float

val access : t -> pc:int -> kind:int -> addr:int -> float
(** Allocation-free form of {!process}: one instruction fetch at [pc] plus
    an optional data reference described by a {!Trace.kind_read} /
    {!Trace.kind_write} / {!Trace.kind_none} kind and address.  Returns
    total stall cycles. *)

val access_acc : t -> pc:int -> kind:int -> addr:int -> unit
(** Like {!access} but deposits the latency in the cell returned by
    {!lat_cell} instead of returning it: a float return would be boxed at
    the call boundary, and this runs once per simulated instruction. *)

val daccess_acc : t -> kind:int -> addr:int -> unit
(** Data-side-only {!access_acc}: no instruction fetch is simulated.  Only
    valid when the caller has proven the i-fetch would hit (the block's
    lines are resident, witnessed by {!Cache} generation tags) — the
    i-side then contributes exactly zero stall, so skipping it is
    bit-identical.  The i-cache hit statistics must be credited separately
    ({!Cache.credit_hits}). *)

val lat_cell : t -> float array
(** 1-element scratch cell written by {!access_acc}. *)

val process : t -> Trace.event -> float
(** Run one trace event through the hierarchy (ifetch + optional data
    reference); returns total stall cycles. *)

val run : t -> Trace.t -> float
(** Process a whole trace; returns accumulated stall cycles. *)

val invalidate_primary : t -> unit
(** Empty i-cache, d-cache and write buffer (keep the b-cache warm). *)

val invalidate_all : t -> unit

val clear : t -> unit
(** Restore the exact state of a fresh [create (params t)] without
    reallocating: caches emptied with eviction history and generations
    reset ({!Cache.clear}), write buffer reset, all counters and stall
    accumulators zeroed.  A cleared hierarchy simulates any trace
    bit-identically to a new one — the point is skipping the b-cache's
    two 65536-set array allocations when scoring many candidates against
    a reused scratch hierarchy, and a clear resets only the sets filled
    since the previous one ({!Cache.clear}), not all 65536 b-cache sets.
    Same caveat as {!Cache.clear} for the i-cache's generation tags. *)

val reset_stats : t -> unit

(** Table 6 statistics. *)

type cache_row = {
  miss : int;
  acc : int;
  repl : int;
}

type stats = {
  icache : cache_row;
  dwb : cache_row;  (** combined d-cache read path and write buffer *)
  bcache : cache_row;
  stall_cycles : float;
}

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
