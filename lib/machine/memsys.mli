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
(** A hierarchy of its own, with newly allocated caches.  Simulations
    that run to completion inside one call take theirs from {!lease}
    instead. *)

val lease : Params.t -> (t -> 'a) -> 'a
(** [lease p f] runs [f] on a hierarchy that simulates every trace
    bit-identically to [create p], built around caches taken from this
    domain's pool: a cache is allocated only when the pool holds none of
    its geometry (size and block bytes).  When [f] returns or raises, the
    caches are cleared ({!Cache.clear}, which resets only the sets filled
    since they were taken) and go back to the pool.

    The hierarchy must not escape [f]: after the bracket its caches
    belong to the next lease.  Each lease gets a new [t], so nested
    leases on one domain hold physically distinct caches, and a
    {!Blockcache} segmentation replayed under two leases never carries
    generation snapshots from the first into the second.  A free list
    keeps at most four caches of a primary's size and one b-cache; the
    pool never shrinks otherwise. *)

type pool_count = {
  size_bytes : int;
  block_bytes : int;
  created : int;  (** caches of this geometry a lease had to allocate *)
  reused : int;  (** caches of this geometry a lease took from the pool *)
}

val pool_counts : unit -> pool_count list
(** The calling domain's pool counters, one entry per geometry a lease
    has asked for, in increasing (size, block) order.  Each lease takes
    three caches: i-, d- and b-cache. *)

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
