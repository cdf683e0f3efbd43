(** Direct-mapped cache simulator with cold / replacement miss accounting.

    A {e replacement miss} (the paper's "Repl" column in Table 6) is a miss
    on a block that was resident earlier and has since been evicted; a cold
    miss is the first reference to a block. *)

type t

type outcome =
  | Hit
  | Miss_cold
  | Miss_repl

val create : size_bytes:int -> block_bytes:int -> t

val block_bytes : t -> int

val line_of : t -> int -> int
(** [line_of t addr] is the block (line) address containing byte address
    [addr] — a shift by the precomputed log2 of the block size, shared by
    {!access} and {!probe}. *)

val access : t -> int -> outcome
(** [access t addr] looks up (and on a miss, fills) the block containing
    byte address [addr]. *)

val probe : t -> int -> bool
(** Lookup without filling: is the block containing [addr] resident? *)

(** {2 Generation tags — the basic-block fast path's residency witness}

    Every set carries a generation counter bumped on each tag change (fill
    or invalidation).  A memoized block that verified all its lines
    resident at generations [g1..gk] stays provably resident while the
    generations are unchanged, so re-verification is [k] integer compares
    instead of [k] probes — and a hit costs no per-instruction work at
    all. *)

val n_sets : t -> int
(** Number of sets ([size_bytes / block_bytes]). *)

val set_of_line : t -> int -> int
(** Set index holding block (line) address [line]. *)

val resident_line : t -> int -> bool
(** Like {!probe} but on a block (line) address from {!line_of}. *)

val generation : t -> int -> int
(** Current generation of set [set] (from {!set_of_line}). *)

val generations : t -> int array
(** The underlying per-set generation array itself, for fast-path
    verifiers that compare generations in a hot loop (a call per compare
    is not free without cross-module inlining).  Callers must treat it as
    read-only. *)

val credit_hits : t -> int -> unit
(** [credit_hits t n] records [n] hits in one step: exactly the statistics
    effect of [n] hitting {!access} calls (accesses and hits up by [n],
    {!last_victim} cleared).  Only valid when the caller has proven all
    [n] lookups would hit (e.g. via generation tags). *)

val invalidate_all : t -> unit
(** Empty the cache but keep statistics and eviction history. *)

val clear : t -> unit
(** Restore the exact state of a fresh {!create}: empty sets, generations
    back at 0, eviction history forgotten (first-touch misses classify as
    cold again), statistics zeroed.  Unlike {!invalidate_all} this is a
    true reset, not an eviction — it lets {!Memsys.lease} hand one cache
    allocation to many simulations instead of paying {!create}.  It
    resets only the sets {!access} logged as filled from empty since the
    previous clear, or every set when the log overflowed (more fills than
    an eighth of the sets).  The first clear allocates the log, so caches
    that are never cleared carry none.  Only sound when no generation
    snapshot taken before the clear is consulted after it: a reset
    generation can coincide with a stale snapshot and fake residency.  A
    lease wraps its caches in a new {!Memsys.t}, on which
    {!Blockcache.replay} drops the snapshots it took against any other. *)

val reset_stats : t -> unit

(** Statistics since the last [reset_stats]. *)

val accesses : t -> int

val hits : t -> int

val misses : t -> int

val cold_misses : t -> int

val repl_misses : t -> int

val last_victim : t -> int
(** Block address evicted by the most recent {!access}; [-1] if that access
    hit or filled an empty set.  Valid until the next access — an
    attribution pass reads it immediately after each lookup to name the
    (victim, evictor) pair of a conflict miss. *)
