(** Placement strategies for cloned code (§3.2).

    A strategy assigns a base address to every unit.  The paper evaluates:
    - the uncontrolled link order of the standard kernel (STD);
    - a {e bipartite} layout separating once-per-invocation {e path}
      functions from repeatedly invoked {e library} functions, each
      partition laid out in first-call order ("closest-is-best");
    - {e micro-positioning}, a trace-driven greedy placement that minimizes
      predicted replacement misses at the cost of gaps;
    - a {e pessimal} layout (BAD) that forces i-cache (and some b-cache)
      conflicts, demonstrating the worst case. *)

type placement = (Image.unit_spec * int) list

val link_order : base:int -> Image.unit_spec list -> placement
(** Dense sequential placement in list order (cache-block aligned). *)

val invocation_order :
  base:int -> order:string list -> Image.unit_spec list -> placement
(** Dense sequential placement sorted by first occurrence in [order]; units
    not mentioned keep their relative position at the end. *)

val bipartite :
  base:int ->
  icache_bytes:int ->
  order:string list ->
  Image.unit_spec list ->
  placement
(** Partition the i-cache between a path region and a reserved library
    region: path units (first-invocation order) fill sets [0, window) of
    each i-cache-sized period; library units are packed into the reserved
    tail sets, so the path sweep cannot evict them. *)

val pessimal :
  base:int ->
  icache_bytes:int ->
  bcache_bytes:int ->
  ?bconflict_every:int ->
  Image.unit_spec list ->
  placement
(** Every unit starts at the same i-cache set (stride = i-cache size); every
    [bconflict_every]-th unit (default 2) is additionally placed a multiple
    of the b-cache size away so that a few functions collide in the b-cache
    as well, as observed for the paper's BAD configuration. *)

val micro_position :
  base:int ->
  icache_bytes:int ->
  block_bytes:int ->
  ref_seq:string list ->
  Image.unit_spec list ->
  placement
(** Trace-driven greedy placement.  Units are taken in order of first
    reference in [ref_seq] (unmentioned ones last, in list order); each
    gets the i-cache set offset (in blocks) that minimizes its predicted
    replacement conflicts with the units already placed: the sum, over
    each placed unit [q], of the number of i-cache sets the two share
    times the interleave weight [w(u,q) + w(q,u)], where [w(a,b)] counts
    the occurrences of [b] in [ref_seq] after the first occurrence of [a]
    (0 if [a = b] or either is absent).  Ties keep the dense offset (the
    cursor's own), then the lowest.  Introduces gaps: the physical address
    is the lowest address at or past the previous unit's end congruent to
    the chosen offset.  Cost: O(|ref_seq| x distinct names) for the
    weights, then O(i-cache sets + placed blocks) per unit. *)

val at_offsets :
  base:int ->
  icache_bytes:int ->
  block_bytes:int ->
  (Image.unit_spec * int) list ->
  placement
(** Genome decoder for layout search: units in the given order, each
    tagged with a desired i-cache set offset in blocks, or [-1] for
    "dense, block-aligned right after the previous unit".  A tag
    [off >= 0] encodes set [off mod sets] plus [off / sets] extra whole
    cache periods of deliberate gap: the unit goes at the lowest address
    at or past the running cursor congruent to the set (the
    {!micro_position} idiom), displaced by the extra periods — so even
    placements whose jumps exceed one period (bipartite's library
    partition) round-trip exactly.  Total, so any (order, offsets)
    genome decodes to a valid non-overlapping placement. *)

val gaps : placement -> int
(** Total bytes of gap between consecutively placed units. *)
