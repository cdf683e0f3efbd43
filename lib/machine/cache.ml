type t = {
  block_bytes : int;
  block_shift : int; (* log2 block_bytes: addr lsr shift = block address *)
  sets : int;
  set_mask : int; (* sets - 1 *)
  tags : int array; (* block address currently cached in each set; -1 empty *)
  gens : int array;
      (* per-set generation counter, bumped on every tag change (fill or
         invalidate).  A memoized basic block records the generation of
         each of its sets when it verifies residency; as long as the
         generations still match, the lines are provably still resident
         and the block can be charged its cached cost without re-probing. *)
  mutable evicted : Bytes.t option array;
      (* paged grow-on-demand bitset over block addresses: blocks evicted
         at least once (feeds cold- vs replacement-miss accounting).  The
         modeled address space has code near 0x10000 and data near
         0x1000_0000, so a flat bitset would span megabytes; pages of
         [page_blocks] bits materialize only where evictions happen. *)
  mutable accesses : int;
  mutable hits : int;
  mutable cold : int;
  mutable repl : int;
  mutable last_victim : int;
      (* block evicted by the most recent access; -1 if it hit or filled an
         empty set.  Lets an attribution pass name the (victim, evictor)
         pair of each conflict miss without the cache knowing about
         functions. *)
  mutable filled : int array;
      (* sets filled from empty since the last [clear], the only ones that
         can differ from a fresh cache; [||] until the first [clear] *)
  mutable n_filled : int;  (* fills logged; past the length: overflowed *)
}

type outcome =
  | Hit
  | Miss_cold
  | Miss_repl

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* 4096 blocks (512 bytes) per bitset page *)
let page_shift = 12

let page_blocks = 1 lsl page_shift

let page_mask = page_blocks - 1

let create ~size_bytes ~block_bytes =
  if not (is_pow2 size_bytes && is_pow2 block_bytes) then
    invalid_arg "Cache.create: sizes must be powers of two";
  let sets = size_bytes / block_bytes in
  { block_bytes;
    block_shift = log2 block_bytes;
    sets;
    set_mask = sets - 1;
    tags = Array.make sets (-1);
    gens = Array.make sets 0;
    evicted = Array.make 16 None;
    accesses = 0;
    hits = 0;
    cold = 0;
    repl = 0;
    last_victim = -1;
    filled = [||];
    n_filled = 0 }

let block_bytes t = t.block_bytes

let line_of t addr = addr lsr t.block_shift

let set_of t block = block land t.set_mask

let evicted_mem t block =
  let page = block lsr page_shift in
  page < Array.length t.evicted
  &&
  match t.evicted.(page) with
  | None -> false
  | Some bits ->
    let off = block land page_mask in
    Char.code (Bytes.unsafe_get bits (off lsr 3)) land (1 lsl (off land 7))
    <> 0

let evicted_add t block =
  let page = block lsr page_shift in
  if page >= Array.length t.evicted then begin
    let cap = max (page + 1) (2 * Array.length t.evicted) in
    let pages = Array.make cap None in
    Array.blit t.evicted 0 pages 0 (Array.length t.evicted);
    t.evicted <- pages
  end;
  let bits =
    match t.evicted.(page) with
    | Some bits -> bits
    | None ->
      let bits = Bytes.make (page_blocks lsr 3) '\000' in
      t.evicted.(page) <- Some bits;
      bits
  in
  let off = block land page_mask in
  Bytes.unsafe_set bits (off lsr 3)
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bits (off lsr 3)) lor (1 lsl (off land 7))))

let access t addr =
  let block = line_of t addr in
  let set = set_of t block in
  t.accesses <- t.accesses + 1;
  if t.tags.(set) = block then begin
    t.hits <- t.hits + 1;
    t.last_victim <- -1;
    Hit
  end
  else begin
    let victim = t.tags.(set) in
    t.last_victim <- victim;
    if victim >= 0 then evicted_add t victim
    else begin
      let n = t.n_filled in
      if n < Array.length t.filled then Array.unsafe_set t.filled n set;
      t.n_filled <- n + 1
    end;
    t.tags.(set) <- block;
    t.gens.(set) <- t.gens.(set) + 1;
    if evicted_mem t block then begin
      t.repl <- t.repl + 1;
      Miss_repl
    end
    else begin
      t.cold <- t.cold + 1;
      Miss_cold
    end
  end

let probe t addr =
  let block = line_of t addr in
  t.tags.(set_of t block) = block

let invalidate_all t =
  for i = 0 to t.sets - 1 do
    if t.tags.(i) >= 0 then begin
      evicted_add t t.tags.(i);
      t.tags.(i) <- -1;
      t.gens.(i) <- t.gens.(i) + 1
    end
  done

let n_sets t = t.sets

let set_of_line t line = line land t.set_mask

let resident_line t line = t.tags.(line land t.set_mask) = line

let generation t set = t.gens.(set)

let generations t = t.gens

(* Batch credit for a verified-resident basic block: n hits have exactly the
   counter effect of n per-line [access] hits (accesses/hits up by n, no
   miss counters, no eviction history, last access hit so no victim). *)
let credit_hits t n =
  if n > 0 then begin
    t.accesses <- t.accesses + n;
    t.hits <- t.hits + n;
    t.last_victim <- -1
  end

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.cold <- 0;
  t.repl <- 0

(* Restore the exact state of a fresh [create]: empty sets, generation
   counters back at 0, no eviction history, zeroed counters.  Unlike
   [invalidate_all] this forgets the eviction bitset too, so a subsequent
   first-touch miss classifies as cold again.  A set leaves its initial
   state only by a fill from empty ([invalidate_all] touches filled sets
   alone), so resetting the logged sets suffices; an overflowed log
   resets them all.  Reusing a cleared cache is only sound when no
   generation snapshot taken against it is consulted after the clear —
   a reset generation can coincide with a stale snapshot and fake
   residency.  Memsys.lease wraps cleared caches in a new hierarchy
   record, and Blockcache.replay drops its snapshots on a new record. *)
let clear t =
  let n = t.n_filled in
  if n <= Array.length t.filled then
    for i = 0 to n - 1 do
      let set = t.filled.(i) in
      t.tags.(set) <- -1;
      t.gens.(set) <- 0
    done
  else begin
    Array.fill t.tags 0 t.sets (-1);
    Array.fill t.gens 0 t.sets 0
  end;
  if Array.length t.filled = 0 then
    t.filled <- Array.make (max 1 (t.sets / 8)) 0;
  t.n_filled <- 0;
  (if Array.length t.evicted = 16 then Array.fill t.evicted 0 16 None
   else t.evicted <- Array.make 16 None);
  t.accesses <- 0;
  t.hits <- 0;
  t.cold <- 0;
  t.repl <- 0;
  t.last_victim <- -1

let accesses t = t.accesses

let hits t = t.hits

let misses t = t.cold + t.repl

let cold_misses t = t.cold

let repl_misses t = t.repl

let last_victim t = t.last_victim
