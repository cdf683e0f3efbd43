type placement = (Image.unit_spec * int) list

let align_up addr quantum = (addr + quantum - 1) / quantum * quantum

let dense ~base units =
  let cursor = ref base in
  List.map
    (fun u ->
      let addr = align_up !cursor 32 in
      cursor := addr + Image.size_bytes u;
      (u, addr))
    units

let link_order ~base units = dense ~base units

(* Names rank 0, 1, ... in order of first occurrence; absent ones max_int. *)
let first_occurrence_rank order =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun name ->
      if not (Hashtbl.mem tbl name) then
        Hashtbl.add tbl name (Hashtbl.length tbl))
    order;
  fun name ->
    match Hashtbl.find_opt tbl name with Some i -> i | None -> max_int

let invocation_order ~base ~order units =
  let rank = first_occurrence_rank order in
  let keyed = List.mapi (fun i u -> (rank (Image.unit_name u), i, u)) units in
  let sorted =
    List.sort (fun (r1, i1, _) (r2, i2, _) -> compare (r1, i1) (r2, i2)) keyed
  in
  dense ~base (List.map (fun (_, _, u) -> u) sorted)

let is_path u =
  match Image.unit_funcs u with
  | f :: _ -> f.Func.cat = Func.Path
  | [] -> true

let bipartite ~base ~icache_bytes ~order units =
  (* Partition the i-cache: path functions use sets [0, window) of every
     i-cache-sized period, library functions are packed into the reserved
     tail [window, icache) — so the once-per-invocation path sweep never
     evicts the repeatedly used library code.  Units too large for a window
     are placed across window boundaries (unavoidable). *)
  let rank = first_occurrence_rank order in
  let part p =
    List.filter (fun u -> is_path u = p) units
    |> List.mapi (fun i u -> (rank (Image.unit_name u), i, u))
    |> List.sort (fun (r1, i1, _) (r2, i2, _) -> compare (r1, i1) (r2, i2))
    |> List.map (fun (_, _, u) -> u)
  in
  let path = part true and lib = part false in
  let lib_bytes =
    List.fold_left (fun a u -> a + align_up (Image.size_bytes u) 32) 0 lib
  in
  (* reserve at most half the cache for the library partition *)
  let reserve = min lib_bytes (icache_bytes / 2) in
  let window = icache_bytes - align_up reserve 32 in
  let base = align_up base icache_bytes in
  (* path partition *)
  let cursor = ref base in
  let place_path u =
    let size = Image.size_bytes u in
    let off = !cursor mod icache_bytes in
    if size <= window && off + size > window then
      cursor := align_up !cursor icache_bytes;
    let addr = !cursor in
    cursor := align_up (addr + size) 32;
    (u, addr)
  in
  let placed_path = List.map place_path path in
  (* library partition: packed into the reserved windows after the path *)
  let lcursor = ref (align_up !cursor icache_bytes + window) in
  let place_lib u =
    let size = Image.size_bytes u in
    let off = !lcursor mod icache_bytes in
    if off + size > icache_bytes && size <= icache_bytes - window then
      lcursor := align_up !lcursor icache_bytes + window;
    let addr = !lcursor in
    lcursor := align_up (addr + size) 32;
    (u, addr)
  in
  placed_path @ List.map place_lib lib

let pessimal ~base ~icache_bytes ~bcache_bytes ?(bconflict_every = 2) units =
  (* Every unit starts at the same i-cache set (whole i-cache multiples), so
     all units collide maximally in the i-cache.  Every Nth unit is
     additionally relocated by whole multiples of the b-cache size onto the
     b-cache sets of its successor, so those pairs thrash the b-cache
     too. *)
  let cursor = ref (align_up base icache_bytes) in
  List.mapi
    (fun k u ->
      let addr = !cursor in
      let next = align_up (addr + Image.size_bytes u + 1) icache_bytes in
      cursor := next;
      if bconflict_every > 0 && k mod bconflict_every = 0 then
        (next mod bcache_bytes) + (((k / bconflict_every) + 1) * bcache_bytes)
      else addr)
    units
  |> List.map2 (fun u addr -> (u, addr)) units

(* --- micro-positioning --------------------------------------------------- *)

let micro_position ~base ~icache_bytes ~block_bytes ~ref_seq units =
  let nsets = icache_bytes / block_bytes in
  let rank = first_occurrence_rank ref_seq in
  let keyed = List.mapi (fun i u -> (rank (Image.unit_name u), i, u)) units in
  let ordered =
    List.sort (fun (r1, i1, _) (r2, i2, _) -> compare (r1, i1) (r2, i2)) keyed
  in
  (* Interleave weights over the ranks [0, k) of the names in [ref_seq]:
     [w.(a * k + b)] counts the occurrences of [b] after the first
     occurrence of [a] (each can evict [a] if the two share cache sets),
     and is 0 when [a = b].  One backward pass: [after] counts each rank
     past position [i] and is copied into row [a] at every occurrence of
     [a], so the first occurrence writes last. *)
  let seq = Array.of_list (List.map rank ref_seq) in
  let k = Array.fold_left max (-1) seq + 1 in
  let w = Array.make (k * k) 0 and after = Array.make k 0 in
  for i = Array.length seq - 1 downto 0 do
    let a = seq.(i) in
    Array.blit after 0 w (a * k) k;
    w.((a * k) + a) <- 0;
    after.(a) <- after.(a) + 1
  done;
  (* [occ.(s)]: summed pair weight of the placed units occupying set [s];
     [pre]: its prefix sums, so the cost of the sets a placement occupies,
     [start, start + min nblocks nsets) mod nsets, is two lookups *)
  let occ = Array.make nsets 0 and pre = Array.make (nsets + 1) 0 in
  let placed = ref [] in
  (* (rank, first set, sets occupied) of the placed units named in
     [ref_seq]; the others weigh 0 against every unit *)
  let cursor = ref base in
  List.map
    (fun (a, _, u) ->
      let size = Image.size_bytes u in
      let m = min ((size + block_bytes - 1) / block_bytes) nsets in
      Array.fill occ 0 nsets 0;
      if a < k then
        List.iter
          (fun (q, start, mq) ->
            let wq = w.((a * k) + q) + w.((q * k) + a) in
            if wq <> 0 then
              for j = start to start + mq - 1 do
                occ.(j mod nsets) <- occ.(j mod nsets) + wq
              done)
          !placed;
      for s = 0 to nsets - 1 do pre.(s + 1) <- pre.(s) + occ.(s) done;
      let cost o =
        if o + m <= nsets then pre.(o + m) - pre.(o)
        else pre.(nsets) - pre.(o) + pre.(o + m - nsets)
      in
      (* candidate offsets at block granularity; prefer the dense position
         (cursor's own offset) on ties to limit gaps *)
      let dense_off = !cursor / block_bytes mod nsets in
      let best = ref dense_off and best_cost = ref (cost dense_off) in
      for o = 0 to nsets - 1 do
        let c = cost o in
        if c < !best_cost then begin
          best := o;
          best_cost := c
        end
      done;
      let offset_bytes = !best * block_bytes in
      let addr =
        let candidate =
          (!cursor / icache_bytes * icache_bytes) + offset_bytes
        in
        if candidate >= !cursor then candidate else candidate + icache_bytes
      in
      if a < k then placed := (a, !best, m) :: !placed;
      cursor := addr + size;
      (u, addr))
    ordered

(* Genome decoder for layout search: units arrive in the order the genome
   dictates, each tagged with a desired i-cache set offset in blocks
   (or -1 for "dense, right after the previous unit").  Offsets use the
   micro-positioning congruence idiom: the unit goes at the first address
   at or past the cursor whose i-cache set matches, which costs at most
   one cache period of gap.  Every (order, offsets) pair decodes to a
   valid non-overlapping placement, so search moves can mutate freely. *)
let at_offsets ~base ~icache_bytes ~block_bytes units =
  let nsets = icache_bytes / block_bytes in
  let cursor = ref base in
  List.map
    (fun (u, off) ->
      let addr =
        if off < 0 then align_up !cursor block_bytes
        else begin
          (* off = set + nsets * extra whole periods of deliberate gap;
             the extra periods let strategies whose jumps exceed one
             period (bipartite's library partition) round-trip exactly *)
          let offset_bytes = off mod nsets * block_bytes in
          let candidate =
            (!cursor / icache_bytes * icache_bytes) + offset_bytes
          in
          let minimal =
            if candidate >= !cursor then candidate
            else candidate + icache_bytes
          in
          minimal + (off / nsets * icache_bytes)
        end
      in
      cursor := addr + Image.size_bytes u;
      (u, addr))
    units

let gaps placement =
  let extents =
    List.map (fun (u, a) -> (a, a + Image.size_bytes u)) placement
    |> List.sort compare
  in
  let rec go acc = function
    | (_, e1) :: ((s2, _) :: _ as rest) -> go (acc + max 0 (s2 - e1)) rest
    | _ -> acc
  in
  go 0 extents
