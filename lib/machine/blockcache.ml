(* Memoized basic-block replay.

   A trace spends almost all of its instructions inside straight-line runs
   (consecutive pcs 4 bytes apart) that repeat identically across warmup
   iterations and steady-state replays.  Once such a run's i-cache lines are
   all resident, re-simulating it instruction by instruction does nothing but
   rediscover n hits: the i-side contributes zero stall, never touches the
   sequential-stream state, and bumps only the hit counters.  This module
   segments a trace once into compact block-level tables — flat run-offset
   arrays plus a packed [Bigarray] data-reference stream
   ([(addr lsl 2) lor kind]) instead of per-instruction SoA rows — then
   replays it by

   - verifying each run's lines are still resident via {!Cache} generation
     tags (k integer compares in the common case, k probes after an
     invalidation), and when warm, charging the i-side with a single
     {!Cache.credit_hits} and replaying only the data references from the
     packed stream;
   - falling back to the exact per-instruction {!Memsys.access_acc} loop for
     runs that are not verifiably warm (first encounter, post-invalidate,
     layout conflict within the run, or the fast path disabled).

   Equivalence argument (why results are bit-identical to {!Memsys.run}):
   both replays keep the memory system in the same state at every run
   boundary, by induction.  For a warm run, the slow path's i-fetches would
   all hit — a hit returns a static 0.0 without touching stalls, stream
   state, or the b-cache, so skipping them changes nothing except the hit
   counters, which {!Cache.credit_hits} applies in one step (integer
   addition commutes).  Data references never read or modify i-cache state,
   so they see identical d-cache/write-buffer/b-cache state and are replayed
   in the same order with the same addresses; stall accumulation order is
   preserved because hits contribute no terms.  Runs whose lines cannot be
   proven resident take the exact path verbatim.

   The segmentation also carries its params and the two CPU-model scans
   ({!Cpu.issue_cycles}, {!Cpu.perfect_memory_cycles}): they read only the
   instruction-class column, which {!rebind} never changes, so every
   rebound segmentation shares them with the one it came from. *)

let enabled_flag =
  ref
    (match Sys.getenv_opt "PROTOLAT_FASTPATH" with
    | Some ("0" | "false" | "off" | "no") -> false
    | _ -> true)

let enabled () = !enabled_flag

let set_enabled b = enabled_flag := b

type ref_stream = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  trace : Trace.t;
  params : Params.t;
  issue_cycles : float;
  instr_cycles : float;
  block_shift : int;
  n_sets : int;  (* i-cache geometry the i-side tables assume *)
  n_runs : int;
  run_start : int array;  (* n_runs+1: run r = trace [start.(r), start.(r+1)) *)
  (* i-side tables, layout-dependent (rebuilt by {!rebind}): *)
  lines : int array;  (* distinct i-cache lines, per run, first-touch order *)
  sets : int array;  (* set index of each entry of [lines] *)
  line_off : int array;  (* n_runs+1: run r's lines = [off.(r), off.(r+1)) *)
  igens : int array;  (* generation snapshot per line; -1 = unverified *)
  iconf : Bytes.t;
      (* per run, '\001' when two of its lines map to the same i-set: the
         run can evict its own lines mid-flight, never warm-replayable *)
  (* data references, layout-INVARIANT (a layout change moves instruction
     addresses only, so rebinds share them): *)
  refs : ref_stream;  (* all data refs, trace order: (addr lsl 2) lor kind *)
  ref_off : int array;  (* n_runs+1 *)
  mutable bound : Memsys.t option;
      (* the memory system the gen snapshots refer to, compared physically:
         a fresh cache restarts generations at 0, which could coincide with
         stale snapshots and fake residency *)
  mutable fast_runs : int;
  mutable slow_runs : int;
}

let trace t = t.trace

let params t = t.params

let issue_cycles t = t.issue_cycles

let instr_cycles t = t.instr_cycles

let n_runs t = t.n_runs

let fast_runs t = t.fast_runs

let slow_runs t = t.slow_runs

let reset_counters t =
  t.fast_runs <- 0;
  t.slow_runs <- 0

(* ----- segmentation -------------------------------------------------------- *)

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

(* Rebuild the i-side tables (lines / sets / offsets / conflict flags)
   from a trace's pcs — shared by {!segment} and {!rebind}.  A run lists
   its distinct lines in first-touch order: an instruction on the previous
   instruction's line is skipped with one compare, and a new line is
   checked against the run's lines so far (a handful), which also finds
   two lines sharing a set.  A first pass counts line changes, a bound on
   the distinct lines, so each table is allocated once. *)
let bind_ilines ~trace ~block_shift ~n_sets ~run_start ~n_runs =
  let pcs = Trace.pcs trace in
  let bound = ref n_runs in
  for r = 0 to n_runs - 1 do
    for i = run_start.(r) + 1 to run_start.(r + 1) - 1 do
      if pcs.(i) lsr block_shift <> pcs.(i - 1) lsr block_shift then incr bound
    done
  done;
  let lines = Array.make !bound 0 and sets = Array.make !bound 0 in
  let line_off = Array.make (n_runs + 1) 0 in
  let iconf = Bytes.make n_runs '\000' in
  let n = ref 0 in
  for r = 0 to n_runs - 1 do
    let lo = !n and prev = ref (-1) in
    for i = run_start.(r) to run_start.(r + 1) - 1 do
      let line = pcs.(i) lsr block_shift in
      if line <> !prev then begin
        prev := line;
        let set = line land (n_sets - 1) in
        let j = ref lo in
        while !j < !n && lines.(!j) <> line do
          if sets.(!j) = set then Bytes.set iconf r '\001';
          incr j
        done;
        if !j = !n then begin
          lines.(!n) <- line;
          sets.(!n) <- set;
          incr n
        end
      end
    done;
    line_off.(r + 1) <- !n
  done;
  let lines, sets =
    if !n = !bound then (lines, sets)
    else (Array.sub lines 0 !n, Array.sub sets 0 !n)
  in
  (lines, sets, line_off, Array.make !n (-1), iconf)

let segment (p : Params.t) trace =
  let n = Trace.length trace in
  let block_shift = log2 p.Params.block_bytes in
  let n_sets = p.Params.icache_bytes / p.Params.block_bytes in
  (* pass 1: run boundaries and reference counts *)
  let pcs = Trace.pcs trace in
  let ends_run i = i + 1 >= n || pcs.(i + 1) <> pcs.(i) + 4 in
  let n_runs = ref 0 and n_refs = ref 0 in
  for i = 0 to n - 1 do
    if Trace.kind_at trace i <> Trace.kind_none then incr n_refs;
    if ends_run i then incr n_runs
  done;
  let n_runs = !n_runs in
  let run_start = Array.make (n_runs + 1) 0 in
  let r = ref 0 in
  for i = 0 to n - 1 do
    if ends_run i then begin
      incr r;
      run_start.(!r) <- i + 1
    end
  done;
  (* pass 2: the packed reference stream *)
  let refs =
    Bigarray.Array1.create Bigarray.int Bigarray.c_layout (max 1 !n_refs)
  in
  let ref_off = Array.make (n_runs + 1) 0 in
  let rc = ref 0 in
  for r = 0 to n_runs - 1 do
    for i = run_start.(r) to run_start.(r + 1) - 1 do
      let k = Trace.kind_at trace i in
      if k <> Trace.kind_none then begin
        Bigarray.Array1.unsafe_set refs !rc ((Trace.addr_at trace i lsl 2) lor k);
        incr rc
      end
    done;
    ref_off.(r + 1) <- !rc
  done;
  let lines, sets, line_off, igens, iconf =
    bind_ilines ~trace ~block_shift ~n_sets ~run_start ~n_runs
  in
  let issue_cycles = Cpu.issue_cycles p trace in
  { trace;
    params = p;
    issue_cycles;
    instr_cycles = issue_cycles +. Cpu.penalty_cycles p trace;
    block_shift;
    n_sets;
    n_runs;
    run_start;
    lines;
    sets;
    line_off;
    igens;
    iconf;
    refs;
    ref_off;
    bound = None;
    fast_runs = 0;
    slow_runs = 0 }

let rebind t trace' =
  if Trace.length trace' <> Trace.length t.trace then
    invalid_arg "Blockcache.rebind: trace length mismatch";
  (* A layout change rewrites instruction addresses only: run boundaries,
     the packed reference stream (data addresses) and the CPU-model scans
     (instruction classes) are invariant and shared; the i-side line tables
     are recomputed, and the generation snapshots start unverified. *)
  let lines, sets, line_off, igens, iconf =
    bind_ilines ~trace:trace' ~block_shift:t.block_shift ~n_sets:t.n_sets
      ~run_start:t.run_start ~n_runs:t.n_runs
  in
  { t with
    trace = trace';
    lines;
    sets;
    line_off;
    igens;
    iconf;
    bound = None;
    fast_runs = 0;
    slow_runs = 0 }

(* ----- replay -------------------------------------------------------------- *)

(* The slow path must be the exact per-instruction loop of [Memsys.run]. *)
let replay_run_slow m trace ~start ~fin =
  for i = start to fin do
    Memsys.access_acc m ~pc:(Trace.pc_at trace i) ~kind:(Trace.kind_at trace i)
      ~addr:(Trace.addr_at trace i)
  done

(* Cold replay, one real fetch per line chunk: within a maximal span of
   consecutive instructions on the same i-cache line, only the first fetch
   can miss — it makes the line resident and nothing before the span's end
   fetches any other line, so the remaining fetches are guaranteed hits and
   reduce to a hit credit plus their data references.  Exact for any run,
   conflicting or not: cross-chunk evictions happen at the next chunk's
   first (real) fetch.  Bit-identical to [replay_run_slow] by the warm-run
   argument applied chunk-tail-wise. *)
let replay_run_cold m ic ~block_shift trace ~start ~fin =
  let i = ref start in
  while !i <= fin do
    let line = Trace.pc_at trace !i lsr block_shift in
    Memsys.access_acc m ~pc:(Trace.pc_at trace !i)
      ~kind:(Trace.kind_at trace !i) ~addr:(Trace.addr_at trace !i);
    incr i;
    let hits = ref 0 in
    while
      !i <= fin && Trace.pc_at trace !i lsr block_shift = line
    do
      incr hits;
      let k = Trace.kind_at trace !i in
      if k <> Trace.kind_none then
        Memsys.daccess_acc m ~kind:k ~addr:(Trace.addr_at trace !i);
      incr i
    done;
    (* after the possible miss at the chunk head, so [last_victim] ends as
       the per-instruction loop leaves it *)
    Cache.credit_hits ic !hits
  done

let replay t m =
  (match t.bound with
  | Some m' when m' == m -> ()
  | _ ->
    Array.fill t.igens 0 (Array.length t.igens) (-1);
    t.bound <- Some m);
  let ic = Memsys.icache m in
  let fast_on =
    !enabled_flag
    && Cache.n_sets ic = t.n_sets
    && log2 (Cache.block_bytes ic) = t.block_shift
  in
  let icgens = Cache.generations ic in
  let trace = t.trace in
  let fast = ref 0 and slow = ref 0 in
  for r = 0 to t.n_runs - 1 do
    let warm =
      fast_on
      && Bytes.unsafe_get t.iconf r = '\000'
      &&
      let hi = t.line_off.(r + 1) in
      let ok = ref true in
      let j = ref t.line_off.(r) in
      while !ok && !j < hi do
        let g = Array.unsafe_get icgens (Array.unsafe_get t.sets !j) in
        if Array.unsafe_get t.igens !j <> g then
          if Cache.resident_line ic (Array.unsafe_get t.lines !j) then
            Array.unsafe_set t.igens !j g
          else ok := false;
        incr j
      done;
      !ok
    in
    if warm then begin
      incr fast;
      Cache.credit_hits ic (t.run_start.(r + 1) - t.run_start.(r));
      (* the data references from the packed stream, trace order *)
      for j = t.ref_off.(r) to t.ref_off.(r + 1) - 1 do
        let v = Bigarray.Array1.unsafe_get t.refs j in
        Memsys.daccess_acc m ~kind:(v land 3) ~addr:(v lsr 2)
      done
    end
    else begin
      incr slow;
      let start = t.run_start.(r) and fin = t.run_start.(r + 1) - 1 in
      if fast_on then
        replay_run_cold m ic ~block_shift:t.block_shift trace ~start ~fin
      else replay_run_slow m trace ~start ~fin;
      (* After a slow pass of a conflict-free run every line was fetched and
         none evicted another, so all are resident right now: snapshot the
         generations so the next encounter verifies by comparison alone. *)
      if fast_on && Bytes.unsafe_get t.iconf r = '\000' then
        for j = t.line_off.(r) to t.line_off.(r + 1) - 1 do
          if Cache.resident_line ic t.lines.(j) then
            t.igens.(j) <- Array.unsafe_get icgens (Array.unsafe_get t.sets j)
          else t.igens.(j) <- -1
        done
    end
  done;
  t.fast_runs <- t.fast_runs + !fast;
  t.slow_runs <- t.slow_runs + !slow
