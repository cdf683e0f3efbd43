(* Warm-block fast path: bit-identity of the memoized basic-block
   simulation (engine emission + Blockcache replay) against the
   per-instruction reference, generation-tag invalidation semantics, and
   the incremental layout sweep. *)

module P = Protolat
module M = Protolat_machine
module L = Protolat_layout
module Obs = Protolat_obs
module Instr = M.Instr
module Trace = M.Trace

let with_fastpath b f =
  let was = M.Blockcache.enabled () in
  M.Blockcache.set_enabled b;
  Fun.protect ~finally:(fun () -> M.Blockcache.set_enabled was) f

let run_spec ?seed ?layout ?params stack v =
  P.Engine.run
    (P.Engine.Spec.make ?seed ?layout ?params ~stack ~config:(P.Config.make v)
       ())

let check_report name (a : M.Perf.report) (b : M.Perf.report) =
  Alcotest.(check bool) (name ^ ": reports bit-identical") true (a = b)

(* ----- engine: fast path on vs off ---------------------------------------- *)

(* Every observable of a run — per-roundtrip RTTs, cold/steady replay
   reports, the unified metrics dump, and per-function attribution of the
   collected trace — must be byte-identical with the fast path on and off,
   across stacks, versions (hence layouts), seeds, and a thrashing 512 B
   d-cache where nearly every warm run's loads miss. *)
let test_engine_onoff () =
  let d512 = { M.Params.default with M.Params.dcache_bytes = 512 } in
  List.iter
    (fun (stack, v, seed, params) ->
      let name =
        Printf.sprintf "%s/%s seed=%d d-cache=%dB" (P.Engine.stack_name stack)
          (P.Config.version_name v) seed params.M.Params.dcache_bytes
      in
      let on = with_fastpath true (fun () -> run_spec ~seed ~params stack v) in
      let off =
        with_fastpath false (fun () -> run_spec ~seed ~params stack v)
      in
      Alcotest.(check bool) (name ^ ": rtts identical") true
        (on.P.Engine.rtts = off.P.Engine.rtts);
      check_report (name ^ " steady") on.P.Engine.steady off.P.Engine.steady;
      check_report (name ^ " cold") on.P.Engine.cold off.P.Engine.cold;
      Alcotest.(check string) (name ^ ": metrics json identical")
        (Obs.Json.to_string (Obs.Metrics.to_json off.P.Engine.metrics))
        (Obs.Json.to_string (Obs.Metrics.to_json on.P.Engine.metrics));
      let attrib (r : P.Engine.run_result) =
        Obs.Attrib.profile params r.P.Engine.client_image r.P.Engine.trace
      in
      Alcotest.(check bool) (name ^ ": attribution identical") true
        (attrib on = attrib off))
    [ (P.Engine.Tcpip, P.Config.Std, 42, M.Params.default);
      (P.Engine.Tcpip, P.Config.All, 7, M.Params.default);
      (P.Engine.Tcpip, P.Config.Bad, 42, M.Params.default);
      (P.Engine.Rpc, P.Config.Clo, 3, M.Params.default);
      (P.Engine.Tcpip, P.Config.Std, 42, d512);
      (P.Engine.Tcpip, P.Config.Out, 7, d512);
      (P.Engine.Rpc, P.Config.Clo, 3, d512) ]

(* ----- Blockcache: replay equivalence on real traces ----------------------- *)

let steady_trace () =
  let r = with_fastpath false (fun () -> run_spec P.Engine.Tcpip P.Config.Out) in
  r.P.Engine.trace

(* Replaying through the block cache must leave the memory system with the
   same statistics as the per-instruction loop after every iteration —
   including under a thrashing geometry (2 KB i-cache) where most runs stay
   on the slow path. *)
let test_blockcache_replay_equiv () =
  let trace = steady_trace () in
  List.iter
    (fun (label, params) ->
      let bc = M.Blockcache.segment params trace in
      let fast = M.Memsys.create params in
      let slow = M.Memsys.create params in
      for i = 1 to 4 do
        with_fastpath true (fun () -> M.Blockcache.replay bc fast);
        ignore (M.Memsys.run slow trace);
        Alcotest.(check bool)
          (Printf.sprintf "%s: stats equal after replay %d" label i)
          true
          (M.Memsys.stats fast = M.Memsys.stats slow)
      done;
      Alcotest.(check bool) (label ^ ": some runs went fast") true
        (M.Blockcache.fast_runs bc > 0))
    [ ("default geometry", M.Params.default);
      ( "2KB i-cache (thrashing)",
        { M.Params.default with M.Params.icache_bytes = 2048 } ) ]

(* Disabled, the block cache must take the reference loop for every run. *)
let test_blockcache_disabled_all_slow () =
  let trace = steady_trace () in
  let bc = M.Blockcache.segment M.Params.default trace in
  let m = M.Memsys.create M.Params.default in
  with_fastpath false (fun () ->
      M.Blockcache.replay bc m;
      M.Blockcache.replay bc m);
  Alcotest.(check int) "no fast runs when disabled" 0
    (M.Blockcache.fast_runs bc);
  Alcotest.(check int) "all runs slow" (2 * M.Blockcache.n_runs bc)
    (M.Blockcache.slow_runs bc)

(* ----- generation tags ----------------------------------------------------- *)

let test_cache_generation_tags () =
  let c = M.Cache.create ~size_bytes:1024 ~block_bytes:32 in
  let line = M.Cache.line_of c 0x4000 in
  let set = M.Cache.set_of_line c line in
  let g0 = M.Cache.generation c set in
  ignore (M.Cache.access c 0x4000);
  let g1 = M.Cache.generation c set in
  Alcotest.(check bool) "fill bumps the set's generation" true (g1 > g0);
  Alcotest.(check bool) "line resident after fill" true
    (M.Cache.resident_line c line);
  ignore (M.Cache.access c 0x4004);
  Alcotest.(check int) "hit leaves the generation unchanged" g1
    (M.Cache.generation c set);
  (* conflicting line in the same set: eviction bumps again *)
  ignore (M.Cache.access c (0x4000 + 1024));
  Alcotest.(check bool) "eviction bumps the generation" true
    (M.Cache.generation c set > g1);
  Alcotest.(check bool) "old line no longer resident" false
    (M.Cache.resident_line c line);
  ignore (M.Cache.access c 0x4000);
  let g2 = M.Cache.generation c set in
  M.Cache.invalidate_all c;
  Alcotest.(check bool) "invalidate_all bumps occupied sets" true
    (M.Cache.generation c set > g2);
  Alcotest.(check bool) "not resident after invalidate" false
    (M.Cache.resident_line c line)

let test_cache_credit_hits () =
  let c = M.Cache.create ~size_bytes:1024 ~block_bytes:32 in
  ignore (M.Cache.access c 0x100);
  (* reference: three hitting accesses *)
  let c' = M.Cache.create ~size_bytes:1024 ~block_bytes:32 in
  ignore (M.Cache.access c' 0x100);
  ignore (M.Cache.access c' 0x104);
  ignore (M.Cache.access c' 0x108);
  ignore (M.Cache.access c' 0x10c);
  M.Cache.credit_hits c 3;
  Alcotest.(check int) "accesses match" (M.Cache.accesses c')
    (M.Cache.accesses c);
  Alcotest.(check int) "hits match" (M.Cache.hits c') (M.Cache.hits c);
  Alcotest.(check int) "last_victim cleared" (M.Cache.last_victim c')
    (M.Cache.last_victim c)

(* ----- Cache.clear: sparse reset vs a fresh cache -------------------------- *)

(* [Cache.clear] resets only the sets logged as filled from empty since the
   previous clear, or every set once the log (an eighth of the sets,
   allocated by the first clear) overflows.  Whatever ran before, a cleared
   cache must be indistinguishable from a fresh [create]: every set's tag
   and generation, every counter and [last_victim], and the cold /
   replacement classification of whatever runs next. *)

type cache_op =
  | Touch of int  (* byte address *)
  | Invalidate

type clear_case = {
  size : int;  (* bytes; 32-byte blocks, 8 to 64 sets *)
  before : cache_op list;  (* then the first clear, which allocates the log *)
  between : cache_op list;  (* then a clear through the log, then another *)
  after : cache_op list;  (* run on the cleared cache and on a fresh one *)
}

let gen_clear_case =
  let open QCheck.Gen in
  let* size = map (fun k -> 256 lsl k) (int_bound 3) in
  (* four cache-sized periods of blocks: hits, cold and conflict misses *)
  let op =
    frequency
      [ (20, map (fun b -> Touch ((b * 32) + 4)) (int_bound ((size / 8) - 1)));
        (1, return Invalidate) ]
  in
  let ops = list_size (int_bound 80) op in
  let* before = ops and* between = ops and* after = ops in
  return { size; before; between; after }

let print_clear_case c =
  let ops l =
    String.concat " "
      (List.map
         (function Touch a -> Printf.sprintf "%x" a | Invalidate -> "inv")
         l)
  in
  Printf.sprintf "size=%dB\nbefore: %s\nbetween: %s\nafter: %s" c.size
    (ops c.before) (ops c.between) (ops c.after)

let outcome_name = function
  | M.Cache.Hit -> "hit"
  | M.Cache.Miss_cold -> "cold"
  | M.Cache.Miss_repl -> "repl"

let run_ops c ops =
  List.map
    (function
      | Touch a ->
        let o = M.Cache.access c a in
        Printf.sprintf "%s/%d" (outcome_name o) (M.Cache.last_victim c)
      | Invalidate ->
        M.Cache.invalidate_all c;
        "inv")
    ops

(* Everything observable: per-set tag (as residency of every line the
   cases touch) and generation, the counters and [last_victim]. *)
let cache_state c ~size =
  let lines = 4 * size / 32 in
  ( List.init lines (fun l -> M.Cache.resident_line c l),
    List.init (M.Cache.n_sets c) (M.Cache.generation c),
    [ M.Cache.accesses c; M.Cache.hits c; M.Cache.misses c;
      M.Cache.cold_misses c; M.Cache.repl_misses c; M.Cache.last_victim c ] )

let prop_cache_clear =
  QCheck.Test.make ~name:"cache clear equals a fresh cache" ~count:500
    (QCheck.make ~print:print_clear_case gen_clear_case)
    (fun c ->
      let make () = M.Cache.create ~size_bytes:c.size ~block_bytes:32 in
      let fresh = cache_state (make ()) ~size:c.size in
      let t = make () in
      let expect_fresh what =
        if cache_state t ~size:c.size <> fresh then
          QCheck.Test.fail_reportf "state differs from a fresh cache %s" what
      in
      ignore (run_ops t c.before);
      M.Cache.clear t;
      expect_fresh "after the first clear";
      ignore (run_ops t c.between);
      M.Cache.clear t;
      expect_fresh "after a clear through the log";
      M.Cache.clear t;
      expect_fresh "after clearing twice";
      let reference = make () in
      if run_ops t c.after <> run_ops reference c.after then
        QCheck.Test.fail_report "cleared cache classifies accesses differently";
      if cache_state t ~size:c.size <> cache_state reference ~size:c.size then
        QCheck.Test.fail_report "cleared cache ends in a different state";
      true)

let test_cache_clear_never_filled () =
  let make () = M.Cache.create ~size_bytes:1024 ~block_bytes:32 in
  let t = make () and reference = make () in
  M.Cache.clear t;
  M.Cache.clear t;
  let ops = List.init 100 (fun i -> Touch (i * 40)) in
  Alcotest.(check (list string)) "same outcomes as a fresh cache"
    (run_ops reference ops) (run_ops t ops);
  Alcotest.(check bool) "same state as a fresh cache" true
    (cache_state t ~size:1024 = cache_state reference ~size:1024)

(* ----- invalidation demotes memoized runs ---------------------------------- *)

(* A synthetic trace whose runs touch disjoint lines, so warm/slow counts
   are exact: first replay all slow, second all fast, and after an
   invalidation all slow again (stale generation snapshots must not fake
   residency). *)
let synthetic_trace () =
  let t = Trace.create () in
  List.iter
    (fun base ->
      for i = 0 to 15 do
        if i = 5 then
          Trace.add t ~pc:(base + (4 * i)) ~cls:Instr.Load
            ~access:(Trace.Read (0x80000 + base + i)) ()
        else Trace.add t ~pc:(base + (4 * i)) ~cls:Instr.Alu ()
      done)
    (* distinct sets of the default 8 KB direct-mapped i-cache, so the
       three runs never evict each other *)
    [ 0x1000; 0x1100; 0x1200 ];
  t

let test_invalidate_demotes () =
  let trace = synthetic_trace () in
  let check_demotion label invalidate =
    let bc = M.Blockcache.segment M.Params.default trace in
    let m = M.Memsys.create M.Params.default in
    let n = M.Blockcache.n_runs bc in
    with_fastpath true (fun () ->
        M.Blockcache.replay bc m;
        Alcotest.(check int) (label ^ ": first replay all slow") n
          (M.Blockcache.slow_runs bc);
        M.Blockcache.reset_counters bc;
        M.Blockcache.replay bc m;
        Alcotest.(check int) (label ^ ": warm replay all fast") n
          (M.Blockcache.fast_runs bc);
        invalidate m;
        M.Blockcache.reset_counters bc;
        M.Blockcache.replay bc m;
        Alcotest.(check int) (label ^ ": post-invalidate replay all slow") n
          (M.Blockcache.slow_runs bc);
        M.Blockcache.reset_counters bc;
        M.Blockcache.replay bc m;
        Alcotest.(check int) (label ^ ": re-warms afterwards") n
          (M.Blockcache.fast_runs bc))
  in
  check_demotion "invalidate_primary" M.Memsys.invalidate_primary;
  check_demotion "invalidate_all" M.Memsys.invalidate_all

(* A fresh memory system must never inherit generation snapshots taken
   against another one (generations restart at 0 and could coincide). *)
let test_fresh_memsys_rebinds () =
  let trace = synthetic_trace () in
  let bc = M.Blockcache.segment M.Params.default trace in
  let n = M.Blockcache.n_runs bc in
  with_fastpath true (fun () ->
      let m1 = M.Memsys.create M.Params.default in
      M.Blockcache.replay bc m1;
      M.Blockcache.replay bc m1;
      let m2 = M.Memsys.create M.Params.default in
      M.Blockcache.reset_counters bc;
      M.Blockcache.replay bc m2;
      Alcotest.(check int) "fresh memsys starts slow" n
        (M.Blockcache.slow_runs bc))

(* Geometry mismatch between segmentation and memory system: never fast. *)
let test_geometry_guard () =
  let trace = synthetic_trace () in
  let bc = M.Blockcache.segment M.Params.default trace in
  let small =
    M.Memsys.create { M.Params.default with M.Params.icache_bytes = 2048 }
  in
  with_fastpath true (fun () ->
      M.Blockcache.replay bc small;
      M.Blockcache.replay bc small);
  Alcotest.(check int) "geometry mismatch keeps every run slow" 0
    (M.Blockcache.fast_runs bc)

(* ----- differential oracle ------------------------------------------------- *)

(* Random traces x random geometries, Blockcache replay (fast path on)
   against the per-instruction reference, field by field after every
   replay.  A trace is a walk over a small pool of straight-line segments
   (so runs repeat within a trace as well as across replays) broken by
   jumps anywhere in 64 KB of code; data references come from a few
   repeated lines, lines 32 KB apart (conflicting in every cache up to
   32 KB), or anywhere.  I- and d-cache sizes range over powers of two from
   512 B to 32 KB, so thrashing geometries are common.  After three
   replays the segmentation is rebound to a random permutation of 64-byte
   code chunks and both sides carry on against the same, already warm,
   memory systems. *)

type oracle_case = {
  icache : int;
  dcache : int;
  insns : (int * Instr.cls * Trace.access option) list;
  chunk_seed : int;
}

let gen_oracle_case =
  let open QCheck.Gen in
  let pow2_size = map (fun k -> 512 lsl k) (int_bound 6) in
  let daddr =
    map2
      (fun line off -> 0x200000 + (line * 32) + off)
      (frequency
         [ (3, int_bound 15);
           (2, map (fun k -> k * 1024) (int_bound 7));
           (1, int_bound 4095) ])
      (int_bound 31)
  in
  let insn =
    frequency
      [ (6, return (Instr.Alu, None));
        (2, map (fun a -> (Instr.Load, Some (Trace.Read a))) daddr);
        (2, map (fun a -> (Instr.Store, Some (Trace.Write a))) daddr);
        (1, return (Instr.Br_taken, None)) ]
  in
  let segment =
    map2
      (fun start body ->
        List.mapi (fun i (cls, access) -> (start + (4 * i), cls, access)) body)
      (* starts leave room for 24 instructions below 64 KB *)
      (map (fun w -> 4 * w) (int_bound (16383 - 24)))
      (list_size (int_range 1 24) insn)
  in
  let* icache = pow2_size and* dcache = pow2_size in
  let* pool = list_size (int_range 1 8) segment in
  let pool = Array.of_list pool in
  let* walk = list_size (int_range 1 30) (int_bound (Array.length pool - 1)) in
  let+ chunk_seed = int in
  { icache;
    dcache;
    insns = List.concat_map (fun i -> pool.(i)) walk;
    chunk_seed }

let print_oracle_case c =
  Printf.sprintf "icache=%dB dcache=%dB length=%d chunk_seed=%d" c.icache
    c.dcache (List.length c.insns) c.chunk_seed

(* A bijection on [0, 64 KB) code addresses moving whole 64-byte chunks. *)
let chunk_permutation seed =
  let n = 1024 in
  let perm = Array.init n Fun.id in
  let rng = Random.State.make [| seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  fun pc -> (perm.(pc lsr 6) lsl 6) lor (pc land 63)

let stats_fields (s : M.Memsys.stats) =
  ( s.M.Memsys.icache,
    s.M.Memsys.dwb,
    s.M.Memsys.bcache,
    Int64.bits_of_float s.M.Memsys.stall_cycles )

let prop_replay_oracle =
  QCheck.Test.make ~name:"blockcache replay matches Memsys.run" ~count:150
    (QCheck.make ~print:print_oracle_case gen_oracle_case)
    (fun c ->
      let p =
        { M.Params.default with
          M.Params.icache_bytes = c.icache;
          dcache_bytes = c.dcache }
      in
      let trace = Trace.create () in
      List.iter
        (fun (pc, cls, access) -> Trace.add trace ~pc ~cls ?access ())
        c.insns;
      let m = M.Memsys.create p and reference = M.Memsys.create p in
      let agree label bc t =
        for i = 1 to 3 do
          M.Blockcache.replay bc m;
          ignore (M.Memsys.run reference t);
          if
            stats_fields (M.Memsys.stats m)
            <> stats_fields (M.Memsys.stats reference)
          then
            QCheck.Test.fail_reportf "%s replay %d: %a@ vs reference %a" label i
              M.Memsys.pp_stats (M.Memsys.stats m) M.Memsys.pp_stats
              (M.Memsys.stats reference)
        done
      in
      with_fastpath true (fun () ->
          let bc = M.Blockcache.segment p trace in
          agree "segment" bc trace;
          let trace' = Trace.map_pcs (chunk_permutation c.chunk_seed) trace in
          agree "rebind" (M.Blockcache.rebind bc trace') trace');
      true)

(* ----- incremental layout sweep -------------------------------------------- *)

(* pc_map retargets a trace between two placements of the same units, and
   rebind + measure must equal a from-scratch segmentation and cold/steady
   replays of the retargeted trace. *)
let test_rebind_pc_map () =
  let config = P.Config.make P.Config.Clo in
  let a = P.Engine.layout_for config P.Engine.Tcpip ~layout:P.Config.Bipartite () in
  let b = P.Engine.layout_for config P.Engine.Tcpip ~layout:P.Config.Linear () in
  let r =
    run_spec ~layout:P.Config.Bipartite P.Engine.Tcpip P.Config.Clo
  in
  let trace = r.P.Engine.trace in
  let trace' = Trace.map_pcs (L.Image.pc_map a b) trace in
  Alcotest.(check int) "same length" (Trace.length trace)
    (Trace.length trace');
  let p = M.Params.default in
  let bc = M.Blockcache.segment p trace in
  let cold, steady = M.Perf.measure (M.Blockcache.rebind bc trace') in
  check_report "rebind vs scratch: cold" cold (M.Perf.cold p trace');
  check_report "rebind vs scratch: steady" steady (M.Perf.steady p trace')

(* The incremental sweep (one protocol simulation, per-layout pc rewrite +
   block-cache replay) must report exactly what full per-layout
   simulations report. *)
let test_layout_sweep_equivalence () =
  let layouts = [ P.Config.Bipartite; P.Config.Linear; P.Config.Pessimal ] in
  let inc = P.Experiments.layout_sweep ~layouts ~incremental:true () in
  let full = P.Experiments.layout_sweep ~layouts ~incremental:false () in
  List.iter2
    (fun (la, ca, sa) (lb, cb, sb) ->
      let name = P.Config.layout_name la in
      Alcotest.(check string) "same layout order" name
        (P.Config.layout_name lb);
      check_report (name ^ " cold") ca cb;
      check_report (name ^ " steady") sa sb)
    inc full

let suite =
  ( "fastpath",
    [ Alcotest.test_case "cache generation tags" `Quick
        test_cache_generation_tags;
      Alcotest.test_case "cache credit_hits" `Quick test_cache_credit_hits;
      QCheck_alcotest.to_alcotest prop_cache_clear;
      Alcotest.test_case "cache clear never filled" `Quick
        test_cache_clear_never_filled;
      Alcotest.test_case "blockcache replay equivalence" `Quick
        test_blockcache_replay_equiv;
      Alcotest.test_case "blockcache disabled all slow" `Quick
        test_blockcache_disabled_all_slow;
      Alcotest.test_case "invalidate demotes memoized runs" `Quick
        test_invalidate_demotes;
      Alcotest.test_case "fresh memsys rebinds" `Quick
        test_fresh_memsys_rebinds;
      Alcotest.test_case "geometry guard" `Quick test_geometry_guard;
      QCheck_alcotest.to_alcotest prop_replay_oracle;
      Alcotest.test_case "engine fast path on/off" `Slow test_engine_onoff;
      Alcotest.test_case "rebind + pc_map" `Quick test_rebind_pc_map;
      Alcotest.test_case "layout sweep equivalence" `Slow
        test_layout_sweep_equivalence ] )
