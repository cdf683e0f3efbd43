(* The replay kernel: Perf.measure against the from-trace cold/steady
   measurements, the per-segmentation replay counters, and the pool of
   cleared caches every measurement leases its hierarchy from. *)

module P = Protolat
module M = Protolat_machine

let with_fastpath b f =
  let was = M.Blockcache.enabled () in
  M.Blockcache.set_enabled b;
  Fun.protect ~finally:(fun () -> M.Blockcache.set_enabled was) f

let run_spec ?seed stack v =
  P.Engine.run (P.Engine.Spec.make ?seed ~stack ~config:(P.Config.make v) ())

let check_report name (a : M.Perf.report) (b : M.Perf.report) =
  Alcotest.(check bool) (name ^ ": reports bit-identical") true (a = b)

(* caches this domain's leases took from the pool, all geometries *)
let reused () =
  List.fold_left
    (fun n (c : M.Memsys.pool_count) -> n + c.M.Memsys.reused)
    0 (M.Memsys.pool_counts ())

let out_trace () =
  (with_fastpath false (fun () -> run_spec P.Engine.Tcpip P.Config.Out))
    .P.Engine.trace

(* ----- Perf.measure -------------------------------------------------------- *)

(* One segmentation, one memory system, both reports: the shared first
   replay must be exactly the cold measurement and the first warmup of the
   steady one — across both stacks and a thrashing 512 B d-cache.  Repeat
   measurements run on caches the earlier ones returned to the pool and
   must agree too. *)
let test_measure () =
  let geometries =
    [ ("default", M.Params.default);
      ("512B d-cache", { M.Params.default with M.Params.dcache_bytes = 512 }) ]
  in
  List.iter
    (fun (stack, v) ->
      let trace = (run_spec stack v).P.Engine.trace in
      List.iter
        (fun (glabel, p) ->
          let name =
            Printf.sprintf "%s/%s %s" (P.Engine.stack_name stack)
              (P.Config.version_name v) glabel
          in
          let want_cold = M.Perf.cold p trace in
          let want_steady = M.Perf.steady p trace in
          let cold, steady = M.Perf.measure (M.Blockcache.segment p trace) in
          check_report (name ^ " cold") cold want_cold;
          check_report (name ^ " steady") steady want_steady;
          for i = 1 to 2 do
            let reused0 = reused () in
            let cold, steady =
              M.Perf.measure (M.Blockcache.segment p trace)
            in
            Alcotest.(check int)
              (Printf.sprintf "%s pooled #%d: all three caches reused" name i)
              (reused0 + 3) (reused ());
            check_report (Printf.sprintf "%s pooled #%d cold" name i) cold
              want_cold;
            check_report (Printf.sprintf "%s pooled #%d steady" name i) steady
              want_steady
          done)
        geometries)
    [ (P.Engine.Tcpip, P.Config.Out); (P.Engine.Rpc, P.Config.Clo) ];
  let trace = out_trace () in
  let bc = M.Blockcache.segment M.Params.default trace in
  (* a lease of another geometry, held open around a measurement, neither
     serves nor disturbs it *)
  let other = { M.Params.default with M.Params.dcache_bytes = 512 } in
  M.Memsys.lease other (fun m ->
      ignore (M.Memsys.run m trace);
      check_report "measured inside another geometry's lease"
        (fst (M.Perf.measure bc))
        (M.Perf.cold M.Params.default trace));
  let cold, steady = M.Perf.measure ~warmup:0 bc in
  check_report "warmup 0: steady is the first replay" steady cold

(* cold_bc: replaying a cold measurement from an existing segmentation and
   running it from scratch are the same measurement. *)
let test_cold_bc () =
  let trace = out_trace () in
  let p = M.Params.default in
  let reference = M.Perf.cold p trace in
  check_report "cold from segmentation vs cold"
    (fst (M.Perf.measure (M.Blockcache.segment p trace)))
    reference

(* Reports are recomputed on every call — there is no simulation result
   store — so a second and third pass over one trace, through either entry
   point, must equal the first bit for bit. *)
let test_simcache_equivalence () =
  let trace = out_trace () in
  let p = M.Params.default in
  let ref_cold = M.Perf.cold p trace in
  let ref_steady = M.Perf.steady p trace in
  check_report "second pass cold" (M.Perf.cold p trace) ref_cold;
  check_report "second pass steady" (M.Perf.steady p trace) ref_steady;
  let c3, s3 = M.Perf.measure (M.Blockcache.segment p trace) in
  check_report "measure cold" c3 ref_cold;
  check_report "measure steady" s3 ref_steady

(* The data side is replayed access by access (there is no d-side memo), so
   with the warm-block path on or off, repeat replays of one segmentation
   must leave identical memory-system statistics — across stacks, seeds,
   and a thrashing d-cache geometry. *)
let test_dmemo_equivalence () =
  let geometries =
    [ ("default", M.Params.default);
      ("512B d-cache", { M.Params.default with M.Params.dcache_bytes = 512 }) ]
  in
  List.iter
    (fun (stack, v, seed) ->
      let trace = (run_spec ~seed stack v).P.Engine.trace in
      List.iter
        (fun (glabel, params) ->
          let name =
            Printf.sprintf "%s/%s seed=%d %s" (P.Engine.stack_name stack)
              (P.Config.version_name v) seed glabel
          in
          let bon = M.Blockcache.segment params trace in
          let boff = M.Blockcache.segment params trace in
          let mon = M.Memsys.create params in
          let moff = M.Memsys.create params in
          for i = 1 to 4 do
            with_fastpath true (fun () -> M.Blockcache.replay bon mon);
            with_fastpath false (fun () -> M.Blockcache.replay boff moff);
            Alcotest.(check bool)
              (Printf.sprintf "%s: stats equal after replay %d" name i)
              true
              (M.Memsys.stats mon = M.Memsys.stats moff)
          done;
          Alcotest.(check int) (name ^ ": fast path off never memoizes") 0
            (M.Blockcache.fast_runs boff);
          if glabel = "default" then
            Alcotest.(check bool) (name ^ ": fast path engaged") true
              (M.Blockcache.fast_runs bon > 0))
        geometries)
    [ (P.Engine.Tcpip, P.Config.Std, 42);
      (P.Engine.Tcpip, P.Config.Out, 7);
      (P.Engine.Rpc, P.Config.Clo, 3) ]

(* ----- counter semantics ---------------------------------------------------- *)

let test_reset_counters () =
  let trace = out_trace () in
  with_fastpath true (fun () ->
      let bc = M.Blockcache.segment M.Params.default trace in
      let m = M.Memsys.create M.Params.default in
      M.Blockcache.replay bc m;
      M.Blockcache.replay bc m;
      M.Blockcache.reset_counters bc;
      Alcotest.(check int) "reset clears fast" 0 (M.Blockcache.fast_runs bc);
      Alcotest.(check int) "reset clears slow" 0 (M.Blockcache.slow_runs bc);
      M.Blockcache.replay bc m;
      Alcotest.(check int) "counters describe one replay"
        (M.Blockcache.n_runs bc)
        (M.Blockcache.fast_runs bc + M.Blockcache.slow_runs bc))

(* measure resets the segmentation's counters after warmup, so they
   describe the measured replay alone even when the same segmentation was
   replayed before. *)
let test_measure_resets () =
  let trace = out_trace () in
  with_fastpath true (fun () ->
      let bc = M.Blockcache.segment M.Params.default trace in
      ignore (M.Perf.measure bc);
      let first = M.Blockcache.fast_runs bc + M.Blockcache.slow_runs bc in
      ignore (M.Perf.measure bc);
      let second = M.Blockcache.fast_runs bc + M.Blockcache.slow_runs bc in
      Alcotest.(check int) "one measured replay's worth of runs"
        (M.Blockcache.n_runs bc) first;
      Alcotest.(check int) "no carry-over across measurements" first second)

(* ----- the lease pool ---------------------------------------------------- *)

(* One instruction per line address, each its own run (the pcs are not
   sequential): all of them map to i-cache set 0 of the default 8 KB
   geometry. *)
let set0_trace lines =
  let t = M.Trace.create () in
  List.iter
    (fun line -> M.Trace.add t ~pc:(line * 32) ~cls:M.Instr.Alu ())
    lines;
  t

(* One segmentation replayed under two leases that share pooled caches.
   The release in between restarts the caches' generation counters, and
   the segmentation still holds a snapshot from the first lease: line
   0x100 resident in set 0 at generation 2.  The second lease fills set 0
   twice with other lines before the replay, reaching generation 2 again,
   so honouring that snapshot would credit a hit on a line that is not
   resident.  A new hierarchy record per lease makes the replay drop it;
   the result must equal the same operations on a fresh [Memsys.create]. *)
let test_lease_reuse () =
  let p = M.Params.default in
  let bc = M.Blockcache.segment p (set0_trace [ 0x100 ]) in
  let second = set0_trace [ 0x300; 0x400 ] in
  with_fastpath true (fun () ->
      let ic1 =
        M.Memsys.lease p (fun m ->
            ignore (M.Memsys.run m (set0_trace [ 0x200 ]));
            M.Blockcache.replay bc m;
            M.Memsys.icache m)
      in
      let ic2, got =
        M.Memsys.lease p (fun m ->
            ignore (M.Memsys.run m second);
            M.Blockcache.replay bc m;
            (M.Memsys.icache m, M.Memsys.stats m))
      in
      Alcotest.(check bool) "second lease reuses the first one's i-cache" true
        (ic1 == ic2);
      let fresh = M.Memsys.create p in
      ignore (M.Memsys.run fresh second);
      M.Blockcache.replay (M.Blockcache.segment p (set0_trace [ 0x100 ])) fresh;
      Alcotest.(check bool) "second lease equals a fresh hierarchy" true
        (got = M.Memsys.stats fresh));
  (* the same on a real trace, measured under a lease of its own geometry
     that ran another stack's trace first *)
  let trace = out_trace () in
  let rpc = (run_spec P.Engine.Rpc P.Config.Clo).P.Engine.trace in
  List.iter
    (fun p ->
      let bc = M.Blockcache.segment p trace in
      M.Memsys.lease p (fun m ->
          ignore (M.Memsys.run m rpc);
          M.Blockcache.replay bc m;
          M.Blockcache.replay bc m);
      let cold, steady = M.Perf.measure bc in
      check_report "measure after a reused lease: cold" cold
        (M.Perf.cold p trace);
      check_report "measure after a reused lease: steady" steady
        (M.Perf.steady p trace))
    [ M.Params.default; { M.Params.default with M.Params.icache_bytes = 1024 } ]

(* An engine run holds two host hierarchies and its replay at once, so a
   lease nested in another on the same domain must get caches of its own:
   the inner lease's simulation leaves the outer hierarchy untouched. *)
let test_lease_nested () =
  let p = M.Params.default in
  let trace = out_trace () in
  let fresh = M.Memsys.create p in
  ignore (M.Memsys.run fresh trace);
  let want = M.Memsys.stats fresh in
  M.Memsys.lease p (fun outer ->
      ignore (M.Memsys.run outer trace);
      M.Memsys.lease p (fun inner ->
          Alcotest.(check bool) "nested leases hold distinct i-caches" true
            (M.Memsys.icache outer != M.Memsys.icache inner);
          Alcotest.(check bool) "inner lease starts fresh" true
            (M.Memsys.stats inner = M.Memsys.stats (M.Memsys.create p));
          ignore (M.Memsys.run inner trace);
          Alcotest.(check bool) "inner lease equals a fresh hierarchy" true
            (M.Memsys.stats inner = want));
      Alcotest.(check bool) "outer lease untouched by the inner one" true
        (M.Memsys.stats outer = want))

(* A lease left by an exception still returns its caches, cleared. *)
let test_lease_exception () =
  let p = M.Params.default in
  let trace = out_trace () in
  let ic = ref (M.Memsys.icache (M.Memsys.create p)) in
  (try
     M.Memsys.lease p (fun m ->
         ic := M.Memsys.icache m;
         ignore (M.Memsys.run m trace);
         raise Exit)
   with Exit -> ());
  let fresh = M.Memsys.create p in
  ignore (M.Memsys.run fresh trace);
  M.Memsys.lease p (fun m ->
      Alcotest.(check bool) "the raising lease's i-cache went back" true
        (M.Memsys.icache m == !ic);
      ignore (M.Memsys.run m trace);
      Alcotest.(check bool) "next lease equals a fresh hierarchy" true
        (M.Memsys.stats m = M.Memsys.stats fresh))

(* The trace_replay benchmark's grid on one domain: 36 i/d geometries,
   cold and steady each, allocate one b-cache between them. *)
let test_pool_count () =
  let trace = out_trace () in
  let kbs = [ 1; 2; 4; 8; 16; 32 ] in
  let counts =
    Domain.join
      (Domain.spawn (fun () ->
           List.iter
             (fun ikb ->
               List.iter
                 (fun dkb ->
                   let p =
                     { M.Params.default with
                       M.Params.icache_bytes = ikb * 1024;
                       dcache_bytes = dkb * 1024 }
                   in
                   ignore (M.Perf.cold p trace);
                   ignore (M.Perf.steady p trace))
                 kbs)
             kbs;
           M.Memsys.pool_counts ()))
  in
  let bcache =
    List.find
      (fun (c : M.Memsys.pool_count) ->
        c.M.Memsys.size_bytes = M.Params.default.M.Params.bcache_bytes)
      counts
  in
  Alcotest.(check int) "one b-cache created" 1 bcache.M.Memsys.created;
  Alcotest.(check int) "every other lease reused it" 71 bcache.M.Memsys.reused;
  (* i and d share a geometry on the diagonal, where a lease needs two *)
  List.iter
    (fun (c : M.Memsys.pool_count) ->
      if c.M.Memsys.size_bytes <> M.Params.default.M.Params.bcache_bytes then
        Alcotest.(check int)
          (Printf.sprintf "%d B primaries created" c.M.Memsys.size_bytes)
          2 c.M.Memsys.created)
    counts;
  Alcotest.(check int) "seven geometries" 7 (List.length counts)

let suite =
  ( "replay",
    [ Alcotest.test_case "measure = cold, steady" `Quick test_measure;
      Alcotest.test_case "reset_counters" `Quick test_reset_counters;
      Alcotest.test_case "measure resets counters" `Quick test_measure_resets;
      Alcotest.test_case "cold_bc" `Quick test_cold_bc;
      Alcotest.test_case "simcache equivalence" `Quick test_simcache_equivalence;
      Alcotest.test_case "d-memo equivalence" `Slow test_dmemo_equivalence;
      Alcotest.test_case "lease reuse" `Quick test_lease_reuse;
      Alcotest.test_case "nested leases" `Quick test_lease_nested;
      Alcotest.test_case "lease after an exception" `Quick test_lease_exception;
      Alcotest.test_case "pool count on the replay grid" `Quick
        test_pool_count ] )
