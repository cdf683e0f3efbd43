(* The replay kernel: Perf.measure against the from-trace cold/steady
   measurements, its scratch-hierarchy form, and the per-segmentation
   replay counters. *)

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

let out_trace () =
  (with_fastpath false (fun () -> run_spec P.Engine.Tcpip P.Config.Out))
    .P.Engine.trace

(* ----- Perf.measure -------------------------------------------------------- *)

(* One segmentation, one memory system, both reports: the shared first
   replay must be exactly the cold measurement and the first warmup of the
   steady one — across both stacks and a thrashing 512 B d-cache.  The
   scratch form must agree on a reused, cleared hierarchy. *)
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
          let scratch = M.Memsys.create p in
          for i = 1 to 2 do
            let cold, steady =
              M.Perf.measure ~scratch (M.Blockcache.segment p trace)
            in
            check_report (Printf.sprintf "%s scratch #%d cold" name i) cold
              want_cold;
            check_report (Printf.sprintf "%s scratch #%d steady" name i) steady
              want_steady
          done)
        geometries)
    [ (P.Engine.Tcpip, P.Config.Out); (P.Engine.Rpc, P.Config.Clo) ];
  let trace = out_trace () in
  let bc = M.Blockcache.segment M.Params.default trace in
  let other =
    M.Memsys.create { M.Params.default with M.Params.dcache_bytes = 512 }
  in
  Alcotest.check_raises "scratch params must match"
    (Invalid_argument "Perf.measure: scratch memory system params mismatch")
    (fun () -> ignore (M.Perf.measure ~scratch:other bc));
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

let suite =
  ( "replay",
    [ Alcotest.test_case "measure = cold, steady" `Quick test_measure;
      Alcotest.test_case "reset_counters" `Quick test_reset_counters;
      Alcotest.test_case "measure resets counters" `Quick test_measure_resets;
      Alcotest.test_case "cold_bc" `Quick test_cold_bc;
      Alcotest.test_case "simcache equivalence" `Quick test_simcache_equivalence;
      Alcotest.test_case "d-memo equivalence" `Slow test_dmemo_equivalence ] )
