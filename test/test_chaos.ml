(* Tests for the host-lifecycle chaos engine: schedule generation and
   normalization, recovery of the at-most-once workload under crashes and
   partitions, the invariant watchdog, determinism of the chaos matrix at
   any jobs count, and the shrinker's reduction of a failing schedule to
   a minimal, JSON-round-trippable repro. *)

module P = Protolat
module C = P.Chaos
module I = P.Invariant
module J = Protolat_obs.Json

(* ----- schedule generation -------------------------------------------------- *)

let test_gen_deterministic () =
  let gen () = C.gen ~seed:11 ~intensity:6 ~horizon_us:150_000.0 in
  Alcotest.(check bool) "same seed, same schedule" true (gen () = gen ());
  Alcotest.(check bool) "different seed, different schedule" true
    (gen () <> C.gen ~seed:12 ~intensity:6 ~horizon_us:150_000.0);
  let s = gen () in
  Alcotest.(check bool) "non-empty at intensity 6" true (List.length s > 0);
  Alcotest.(check bool) "confined to the horizon" true
    (C.last_event_us s < 150_000.0);
  List.iter
    (fun it ->
      Alcotest.(check bool) "event times non-negative" true (it.C.at_us >= 0.0))
    s;
  Alcotest.(check int) "intensity 0 is a clean schedule" 0
    (List.length (C.gen ~seed:11 ~intensity:0 ~horizon_us:150_000.0))

let test_normalize () =
  let sched =
    [ { C.at_us = 50.0; ev = C.Partition_off };
      { C.at_us = 50.0; ev = C.Partition_on };
      { C.at_us = 10.0; ev = C.Cache_flush C.Client } ]
  in
  let n = C.normalize sched in
  Alcotest.(check int) "no events dropped" 3 (List.length n);
  let times = List.map (fun it -> it.C.at_us) n in
  Alcotest.(check bool) "strictly increasing times" true
    (List.for_all2 ( < ) times (List.tl times @ [ infinity ]));
  (match n with
  | [ a; b; c ] ->
    Alcotest.(check bool) "sorted by time" true (a.C.ev = C.Cache_flush C.Client);
    (* the sort is stable: the tie keeps construction order *)
    Alcotest.(check bool) "ties keep their order" true
      (b.C.ev = C.Partition_off && c.C.ev = C.Partition_on)
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check bool) "normalization is idempotent" true (C.normalize n = n)

(* ----- the at-most-once workload -------------------------------------------- *)

let test_clean_case () =
  let c = C.case ~flows:2 ~requests:8 ~seed:1 [] in
  let o = C.run_case c in
  Alcotest.(check bool) "clean case ok" true (C.ok o);
  Alcotest.(check int) "all exchanges complete" o.C.total o.C.completed;
  Alcotest.(check int) "no reconnects" 0 o.C.reconnects;
  Alcotest.(check int) "no duplicate executions" 0 o.C.duplicate_execs;
  Alcotest.(check bool) "latency sampled" true (o.C.lat.Protolat_util.Stats.n > 0)

let count_ev p sched = List.length (List.filter (fun it -> p it.C.ev) sched)

let test_recovery_under_faults () =
  let sched = C.gen ~seed:42 ~intensity:4 ~horizon_us:200_000.0 in
  let c = C.case ~seed:42 sched in
  let o = C.run_case c in
  Alcotest.(check bool)
    (Printf.sprintf "no violations (%s)"
       (String.concat ", " (C.failure_names o)))
    true (C.ok o);
  Alcotest.(check int) "every exchange eventually completes" o.C.total
    o.C.completed;
  Alcotest.(check int) "every scheduled crash was injected"
    (count_ev (function C.Crash _ -> true | _ -> false) sched)
    o.C.o_crashes;
  Alcotest.(check int) "every scheduled restart ran"
    (count_ev (function C.Restart _ -> true | _ -> false) sched)
    o.C.o_restarts;
  Alcotest.(check bool) "faults actually perturbed the run" true
    (o.C.o_crashes + o.C.o_partitions + o.C.o_flushes > 0);
  (* pure function of the case: a re-run is structurally identical *)
  Alcotest.(check bool) "run_case is deterministic" true (C.run_case c = o)

(* ----- matrix determinism ---------------------------------------------------- *)

let test_matrix_jobs_deterministic () =
  let matrix jobs =
    C.run_matrix ~flows:2 ~requests:8 ~intensities:[ 0; 2 ] ~seeds:2 ~jobs
      ~seed:42 ()
  in
  let a = matrix 1 and b = matrix 3 in
  Alcotest.(check string) "digest independent of jobs" (C.digest a)
    (C.digest b);
  Alcotest.(check string) "JSON byte-identical"
    (J.to_string (C.matrix_to_json a))
    (J.to_string (C.matrix_to_json b));
  Alcotest.(check bool) "matrix passes" true (C.passed a);
  Alcotest.(check int) "cells ordered intensity-major" 4 (List.length a)

(* ----- the invariant watchdog ------------------------------------------------ *)

let test_invariant_dedup () =
  let iv = I.create () in
  Alcotest.(check bool) "fresh watchdog ok" true (I.ok iv);
  I.report iv ~at_us:5.0 ~name:"x" ~detail:"first";
  I.report iv ~at_us:9.0 ~name:"x" ~detail:"second";
  I.report iv ~at_us:7.0 ~name:"y" ~detail:"other";
  Alcotest.(check bool) "violations recorded" false (I.ok iv);
  Alcotest.(check (list string)) "one entry per name, first-observed order"
    [ "x"; "y" ] (I.names iv);
  (match I.violations iv with
  | { I.name = "x"; at_us; detail } :: _ ->
    Alcotest.(check (float 0.0)) "first observation wins" 5.0 at_us;
    Alcotest.(check string) "first detail wins" "first" detail
  | _ -> Alcotest.fail "primary violation missing");
  Alcotest.(check (option string)) "primary" (Some "x") (I.primary iv)

let test_invariant_check_laziness () =
  let iv = I.create () in
  let forced = ref false in
  I.check iv ~at_us:1.0 ~name:"ok"
    ~detail:(fun () -> forced := true; "never") true;
  Alcotest.(check bool) "passing check records nothing" true (I.ok iv);
  Alcotest.(check bool) "detail not forced on success" false !forced;
  I.check iv ~at_us:2.0 ~name:"bad" ~detail:(fun () -> "boom") false;
  Alcotest.(check (option string)) "failing check records" (Some "bad")
    (I.primary iv)

let test_engine_run_sound () =
  let r =
    P.Engine.run
      (P.Engine.Spec.make ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.All) ())
  in
  Alcotest.(check (list string)) "engine run satisfies conservation laws" []
    r.P.Engine.invariants

(* ----- the shrinker and repro files ------------------------------------------ *)

let failing_dedup_case () =
  (* the same scan the CLI's --shrink performs: the first generated
     schedule whose run violates at-most-once with the dedup cache off *)
  let rec scan seed =
    if seed > 32 then Alcotest.fail "no failing schedule in seeds 2..32"
    else begin
      let sched = C.gen ~seed ~intensity:4 ~horizon_us:200_000.0 in
      let c = C.case ~bug:C.Dedup_off ~seed sched in
      if C.ok (C.run_case c) then scan (seed + 1) else c
    end
  in
  scan 2

let test_dedup_bug_caught_and_shrunk () =
  let c = failing_dedup_case () in
  let o = C.run_case c in
  Alcotest.(check bool) "watchdog names at_most_once" true
    (List.mem "at_most_once" (C.failure_names o));
  Alcotest.(check bool) "duplicate executions observed" true
    (o.C.duplicate_execs > 0);
  match C.shrink c with
  | None -> Alcotest.fail "failing case did not shrink"
  | Some r ->
    Alcotest.(check string) "shrinker preserved the primary violation"
      "at_most_once" r.C.target;
    Alcotest.(check bool)
      (Printf.sprintf "minimal repro is tiny (%d events)"
         (List.length r.C.minimal))
      true
      (List.length r.C.minimal <= 5);
    Alcotest.(check bool) "shrinking spent bounded runs" true (r.C.runs > 0);
    let mc = { c with C.sched = r.C.minimal } in
    let mo = C.run_case mc in
    Alcotest.(check bool) "minimal schedule still fails" true
      (List.mem "at_most_once" (C.failure_names mo));
    (* JSON round-trip: the export replays bit-identically *)
    let expect = C.failure_names mo in
    (match C.case_of_json (J.to_string (C.case_to_json ~expect mc)) with
    | Error e -> Alcotest.fail ("repro JSON does not parse back: " ^ e)
    | Ok (mc', expect') ->
      Alcotest.(check bool) "case round-trips" true (mc' = mc);
      Alcotest.(check (list string)) "expect round-trips" expect expect';
      let _, matched = C.replay mc' ~expect:expect' in
      Alcotest.(check bool) "replay reproduces the violation" true matched);
    (* the same schedule with the bug fixed runs clean — the regression
       pair the CI replay legs pin *)
    let fixed = { mc with C.bug = C.No_bug } in
    let _, fixed_ok = C.replay fixed ~expect:[] in
    Alcotest.(check bool) "fixed case replays clean" true fixed_ok

let test_repro_json_rejects_garbage () =
  (match C.case_of_json "{ not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted");
  match C.case_of_json "{\"kind\": \"mflow\", \"expect\": []}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign kind accepted"

(* hostile numbers in an otherwise valid repro are an Error, never an
   exception out of run_case or a silently truncated replay *)
let test_repro_json_rejects_out_of_range () =
  let valid = C.case ~seed:2 [] in
  let with_field name v =
    match C.case_to_json valid with
    | J.Obj fields ->
      J.to_string
        (J.Obj (List.map (fun (k, x) -> (k, if k = name then v else x)) fields))
    | _ -> Alcotest.fail "repro is not an object"
  in
  (match C.case_of_json (J.to_string (C.case_to_json valid)) with
  | Ok (c, []) ->
    Alcotest.(check bool) "valid case round-trips" true (c = valid)
  | _ -> Alcotest.fail "valid repro rejected");
  List.iter
    (fun (name, v) ->
      match C.case_of_json (with_field name (J.Num v)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s = %g" name v))
    [ ("flows", 0.0); ("flows", 2.7); ("flows", 1e30); ("flows", 65.0);
      ("requests", 0.0); ("requests", 1001.0); ("seed", 0.5);
      ("seed", 1e30); ("horizon_us", 0.0); ("horizon_us", -5.0) ]

let suite =
  ( "chaos",
    [ Alcotest.test_case "gen deterministic" `Quick test_gen_deterministic;
      Alcotest.test_case "normalize" `Quick test_normalize;
      Alcotest.test_case "clean case" `Quick test_clean_case;
      Alcotest.test_case "recovery under faults" `Quick
        test_recovery_under_faults;
      Alcotest.test_case "matrix jobs determinism" `Quick
        test_matrix_jobs_deterministic;
      Alcotest.test_case "invariant dedup" `Quick test_invariant_dedup;
      Alcotest.test_case "invariant check laziness" `Quick
        test_invariant_check_laziness;
      Alcotest.test_case "engine run sound" `Quick test_engine_run_sound;
      Alcotest.test_case "dedup bug caught and shrunk" `Slow
        test_dedup_bug_caught_and_shrunk;
      Alcotest.test_case "repro json rejects garbage" `Quick
        test_repro_json_rejects_garbage;
      Alcotest.test_case "repro json rejects out-of-range fields" `Quick
        test_repro_json_rejects_out_of_range ] )
