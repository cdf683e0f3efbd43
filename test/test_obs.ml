(* Tests for the observability layer: the metrics registry, the JSON
   parser, the timeline tracer, latency attribution (per-function sums
   must equal the aggregate Perf report bit-for-bit; the conflict matrix
   must classify every i-cache miss), and the determinism of the profile
   and trace exports across job counts and repeated runs. *)

module P = Protolat
module M = Protolat_machine
module L = Protolat_layout
module Obs = Protolat_obs

(* ----- metrics registry --------------------------------------------------- *)

let test_metrics_counters () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "tcp.retransmits" in
  Obs.Metrics.inc c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "counter value" 5 (Obs.Metrics.value c);
  (* find-or-create returns the same counter *)
  let c' = Obs.Metrics.counter reg "tcp.retransmits" in
  Obs.Metrics.inc c';
  Alcotest.(check int) "same underlying cell" 6 (Obs.Metrics.value c);
  let scoped = Obs.Metrics.scoped reg "client" in
  let sc = Obs.Metrics.counter scoped "tcp.retransmits" in
  Obs.Metrics.inc sc;
  Alcotest.(check int) "scoped counter is distinct" 1 (Obs.Metrics.value sc);
  (match Obs.Metrics.find reg "client.tcp.retransmits" with
  | Some (Obs.Metrics.Counter 1) -> ()
  | _ -> Alcotest.fail "scoped counter not registered under full name");
  Alcotest.check_raises "type conflict rejected"
    (Invalid_argument "Metrics: tcp.retransmits already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge reg "tcp.retransmits"))

let test_metrics_histogram () =
  let reg = Obs.Metrics.create () in
  let h =
    Obs.Metrics.histogram reg ~bounds:[| 10.0; 100.0 |] "rtt_us"
  in
  List.iter (Obs.Metrics.observe h) [ 5.0; 50.0; 500.0; 7.0 ];
  Alcotest.(check int) "count" 4 (Obs.Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 562.0 (Obs.Metrics.histogram_sum h);
  match Obs.Metrics.find reg "rtt_us" with
  | Some (Obs.Metrics.Histogram { counts; _ }) ->
    Alcotest.(check (array int)) "bucket counts" [| 2; 1; 1 |] counts
  | _ -> Alcotest.fail "histogram not found"

let test_metrics_dump_sorted_and_json () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.inc (Obs.Metrics.counter reg "zeta");
  Obs.Metrics.inc (Obs.Metrics.counter reg "alpha");
  Obs.Metrics.set (Obs.Metrics.gauge reg "mid") 2.5;
  let names = List.map fst (Obs.Metrics.dump reg) in
  Alcotest.(check (list string)) "sorted dump" [ "alpha"; "mid"; "zeta" ]
    names;
  let json = Obs.Json.to_string (Obs.Metrics.to_json reg) in
  match Obs.Json.parse json with
  | Error e -> Alcotest.fail ("metrics JSON does not parse: " ^ e)
  | Ok v -> (
    match Obs.Json.member "counters" v with
    | Some (Obs.Json.Obj kvs) ->
      Alcotest.(check (list string)) "counter keys" [ "alpha"; "zeta" ]
        (List.map fst kvs)
    | _ -> Alcotest.fail "no counters object")

(* ----- JSON parser -------------------------------------------------------- *)

let test_json_parser () =
  (match Obs.Json.parse {|{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":true}|} with
  | Error e -> Alcotest.fail e
  | Ok v -> (
    (match Obs.Json.member "a" v with
    | Some (Obs.Json.Arr [ Obs.Json.Num a; Obs.Json.Num b; Obs.Json.Num c ])
      ->
      Alcotest.(check (float 1e-9)) "1" 1.0 a;
      Alcotest.(check (float 1e-9)) "2.5" 2.5 b;
      Alcotest.(check (float 1e-9)) "-300" (-300.0) c
    | _ -> Alcotest.fail "array member");
    match Obs.Json.member "b" v with
    | Some o -> (
      match Obs.Json.member "c" o with
      | Some (Obs.Json.Str s) ->
        Alcotest.(check string) "escape decoded" "x\ny" s
      | _ -> Alcotest.fail "nested string")
    | None -> Alcotest.fail "nested object"));
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.fail ("accepted malformed: " ^ bad)
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "[1] trailing"; "\"unterminated"; "nul" ]

(* \ud83d\ude00 is one code point (U+1F600), four bytes of UTF-8; a
   surrogate on its own is not a character at all *)
let test_json_surrogates () =
  (match Obs.Json.parse {|"\ud83d\ude00"|} with
  | Ok (Obs.Json.Str s) ->
    Alcotest.(check string) "pair decodes to one UTF-8 code point"
      "\240\159\152\128" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.fail ("accepted lone surrogate: " ^ bad)
      | Error _ -> ())
    [ {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83d\u0041"|}; {|"\ude00"|};
      {|"\ude00\ud83d"|} ]

let test_json_printer () =
  let open Obs.Json in
  Alcotest.(check string) "compact, fields in order, shortest numbers"
    ({|{"b":[1,-2.5,0.1,1e+300,null,true],"a":{"s":"q\"b\\\u000a\u001f|}
    ^ "\200\"}}")
    (to_string
       (Obj
          [ ( "b",
              Arr [ int 1; Num (-2.5); Num 0.1; Num 1e300; Null; Bool true ] );
            ("a", Obj [ ("s", Str "q\"b\\\n\031\200") ]) ]));
  Alcotest.(check string) "17 digits only when needed" "0.30000000000000004"
    (to_string (Num (0.1 +. 0.2)));
  List.iter
    (fun f ->
      Alcotest.check_raises "non-finite rejected"
        (Invalid_argument "Json.to_string: non-finite number") (fun () ->
          ignore (to_string (Arr [ Num f ]))))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* random finite values with arbitrary bytes in keys and strings (control
   characters and bytes >= 0x80 included) survive print-then-parse *)
let prop_json_round_trip =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 12) in
  let num =
    oneof
      [ map float_of_int (-1_000_000 -- 1_000_000);
        map (fun f -> if Float.is_finite f then f else 0.0) float ]
  in
  let v =
    sized_size (0 -- 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [ return Obs.Json.Null;
                 map (fun b -> Obs.Json.Bool b) bool;
                 map (fun f -> Obs.Json.Num f) num;
                 map (fun s -> Obs.Json.Str s) str ]
           in
           if depth = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 ( 1,
                   map (fun l -> Obs.Json.Arr l)
                     (list_size (0 -- 5) (self (depth - 1))) );
                 ( 1,
                   map (fun l -> Obs.Json.Obj l)
                     (list_size (0 -- 5) (pair str (self (depth - 1)))) ) ])
  in
  QCheck.Test.make ~name:"json parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Obs.Json.to_string v)
    (fun v -> Obs.Json.parse (Obs.Json.to_string v) = Ok v)

(* ----- tracer ------------------------------------------------------------- *)

let test_tracer_ring () =
  let clock = [| 0.0 |] in
  let t = Obs.Tracer.create ~capacity:4 ~clock () in
  Alcotest.(check bool) "enabled" true (Obs.Tracer.enabled t);
  Alcotest.(check bool) "null disabled" false
    (Obs.Tracer.enabled Obs.Tracer.null);
  for i = 0 to 5 do
    clock.(0) <- float_of_int (10 * i);
    Obs.Tracer.instant t ~tid:(i mod 2) ~cat:"c" ~name:"n" ~a0:i
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Tracer.length t);
  Alcotest.(check int) "total" 6 (Obs.Tracer.total t);
  Alcotest.(check int) "dropped" 2 (Obs.Tracer.dropped t);
  let seen = ref [] in
  Obs.Tracer.iter t (fun e -> seen := e.Obs.Tracer.a0 :: !seen);
  Alcotest.(check (list int)) "oldest-first after wrap" [ 2; 3; 4; 5 ]
    (List.rev !seen);
  Obs.Tracer.span_begin t ~tid:0 ~id:7 ~cat:"w" ~name:"frame" ~a0:64;
  Obs.Tracer.span_end t ~tid:0 ~id:7 ~cat:"w" ~name:"frame" ~a0:64;
  let phases = ref [] in
  Obs.Tracer.iter t (fun e -> phases := e.Obs.Tracer.phase :: !phases);
  match !phases with
  | `End :: `Begin :: _ -> ()
  | _ -> Alcotest.fail "span phases not recorded"

(* ----- conflict matrix on a hand-built eviction scenario ------------------ *)

(* Two single-block functions placed exactly one i-cache size apart, so
   every block of [funB] maps onto the same direct-mapped sets as [funA].
   Alternating invocations must classify every steady-state i-miss as
   cross-interference between the pair. *)
let test_conflict_matrix () =
  let params = M.Params.default in
  let mkfunc name =
    L.Func.make ~name ~prologue:(M.Instr.vec ~alu:2 ())
      ~epilogue:(M.Instr.vec ~alu:1 ())
      [ L.Func.item (L.Block.make ~id:"body" ~kind:L.Block.Hot (M.Instr.vec ~alu:16 ())) ]
  in
  let base = 0x10000 in
  let img =
    L.Image.build
      [ (L.Image.single ~dilution_pct:0 (mkfunc "funA"), base);
        (L.Image.single ~dilution_pct:0 (mkfunc "funB"), base + 8192) ]
  in
  let trace = M.Trace.create () in
  let emit_func name =
    let fid = M.Trace.intern trace name in
    List.iter
      (fun key ->
        match L.Image.find img ~func:name ~key with
        | L.Image.Slot s ->
          Array.iteri
            (fun i cls ->
              M.Trace.add_packed trace ~pc:s.L.Image.pcs.(i) ~cls
                ~kind:M.Trace.kind_none ~addr:0 ~fid)
            s.L.Image.instrs
        | _ -> Alcotest.fail ("missing slot for " ^ name))
      [ L.Image.Key.pro; L.Image.Key.hot "body"; L.Image.Key.epi ]
  in
  for _ = 1 to 4 do
    emit_func "funA";
    emit_func "funB"
  done;
  let a = Obs.Attrib.profile params img trace in
  let tot = a.Obs.Attrib.totals in
  Alcotest.(check int) "all instructions attributed"
    (M.Trace.length trace) tot.Obs.Attrib.instrs;
  Alcotest.(check bool) "i-misses occurred" true (tot.Obs.Attrib.imiss > 0);
  let self = Obs.Attrib.self_imisses a in
  let cross = Obs.Attrib.cross_imisses a in
  Alcotest.(check int) "100% of misses classified" tot.Obs.Attrib.imiss
    (a.Obs.Attrib.cold_imisses + self + cross);
  Alcotest.(check int) "no self-interference" 0 self;
  Alcotest.(check int) "steady replay: all misses are conflicts"
    tot.Obs.Attrib.imiss cross;
  List.iter
    (fun (c : Obs.Attrib.conflict) ->
      Alcotest.(check bool) "victim and evictor differ" true
        (c.Obs.Attrib.victim <> c.Obs.Attrib.evictor);
      Alcotest.(check bool) "pair names known" true
        (List.mem c.Obs.Attrib.victim [ "funA"; "funB" ]
        && List.mem c.Obs.Attrib.evictor [ "funA"; "funB" ]))
    a.Obs.Attrib.conflicts

(* ----- attribution vs the aggregate Perf report --------------------------- *)

let test_attrib_sums_to_perf () =
  List.iter
    (fun (stack, version) ->
      let t = P.Profile.collect ~rounds:12 ~stack ~version () in
      (match P.Profile.check t with
      | Ok () -> ()
      | Error msg ->
        Alcotest.fail
          (Printf.sprintf "%s/%s: %s" (P.Engine.stack_name stack)
             (P.Config.version_name version)
             msg));
      let cold = P.Profile.collect ~rounds:12 ~mode:`Cold ~stack ~version () in
      match P.Profile.check cold with
      | Ok () -> ()
      | Error msg -> Alcotest.fail ("cold mode: " ^ msg))
    [ (P.Engine.Tcpip, P.Config.All); (P.Engine.Rpc, P.Config.Std) ]

(* ----- determinism across jobs and runs ----------------------------------- *)

let test_profile_deterministic () =
  let versions = [ P.Config.Std; P.Config.All ] in
  let render_all ~jobs =
    P.Profile.collect_many ~rounds:12 ~jobs ~stack:P.Engine.Tcpip versions
    |> List.map (fun t ->
           P.Profile.render t ^ Obs.Json.to_string (P.Profile.to_json t))
    |> String.concat "\n"
  in
  let a = render_all ~jobs:1 in
  let b = render_all ~jobs:4 in
  Alcotest.(check string) "profile identical at jobs 1 vs 4" a b;
  let c = render_all ~jobs:1 in
  Alcotest.(check string) "profile identical across runs" a c

let test_trace_deterministic_and_wellformed () =
  let collect ~jobs =
    P.Timeline.collect ~seeds:2 ~rounds:8 ~jobs ~stack:P.Engine.Rpc
      ~version:P.Config.Std ()
  in
  let t1 = collect ~jobs:1 in
  let j1 = Obs.Json.to_string (P.Timeline.to_json t1) in
  let j4 = Obs.Json.to_string (P.Timeline.to_json (collect ~jobs:4)) in
  Alcotest.(check string) "trace identical at jobs 1 vs 4" j1 j4;
  Alcotest.(check bool) "events captured" true (P.Timeline.events t1 > 0);
  match Obs.Json.parse j1 with
  | Error e -> Alcotest.fail ("Perfetto JSON does not parse: " ^ e)
  | Ok v -> (
    match Obs.Json.member "traceEvents" v with
    | Some (Obs.Json.Arr _ as a) ->
      Alcotest.(check bool) "traceEvents non-empty" true
        (Obs.Json.array_length a > 0)
    | _ -> Alcotest.fail "no traceEvents array")

(* every JSON export is a Json.v that prints, parses back to the same
   value with our own parser (the round-trip CI relies on), and carries
   the same top-level schema_version *)
let test_schema_version_round_trips () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.inc (Obs.Metrics.counter reg "c");
  let tcp_all = P.Engine.Spec.default ~stack:P.Engine.Tcpip
      ~config:(P.Config.make P.Config.All)
  in
  let spans =
    lazy
      (P.Spans.collect ~rounds:8 ~layouts:[ P.Config.Bipartite ]
         ~stack:P.Engine.Tcpip ~version:P.Config.All ())
  in
  let chaos_case =
    P.Chaos.case ~flows:2 ~requests:4 ~seed:3
      (P.Chaos.gen ~seed:3 ~intensity:2 ~horizon_us:200_000.0)
  in
  let exports =
    [ ("metrics", fun () -> Obs.Metrics.to_json reg);
      ( "profile",
        fun () ->
          P.Profile.to_json
            (P.Profile.collect ~rounds:12 ~stack:P.Engine.Tcpip
               ~version:P.Config.All ()) );
      ( "timeline",
        fun () ->
          P.Timeline.to_json
            (P.Timeline.collect ~seeds:1 ~rounds:8 ~stack:P.Engine.Rpc
               ~version:P.Config.Std ()) );
      ("spans", fun () -> P.Spans.to_json (Lazy.force spans));
      ("spans perfetto", fun () -> P.Spans.perfetto (Lazy.force spans));
      ( "mflow",
        fun () ->
          P.Mflow.to_json
            (P.Mflow.sweep ~flow_counts:[ 2 ] ~seeds:1
               ~workload:
                 { P.Mflow.default_workload with P.Mflow.requests_per_flow = 4 }
               tcp_all) );
      ( "incast",
        fun () ->
          P.Incast.to_json
            (P.Incast.sweep
               ~wl:
                 { P.Incast.default_workload with
                   P.Incast.requests_per_client = 2 }
               ~fan_ins:[ 2 ] ~seeds:1 ~seed:42 ()) );
      ( "chaos matrix",
        fun () ->
          P.Chaos.matrix_to_json
            (P.Chaos.run_matrix ~flows:2 ~requests:4 ~intensities:[ 1 ]
               ~seeds:1 ~seed:42 ()) );
      ( "chaos repro",
        fun () -> P.Chaos.case_to_json ~expect:[ "at_most_once" ] chaos_case );
      ( "layout search",
        fun () ->
          P.Layoutsearch.to_json
            (P.Layoutsearch.run ~budget:24 ~seeds:1 ~geometries:[ 8 ]
               ~stacks:[ P.Engine.Tcpip ] ()) ) ]
  in
  List.iter
    (fun (what, export) ->
      let v = export () in
      match Obs.Json.parse (Obs.Json.to_string v) with
      | Error e -> Alcotest.fail (what ^ " JSON does not parse: " ^ e)
      | Ok v' ->
        Alcotest.(check bool) (what ^ " reads back unchanged") true (v' = v);
        Alcotest.(check bool)
          (what ^ " schema_version")
          true
          (Obs.Json.member "schema_version" v
          = Some (Obs.Json.int Obs.Json.schema_version)))
    exports

let test_engine_events_and_metrics () =
  let r =
    P.Engine.run
      (P.Engine.Spec.make ~rounds:8 ~trace_events:true ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.All) ())
  in
  Alcotest.(check bool) "tracer captured events" true
    (Obs.Tracer.length r.P.Engine.events > 0);
  (match Obs.Metrics.find r.P.Engine.metrics "link.frames_sent" with
  | Some (Obs.Metrics.Counter n) ->
    Alcotest.(check bool) "frames counted" true (n > 0)
  | _ -> Alcotest.fail "link.frames_sent missing");
  (match Obs.Metrics.find r.P.Engine.metrics "engine.rtt_us" with
  | Some (Obs.Metrics.Histogram { count; _ }) ->
    Alcotest.(check int) "rtt histogram has every measured roundtrip" 8 count
  | _ -> Alcotest.fail "engine.rtt_us missing");
  let off =
    P.Engine.run
      (P.Engine.Spec.make ~rounds:8 ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.All) ())
  in
  Alcotest.(check bool) "tracing off by default" false
    (Obs.Tracer.enabled off.P.Engine.events)

let suite =
  ( "obs",
    [ Alcotest.test_case "metrics counters and scopes" `Quick
        test_metrics_counters;
      Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
      Alcotest.test_case "metrics dump sorted, JSON parses" `Quick
        test_metrics_dump_sorted_and_json;
      Alcotest.test_case "json parser" `Quick test_json_parser;
      Alcotest.test_case "json surrogate pairs" `Quick test_json_surrogates;
      Alcotest.test_case "json printer layout" `Quick test_json_printer;
      QCheck_alcotest.to_alcotest prop_json_round_trip;
      Alcotest.test_case "tracer ring buffer" `Quick test_tracer_ring;
      Alcotest.test_case "conflict matrix: cross-interference pair" `Quick
        test_conflict_matrix;
      Alcotest.test_case "attribution sums to Perf report" `Quick
        test_attrib_sums_to_perf;
      Alcotest.test_case "profile deterministic across jobs/runs" `Quick
        test_profile_deterministic;
      Alcotest.test_case "trace deterministic and well-formed" `Quick
        test_trace_deterministic_and_wellformed;
      Alcotest.test_case "schema_version round-trips in every export" `Quick
        test_schema_version_round_trips;
      Alcotest.test_case "engine events and unified metrics" `Quick
        test_engine_events_and_metrics ] )
