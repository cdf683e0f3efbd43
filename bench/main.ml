(* Benchmark harness: regenerates every table and figure of the paper
   (printed with the published values alongside), then runs Bechamel
   microbenchmarks of the core data structures — including the §2.2.1
   hash-table traversal comparison, which is a genuine wall-clock claim.

   Usage:  dune exec bench/main.exe -- [quick] [only tableN|figures|layout|micro]
                                       [-j N | --jobs N] [json] [rev=ID]
                                       [compare]

   [json] switches to perf-trajectory mode: instead of printing tables it
   times a full sweep and writes wall-clock plus simulated-latency numbers
   to BENCH_<rev>.json, the perf baseline future changes compare against.
   [compare] diffs the two most recent BENCH_*.json snapshots and exits
   nonzero on a >10% full-sweep wall-time regression. *)

module P = Protolat
module Table = Protolat_util.Table
module Xk = Protolat_xkernel
module T = Protolat_tcpip
module Image = Protolat_layout.Image
module Strategy = Protolat_layout.Strategy

let quick = Array.exists (( = ) "quick") Sys.argv

let json_mode = Array.exists (( = ) "json") Sys.argv

let only =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = "only" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let jobs =
  let rec find i =
    if i >= Array.length Sys.argv then Protolat_util.Dpool.default_jobs ()
    else if (Sys.argv.(i) = "-j" || Sys.argv.(i) = "--jobs")
            && i + 1 < Array.length Sys.argv
    then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some n -> n
      | None ->
          prerr_endline
            ("bench: invalid jobs value '" ^ Sys.argv.(i + 1)
           ^ "', expected an integer");
          exit 2
    else find (i + 1)
  in
  max 1 (find 1)

let want name =
  match only with None -> true | Some o -> String.equal o name

let banner s = Printf.printf "\n===== %s =====\n%!" s

(* ----- the paper's tables and figures ------------------------------------- *)

let run_tables () =
  if want "table1" then Table.print (P.Experiments.table1 ());
  if want "table2" then Table.print (P.Experiments.table2 ());
  if want "table3" then Table.print (P.Experiments.table3 ());
  let need_full =
    List.exists want
      [ "table4"; "table5"; "table6"; "table7"; "table8"; "table9" ]
  in
  if need_full then begin
    let samples_tcp, samples_rpc, rounds =
      if quick then (3, 3, 12) else (10, 5, 24)
    in
    Printf.printf
      "\n(running %d TCP/IP and %d RPC samples of %d measured roundtrips per version, %d job%s)\n%!"
      samples_tcp samples_rpc rounds jobs (if jobs = 1 then "" else "s");
    let results =
      P.Experiments.full_run ~samples_tcp ~samples_rpc ~rounds ~jobs ()
    in
    if want "table4" then Table.print (P.Experiments.table4 results);
    if want "table5" then Table.print (P.Experiments.table5 results);
    if want "table6" then Table.print (P.Experiments.table6 results);
    if want "table7" then Table.print (P.Experiments.table7 results);
    if want "table8" then Table.print (P.Experiments.table8 results);
    if want "table9" then Table.print (P.Experiments.table9 results)
  end;
  if want "figures" || only = None then begin
    banner "Figure 1: protocol stacks";
    print_endline (P.Experiments.figure1 ());
    banner "Figure 2: i-cache footprints (TCP/IP)";
    print_endline (P.Experiments.figure2 ())
  end;
  if want "extras" || only = None then begin
    Table.print (P.Experiments.map_traversal ());
    Table.print (P.Experiments.throughput ());
    Table.print (P.Experiments.micro_positioning ());
    Table.print (P.Experiments.dec_unix_mcpi ());
    Table.print (P.Bsd_model.report ())
  end;
  if want "layout" || only = None then begin
    banner "Layout sweep (incremental: pc rewrite + block-cache replay)";
    (* code images are immutable and cached per (config, layout); build
       them up front so the sweep comparison times sweep mechanics, not
       the shared one-time image construction *)
    List.iter
      (fun layout ->
        ignore
          (P.Engine.layout_for (P.Config.make P.Config.Clo) P.Engine.Tcpip
             ~layout ()))
      P.Experiments.layout_candidates;
    let t0 = Unix.gettimeofday () in
    let tbl = P.Experiments.layout_sweep_table () in
    let inc_s = Unix.gettimeofday () -. t0 in
    Table.print tbl;
    let t1 = Unix.gettimeofday () in
    ignore (P.Experiments.layout_sweep ~incremental:false ());
    let full_s = Unix.gettimeofday () -. t1 in
    Printf.printf
      "incremental sweep %.3fs vs full simulation per layout %.3fs (%.1fx)\n%!"
      inc_s full_s
      (full_s /. Float.max inc_s 1e-9)
  end;
  if want "fabric" || only = None then begin
    banner "Fabric: incast over the switched star topology";
    Table.print
      (P.Experiments.incast_latency
         ~fan_ins:(if quick then [ 2; 8 ] else [ 2; 4; 8; 16; 32; 64 ])
         ~jobs ())
  end;
  if want "ablations" || only = None then begin
    banner "Ablations";
    Table.print (P.Ablation.classifier ());
    Table.print (P.Ablation.cache_size ());
    Table.print (P.Ablation.linear_vs_bipartite ());
    Table.print (P.Ablation.future_machine ());
    Table.print (P.Ablation.layout_matrix ())
  end

(* ----- Bechamel microbenchmarks ---------------------------------------------- *)

let make_populated_map pct =
  let buckets = 1024 in
  let m = Xk.Map.create ~buckets () in
  for k = 0 to (buckets * pct / 100) - 1 do
    Xk.Map.bind m (Printf.sprintf "key%06d" k) k
  done;
  m

let bechamel_tests () =
  let open Bechamel in
  let map10 = make_populated_map 10 in
  let sink = ref 0 in
  let traversal_list =
    Test.make ~name:"map_traverse_nonempty_list_10pct"
      (Staged.stage (fun () ->
           Xk.Map.traverse map10 (fun _ v -> sink := !sink + v)))
  in
  let traversal_full =
    Test.make ~name:"map_traverse_full_scan_10pct"
      (Staged.stage (fun () ->
           Xk.Map.traverse_all_buckets map10 (fun _ v -> sink := !sink + v)))
  in
  let resolve_hit =
    Test.make ~name:"map_resolve_one_entry_cache_hit"
      (Staged.stage (fun () -> ignore (Xk.Map.resolve map10 "key000001")))
  in
  let cksum_buf = Bytes.make 40 '\x5a' in
  let cksum =
    Test.make ~name:"internet_checksum_40B"
      (Staged.stage (fun () -> ignore (T.Checksum.compute cksum_buf 0 40)))
  in
  let cache =
    let c =
      Protolat_machine.Cache.create ~name:"bench" ~size_bytes:8192
        ~block_bytes:32
    in
    let i = ref 0 in
    Test.make ~name:"icache_simulator_access"
      (Staged.stage (fun () ->
           incr i;
           ignore (Protolat_machine.Cache.access c (!i * 68 mod 65536))))
  in
  (* the CLO client units at the engine's base and 8 KB / 32 B geometry;
     [Engine.layout_for] would only time its image cache *)
  let units, order =
    P.Engine.client_units (P.Config.make P.Config.Clo) P.Engine.Tcpip
  in
  let image_build =
    Test.make ~name:"image_build_tcpip_bipartite"
      (Staged.stage (fun () ->
           ignore
             (Image.build
                (Strategy.bipartite ~base:0x10000 ~icache_bytes:8192 ~order
                   units))))
  in
  let micro_position =
    Test.make ~name:"strategy_micro_position_tcpip"
      (Staged.stage (fun () ->
           ignore
             (Strategy.micro_position ~base:0x10000 ~icache_bytes:8192
                ~block_bytes:32 ~ref_seq:order units)))
  in
  (* the layout scorer's per-candidate steps on the CLO TCP/IP trace: the
     scratch reset after a cold replay (the clear costs the sets the
     replay filled), and the rebind of its segmentation to the bipartite
     placement *)
  let module M = Protolat_machine in
  let base =
    P.Engine.run
      (P.Engine.Spec.make ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.Clo) ())
  in
  let trace = base.P.Engine.trace in
  let scratch = M.Memsys.create M.Params.default in
  let memsys_clear =
    Test.make ~name:"memsys_clear_scratch"
      (Staged.stage (fun () ->
           ignore (M.Memsys.run scratch trace);
           M.Memsys.clear scratch))
  in
  let bc0 = M.Blockcache.segment M.Params.default trace in
  let bipartite =
    Image.build
      (Strategy.bipartite ~base:0x10000 ~icache_bytes:8192 ~order units)
  in
  let rebound =
    M.Trace.map_pcs (Image.pc_map base.P.Engine.client_image bipartite) trace
  in
  let rebind =
    Test.make ~name:"blockcache_rebind_tcpip"
      (Staged.stage (fun () -> ignore (M.Blockcache.rebind bc0 rebound)))
  in
  let roundtrips name version =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore
             (P.Engine.run
                (P.Engine.Spec.make ~rounds:4 ~warmup:2 ~stack:P.Engine.Tcpip
                   ~config:(P.Config.make version) ()))))
  in
  Test.make_grouped ~name:"protolat"
    [ traversal_list; traversal_full; resolve_hit; cksum; cache; image_build;
      micro_position; memsys_clear; rebind;
      roundtrips "simulate_roundtrips_std" P.Config.Std;
      roundtrips "simulate_roundtrips_all" P.Config.All ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  banner "Bechamel microbenchmarks (wall clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.2 else 0.5))
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = List.map (fun inst -> Analyze.all ols inst raw) instances in
  let merged = Analyze.merge ols instances results in
  let tbl = Hashtbl.find merged (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-48s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-48s (no estimate)\n" name)
    (List.sort compare rows)

(* ----- perf trajectory (json mode) ---------------------------------------- *)

let git_rev () =
  let from_arg =
    let rec find i =
      if i >= Array.length Sys.argv then None
      else
        let a = Sys.argv.(i) in
        if String.length a > 4 && String.sub a 0 4 = "rev=" then
          Some (String.sub a 4 (String.length a - 4))
        else find (i + 1)
    in
    find 1
  in
  match from_arg with
  | Some r -> r
  | None -> (
    match
      let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      (Unix.close_process_in ic, line)
    with
    | Unix.WEXITED 0, rev when rev <> "" -> rev
    | _ | (exception _) -> "dev")

let timestamp () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let run_json () =
  let samples_tcp, samples_rpc, rounds =
    if quick then (3, 3, 12) else (10, 5, 24)
  in
  let rev = git_rev () in
  Printf.printf "bench json mode: rev=%s jobs=%d %s\n%!" rev jobs
    (if quick then "(quick)" else "(full)");
  let t0 = Unix.gettimeofday () in
  let results =
    P.Experiments.full_run ~samples_tcp ~samples_rpc ~rounds ~jobs ()
  in
  let sweep_wall = Unix.gettimeofday () -. t0 in
  let single_spec =
    P.Engine.Spec.default ~stack:P.Engine.Tcpip
      ~config:(P.Config.make P.Config.All)
  in
  let t1 = Unix.gettimeofday () in
  let single = P.Engine.run single_spec in
  let single_wall = Unix.gettimeofday () -. t1 in
  (* raw replay throughput of the block-level fast path: repeated warm
     replays of the single run's steady trace against one memory system,
     reported in runs (basic-block executions) per second, with the
     segmentation's own fast/slow counters over the timed replays *)
  let replay_bc =
    Protolat_machine.Blockcache.segment single_spec.P.Engine.Spec.params
      single.P.Engine.trace
  in
  let replay_runs_per_s =
    let m = Protolat_machine.Memsys.create single_spec.P.Engine.Spec.params in
    Protolat_machine.Blockcache.replay replay_bc m;
    Protolat_machine.Blockcache.reset_counters replay_bc;
    let reps = if quick then 100 else 400 in
    let t = Unix.gettimeofday () in
    for _ = 1 to reps do
      Protolat_machine.Blockcache.replay replay_bc m
    done;
    float_of_int (reps * Protolat_machine.Blockcache.n_runs replay_bc)
    /. Float.max (Unix.gettimeofday () -. t) 1e-9
  in
  (* warm the (cached, shared) code-image cache so both sweep timings
     measure sweep mechanics, not one-time image construction *)
  List.iter
    (fun layout ->
      ignore
        (P.Engine.layout_for (P.Config.make P.Config.Clo) P.Engine.Tcpip
           ~layout ()))
    P.Experiments.layout_candidates;
  (* likewise the incremental sweep's shared base protocol simulation is
     hoisted out of the timed region: the timing measures sweep mechanics
     (per-layout pc rewrite + block-cache replay), not the one base run *)
  let sweep_base = P.Experiments.layout_sweep_base () in
  let t2 = Unix.gettimeofday () in
  ignore (P.Experiments.layout_sweep ~base:sweep_base ~incremental:true ());
  let layout_inc_wall = Unix.gettimeofday () -. t2 in
  let t3 = Unix.gettimeofday () in
  ignore (P.Experiments.layout_sweep ~incremental:false ());
  let layout_full_wall = Unix.gettimeofday () -. t3 in
  (* one sharded incast cell: wall clock of the fabric's epoch engine plus
     its pinned-behaviour digest and tail latencies *)
  let fabric_fan_in = if quick then 16 else 32 in
  let t4 = Unix.gettimeofday () in
  let fabric = P.Incast.run_cell ~jobs ~fan_in:fabric_fan_in ~seed:42 () in
  let fabric_wall = Unix.gettimeofday () -. t4 in
  (* one automated layout-search cell at jobs 1: candidates/sec is the
     scorer-throughput headline (single core, incremental path), best
     steady RTT pins the search result *)
  let search_budget = if quick then 160 else 400 in
  let t5 = Unix.gettimeofday () in
  let search =
    P.Layoutsearch.run ~budget:search_budget ~seeds:1 ~geometries:[ 8 ]
      ~stacks:[ P.Engine.Tcpip ] ~jobs:1 ()
  in
  let search_wall = Unix.gettimeofday () -. t5 in
  let search_cell = List.hd search.P.Layoutsearch.cells in
  let _, search_named_us = P.Layoutsearch.best_named search_cell in
  let module J = Protolat_obs.Json in
  let module Hist = Protolat_util.Stats.Hist in
  let stack_json stack =
    J.Obj
      (List.map
         (fun v ->
           let s = P.Experiments.get results stack v in
           ( P.Config.version_name v,
             J.Obj
               [ ("mean", J.Num s.P.Engine.rtt.Protolat_util.Stats.mean);
                 ("stddev", J.Num s.P.Engine.rtt.Protolat_util.Stats.stddev)
               ] ))
         P.Paper.version_order)
  in
  let doc =
    J.Obj
      [ ("schema_version", J.int J.schema_version);
        ("rev", J.Str rev);
        ("timestamp", J.Str (timestamp ()));
        ("quick", J.Bool quick);
        ("jobs", J.int jobs);
        ( "samples",
          J.Obj
            [ ("tcpip", J.int samples_tcp);
              ("rpc", J.int samples_rpc);
              ("rounds", J.int rounds) ] );
        ( "wall_clock_s",
          J.Obj
            [ ("full_sweep", J.Num sweep_wall);
              ("single_run_all", J.Num single_wall);
              ("layout_sweep_incremental", J.Num layout_inc_wall);
              ("layout_sweep_full", J.Num layout_full_wall);
              ("fabric_incast", J.Num fabric_wall);
              ("layout_search", J.Num search_wall) ] );
        ( "fabric",
          J.Obj
            [ ("fan_in", J.int fabric.P.Incast.fan_in);
              ("completed", J.int fabric.P.Incast.completed);
              ("total", J.int fabric.P.Incast.total);
              ("p50_us", J.Num fabric.P.Incast.lat.Hist.p50);
              ("p99_us", J.Num fabric.P.Incast.lat.Hist.p99);
              ("queue_drops", J.int fabric.P.Incast.queue_drops);
              ("retransmits", J.int fabric.P.Incast.retransmits);
              ("epochs", J.int fabric.P.Incast.epochs);
              ("digest", J.Str fabric.P.Incast.digest) ] );
        ( "layout_search",
          J.Obj
            [ ("budget", J.int search_budget);
              ("evals", J.int search_cell.P.Layoutsearch.evals);
              ( "candidates_per_sec",
                J.Num (P.Layoutsearch.candidates_per_sec search) );
              ("best_steady_us", J.Num search_cell.P.Layoutsearch.best_us);
              ("best_named_us", J.Num search_named_us);
              ("digest", J.Str (P.Layoutsearch.digest search)) ] );
        (* whether the fast path was live and how often it engaged, so a
           perf number is never read without knowing what produced it *)
        ( "replay",
          J.Obj
            [ ( "fastpath_enabled",
                J.Bool (Protolat_machine.Blockcache.enabled ()) );
              ("runs_per_s", J.Num replay_runs_per_s);
              ( "fast_runs",
                J.int (Protolat_machine.Blockcache.fast_runs replay_bc) );
              ( "slow_runs",
                J.int (Protolat_machine.Blockcache.slow_runs replay_bc) ) ] );
        ( "simulated_rtt_us",
          J.Obj
            [ ("tcpip", stack_json P.Engine.Tcpip);
              ("rpc", stack_json P.Engine.Rpc) ] );
        (* the single ALL run's unified metrics dump: device/protocol
           counters and the RTT histogram, so the perf baseline also pins
           behaviour *)
        ("metrics", Protolat_obs.Metrics.to_json single.P.Engine.metrics) ]
  in
  let path = Printf.sprintf "BENCH_%s.json" rev in
  let oc = open_out path in
  output_string oc (J.to_string doc ^ "\n");
  close_out oc;
  Printf.printf "sweep %.2fs, single run %.3fs -> wrote %s\n%!" sweep_wall
    single_wall path

(* ----- compare mode -------------------------------------------------------- *)

(* [compare] diffs the two most recent BENCH_*.json snapshots (by their
   embedded timestamp): wall clock and per-version simulated RTTs.  Exits
   nonzero when the newer full-sweep wall time regressed more than 10%
   against a comparable (same quick-flag) baseline — the repo's perf gate,
   wired into scripts/ci.sh via scripts/bench_compare.sh. *)

module Json = Protolat_obs.Json

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let jstr v = match v with Some (Json.Str s) -> s | _ -> ""

let jnum v = match v with Some (Json.Num f) -> Some f | _ -> None

let jpath v path =
  List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some v) path

let run_compare () =
  let snapshots =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.filter_map (fun f ->
           match Json.parse (read_file f) with
           | Ok v -> Some (f, v)
           | Error e ->
             Printf.eprintf "bench compare: skipping %s: %s\n" f e;
             None)
    |> List.sort (fun (fa, a) (fb, b) ->
           (* ISO-8601 timestamps order lexicographically *)
           compare
             (jstr (Json.member "timestamp" a), fa)
             (jstr (Json.member "timestamp" b), fb))
  in
  match List.rev snapshots with
  | [] | [ _ ] ->
    print_endline
      "bench compare: fewer than two BENCH_*.json snapshots, nothing to \
       compare";
    exit 0
  | (fnew, vnew) :: (fold, vold) :: _ ->
    let rev v = jstr (Json.member "rev" v) in
    let quick_of v = Json.member "quick" v = Some (Json.Bool true) in
    Printf.printf "bench compare: %s (rev %s) vs %s (rev %s)\n" fold
      (rev vold) fnew (rev vnew);
    (* older baselines predate the schema_version field (or may carry an
       older schema); the comparison is still meaningful for the keys both
       sides share, so warn and proceed rather than fail *)
    List.iter
      (fun (name, v) ->
        match jnum (jpath v [ "schema_version" ]) with
        | None ->
          Printf.printf
            "  warning: %s has no schema_version (pre-schema baseline), \
             comparing anyway\n"
            name
        | Some s when int_of_float s <> Protolat_obs.Json.schema_version ->
          Printf.printf
            "  warning: %s has schema_version %d (current is %d), comparing \
             anyway\n"
            name (int_of_float s) Protolat_obs.Json.schema_version
        | Some _ -> ())
      [ (fold, vold); (fnew, vnew) ];
    let pct a b = 100.0 *. (b -. a) /. a in
    let wall key =
      match
        ( jnum (jpath vold [ "wall_clock_s"; key ]),
          jnum (jpath vnew [ "wall_clock_s"; key ]) )
      with
      | Some a, Some b ->
        Printf.printf "  wall %-16s %8.3fs -> %8.3fs  (%+.1f%%)\n" key a b
          (pct a b);
        Some (a, b)
      | _ -> None
    in
    let sweep = wall "full_sweep" in
    ignore (wall "single_run_all");
    ignore (wall "layout_sweep_incremental");
    ignore (wall "layout_sweep_full");
    ignore (wall "fabric_incast");
    ignore (wall "layout_search");
    (* fabric incast cell: simulated tail latency; absent in baselines
       that predate the switched fabric *)
    (match
       ( jnum (jpath vold [ "fabric"; "fan_in" ]),
         jnum (jpath vnew [ "fabric"; "fan_in" ]) )
     with
    | Some a, Some b when a = b ->
      List.iter
        (fun key ->
          match
            ( jnum (jpath vold [ "fabric"; key ]),
              jnum (jpath vnew [ "fabric"; key ]) )
          with
          | Some a, Some b when a > 0.0 ->
            Printf.printf "  incast %-9s %12.2f -> %12.2f  (%+.2f%%)\n" key a
              b (pct a b)
          | _ -> ())
        [ "p50_us"; "p99_us" ]
    | None, Some _ ->
      Printf.printf "  incast cell: no baseline (pre-fabric snapshot)\n"
    | Some _, Some _ ->
      Printf.printf "  incast cell: fan-in differs, skipping\n"
    | _ -> ());
    (* layout-search cell: scorer throughput (higher is better) and best
       found steady RTT; absent in baselines that predate the search *)
    (match
       ( jnum (jpath vold [ "layout_search"; "budget" ]),
         jnum (jpath vnew [ "layout_search"; "budget" ]) )
     with
    | Some a, Some b when a = b ->
      List.iter
        (fun key ->
          match
            ( jnum (jpath vold [ "layout_search"; key ]),
              jnum (jpath vnew [ "layout_search"; key ]) )
          with
          | Some a, Some b when a > 0.0 ->
            Printf.printf "  search %-18s %12.2f -> %12.2f  (%+.2f%%)\n" key
              a b (pct a b)
          | _ -> ())
        [ "candidates_per_sec"; "best_steady_us" ]
    | None, Some _ ->
      Printf.printf "  search cell: no baseline (pre-search snapshot)\n"
    | Some _, Some _ ->
      Printf.printf "  search cell: budget differs, skipping\n"
    | _ -> ());
    (* replay throughput (runs/sec): higher is better; absent in baselines
       that predate the replay section *)
    (match
       ( jnum (jpath vold [ "replay"; "runs_per_s" ]),
         jnum (jpath vnew [ "replay"; "runs_per_s" ]) )
     with
    | Some a, Some b ->
      Printf.printf "  replay throughput %11.0f -> %11.0f runs/s  (%+.1f%%)\n"
        a b (pct a b)
    | None, Some b ->
      Printf.printf
        "  replay throughput %11s -> %11.0f runs/s  (no baseline)\n" "-" b
    | _ -> ());
    List.iter
      (fun stack ->
        List.iter
          (fun ver ->
            match
              ( jnum (jpath vold [ "simulated_rtt_us"; stack; ver; "mean" ]),
                jnum (jpath vnew [ "simulated_rtt_us"; stack; ver; "mean" ])
              )
            with
            | Some a, Some b ->
              Printf.printf "  rtt  %-5s %-4s %10.2fus -> %10.2fus  (%+.2f%%)\n"
                stack ver a b (pct a b)
            | _ -> ())
          [ "STD"; "OUT"; "CLO"; "BAD"; "PIN"; "ALL" ])
      [ "tcpip"; "rpc" ];
    let comparable = quick_of vold = quick_of vnew in
    if not comparable then
      print_endline
        "  (quick flags differ: wall-clock regression gate skipped)";
    (match sweep with
    | Some (a, b) when comparable && b > 1.1 *. a ->
      Printf.printf
        "bench compare: FAIL - full sweep regressed %.1f%% (>10%% gate)\n"
        (pct a b);
      exit 1
    | _ -> print_endline "bench compare: OK (within the 10% wall-time gate)")

let () =
  if Array.exists (( = ) "compare") Sys.argv then run_compare ()
  else if json_mode then run_json ()
  else begin
    run_tables ();
    if want "micro" || only = None then run_bechamel ()
  end;
  print_newline ()
