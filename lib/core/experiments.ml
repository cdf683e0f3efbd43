module Util = Protolat_util
module Machine = Protolat_machine
module Layout = Protolat_layout
module Xk = Protolat_xkernel
module T = Protolat_tcpip
module R = Protolat_rpc
module Table = Util.Table
module Trace = Machine.Trace
module Perf = Machine.Perf
module Memsys = Machine.Memsys

type results = {
  tcp : (Config.version * Engine.sample_set) list;
  rpc : (Config.version * Engine.sample_set) list;
}

(* The full sweep is 6 configurations x 2 stacks x N seeded samples, every
   run independent: flatten them into one task list and drain it with a
   domain pool.  Seeds and result order match the sequential path exactly,
   so any [jobs] count produces bit-identical tables. *)
let full_run ?(samples_tcp = 10) ?(samples_rpc = 5) ?(rounds = 24)
    ?(jobs = 1) () =
  let specs =
    List.concat_map
      (fun (stack, samples) ->
        List.concat_map
          (fun v -> List.init samples (fun i -> (stack, v, i)))
          Paper.version_order)
      [ (Engine.Tcpip, samples_tcp); (Engine.Rpc, samples_rpc) ]
  in
  let results =
    Util.Dpool.run ~jobs
      (List.map
         (fun (stack, v, i) ->
           fun () ->
            Engine.run
              (Engine.Spec.make ~seed:(Engine.sample_seed i) ~rounds ~stack
                 ~config:(Config.make v) ()))
         specs)
  in
  let paired = List.combine specs results in
  let per_version stack =
    List.map
      (fun v ->
        let runs =
          List.filter_map
            (fun ((s, v', _), r) ->
              if s = stack && v' = v then Some r else None)
            paired
        in
        (v, Engine.collect runs))
      Paper.version_order
  in
  { tcp = per_version Engine.Tcpip; rpc = per_version Engine.Rpc }

let get results stack v =
  let l = match stack with Engine.Tcpip -> results.tcp | Engine.Rpc -> results.rpc in
  List.assoc v l

let f1 = Table.cell_f ~digits:1

let f2 = Table.cell_f ~digits:2

let i = string_of_int

(* ----- Table 1 ------------------------------------------------------------ *)

let steady_len config =
  (Engine.run (Engine.Spec.default ~stack:Engine.Tcpip ~config))
    .Engine.steady.Perf.length

let table1 () =
  let improved = T.Opts.improved in
  let toggles : (string * (T.Opts.t -> T.Opts.t)) list =
    [ ("Change bytes and shorts to words in TCP state",
       fun o -> { o with T.Opts.word_fields = false });
      ("More efficiently refresh message after processing",
       fun o -> { o with T.Opts.refresh_shortcircuit = false });
      ("Use USC in LANCE to avoid descriptor copying",
       fun o -> { o with T.Opts.usc_lance = false });
      ("Inlined hash-table cache test",
       fun o -> { o with T.Opts.map_cache_inline = false });
      ("Various inlining", fun o -> { o with T.Opts.misc_inlining = false });
      ("Avoid integer division", fun o -> { o with T.Opts.avoid_muldiv = false });
      ("Other minor changes", fun o -> { o with T.Opts.minor = false }) ]
  in
  let base = steady_len (Config.make ~opts:improved Config.Std) in
  let t =
    Table.create ~title:"Table 1: Dynamic Instruction Count Reductions"
      ~headers:[ "Technique"; "paper"; "measured" ]
  in
  let total = ref 0 in
  List.iter2
    (fun (name, flip) (_, paper_delta) ->
      let without = steady_len (Config.make ~opts:(flip improved) Config.Std) in
      let delta = without - base in
      total := !total + delta;
      Table.add_row t [ name; i paper_delta; i delta ])
    toggles Paper.table1;
  Table.add_separator t;
  let paper_total = List.fold_left (fun a (_, d) -> a + d) 0 Paper.table1 in
  Table.add_row t [ "Total"; i paper_total; i !total ];
  t

(* ----- Table 2 ------------------------------------------------------------ *)

let table2 () =
  let measure opts =
    let r =
      Engine.run
        (Engine.Spec.default ~stack:Engine.Tcpip
           ~config:(Config.make ~opts Config.Std))
    in
    ( Util.Stats.mean r.Engine.rtts,
      r.Engine.steady.Perf.length,
      int_of_float r.Engine.steady.Perf.total_cycles,
      r.Engine.steady.Perf.cpi )
  in
  let o_rtt, o_len, o_cyc, o_cpi = measure T.Opts.original in
  let i_rtt, i_len, i_cyc, i_cpi = measure T.Opts.improved in
  let po_rtt, po_len, po_cyc, po_cpi = Paper.table2_original in
  let pi_rtt, pi_len, pi_cyc, pi_cpi = Paper.table2_improved in
  let t =
    Table.create
      ~title:"Table 2: Original vs Improved x-kernel TCP/IP (STD layout)"
      ~headers:
        [ ""; "paper orig"; "ours orig"; "paper impr"; "ours impr" ]
  in
  Table.add_row t
    [ "Roundtrip latency [us]"; f1 po_rtt; f1 o_rtt; f1 pi_rtt; f1 i_rtt ];
  Table.add_row t
    [ "Instructions executed"; i po_len; i o_len; i pi_len; i i_len ];
  Table.add_row t
    [ "Processing time [cycles]"; i po_cyc; i o_cyc; i pi_cyc; i i_cyc ];
  Table.add_row t [ "CPI"; f2 po_cpi; f2 o_cpi; f2 pi_cpi; f2 i_cpi ];
  t

(* ----- Table 3 ------------------------------------------------------------ *)

(* classify each trace pc by the function that owns it *)
let func_of_pc image =
  let spans =
    Layout.Image.slots image
    |> List.map (fun (s : Layout.Image.slot) ->
           let last =
             if Array.length s.Layout.Image.pcs = 0 then s.Layout.Image.addr
             else s.Layout.Image.pcs.(Array.length s.Layout.Image.pcs - 1)
           in
           (s.Layout.Image.addr, last, s.Layout.Image.func))
    |> List.sort compare
  in
  let arr = Array.of_list spans in
  fun pc ->
    let rec search lo hi =
      if lo > hi then None
      else
        let mid = (lo + hi) / 2 in
        let a, b, f = arr.(mid) in
        if pc < a then search lo (mid - 1)
        else if pc > b then search (mid + 1) hi
        else Some f
    in
    search 0 (Array.length arr - 1)

(* instructions from the first event inside [from_] to the first event
   inside [to_] (the paper's "count instructions to complete a task") *)
let segment trace image ~from_ ~to_ =
  let fof = func_of_pc image in
  let n = Trace.length trace in
  let rec find_enter target j =
    if j >= n then None
    else if fof (Trace.get trace j).Trace.pc = Some target then Some j
    else find_enter target (j + 1)
  in
  match find_enter from_ 0 with
  | None -> None
  | Some s -> (
    match find_enter to_ s with
    | None -> None
    | Some e -> Some (e - s))

let in_function trace image ~func =
  let fof = func_of_pc image in
  let count = ref 0 in
  Trace.iter
    (fun e -> if fof e.Trace.pc = Some func then incr count)
    trace;
  !count

let table3 () =
  let r =
    Engine.run
      (Engine.Spec.default ~stack:Engine.Tcpip
         ~config:(Config.make ~opts:T.Opts.improved Config.Std))
  in
  let trace = r.Engine.trace and image = r.Engine.client_image in
  let seg a b =
    match segment trace image ~from_:a ~to_:b with
    | Some n -> i n
    | None -> "-"
  in
  let t =
    Table.create ~title:"Table 3: Comparison of TCP/IP Implementations"
      ~headers:
        [ "Instructions executed...";
          "80386 [CJRS89]";
          "DEC Unix v3.2c";
          "improved x-kernel (ours)" ]
  in
  Table.add_row t
    [ "...in ipintr / ipDemux"; "57"; "248";
      i (in_function trace image ~func:"ip_demux") ];
  Table.add_row t
    [ "...in tcp_input (after PCB lookup)"; "276"; "406";
      i (in_function trace image ~func:"tcp_input") ];
  Table.add_row t
    [ "...between IP input and TCP input"; "-"; "437";
      seg "ip_demux" "tcp_demux" ];
  Table.add_row t
    [ "...between TCP input and socket input"; "-"; "1013";
      seg "tcp_demux" "clientstream_demux" ];
  Table.add_separator t;
  Table.add_row t
    [ "total IP entry -> delivery"; "-"; "1450";
      seg "ip_demux" "clientstream_demux" ];
  t

(* per-function profile of one steady-state roundtrip *)
let profile ~stack ~version () =
  let r = Engine.run (Engine.Spec.default ~stack ~config:(Config.make version)) in
  let trace = r.Engine.trace and image = r.Engine.client_image in
  let fof = func_of_pc image in
  let counts = Hashtbl.create 32 in
  Trace.iter
    (fun e ->
      match fof e.Trace.pc with
      | None -> ()
      | Some f ->
        Hashtbl.replace counts f
          (1 + try Hashtbl.find counts f with Not_found -> 0))
    trace;
  let total = Trace.length trace in
  let rows =
    Hashtbl.fold (fun f n acc -> (f, n) :: acc) counts []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Per-function profile: %s / %s (one roundtrip, %d instructions)"
           (Engine.stack_name stack)
           (Config.version_name version)
           total)
      ~headers:[ "function"; "instructions"; "share" ]
  in
  List.iter
    (fun (f, n) ->
      Table.add_row t
        [ f; i n; Printf.sprintf "%.1f%%" (100.0 *. float_of_int n /. float_of_int total) ])
    rows;
  t

(* dynamic instruction mix of one roundtrip *)
let instruction_mix ~stack ~version () =
  let r = Engine.run (Engine.Spec.default ~stack ~config:(Config.make version)) in
  let total = Trace.length r.Engine.trace in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Instruction mix: %s / %s" (Engine.stack_name stack)
           (Config.version_name version))
      ~headers:[ "class"; "count"; "share" ]
  in
  List.iter
    (fun (cls, n) ->
      Table.add_row t
        [ Machine.Instr.to_string cls; i n;
          Printf.sprintf "%.1f%%" (100.0 *. float_of_int n /. float_of_int total) ])
    (Trace.class_counts r.Engine.trace);
  t

(* ----- Tables 4 and 5 ------------------------------------------------------ *)

let version_rows results f =
  List.iter
    (fun v ->
      let tcp = get results Engine.Tcpip v and rpc = get results Engine.Rpc v in
      f v tcp rpc)
    Paper.version_order

let idx v =
  let rec go k = function
    | [] -> invalid_arg "version index"
    | x :: rest -> if x = v then k else go (k + 1) rest
  in
  go 0 Paper.version_order

let table4 results =
  let t =
    Table.create ~title:"Table 4: End-to-end Roundtrip Latency [us]"
      ~headers:
        [ "Version"; "TCP/IP paper"; "TCP/IP ours"; "d%"; "RPC paper";
          "RPC ours"; "d%" ]
  in
  let all_tcp = (get results Engine.Tcpip Config.All).Engine.rtt.Util.Stats.mean in
  let all_rpc = (get results Engine.Rpc Config.All).Engine.rtt.Util.Stats.mean in
  version_rows results (fun v tcp rpc ->
      let pt, pts = Paper.table4_tcp.(idx v) in
      let pr, prs = Paper.table4_rpc.(idx v) in
      Table.add_row t
        [ Config.version_name v;
          Table.cell_pm pt pts;
          Table.cell_pm tcp.Engine.rtt.Util.Stats.mean
            tcp.Engine.rtt.Util.Stats.stddev;
          Table.cell_pct
            (Util.Stats.percent_slowdown tcp.Engine.rtt.Util.Stats.mean all_tcp);
          Table.cell_pm pr prs;
          Table.cell_pm rpc.Engine.rtt.Util.Stats.mean
            rpc.Engine.rtt.Util.Stats.stddev;
          Table.cell_pct
            (Util.Stats.percent_slowdown rpc.Engine.rtt.Util.Stats.mean all_rpc)
        ]);
  t

(* our measured controller constant: 2 x (controller overhead + wire +
   receive interrupt delay) *)
let our_adjust_us = 2.0 *. (47.0 +. 57.9 +. 2.0 +. 0.3)

let table5 results =
  let t =
    Table.create
      ~title:
        "Table 5: Roundtrip Latency Adjusted for Network Controller [us]"
      ~headers:
        [ "Version"; "TCP/IP paper"; "TCP/IP ours"; "d%"; "RPC paper";
          "RPC ours"; "d%" ]
  in
  let adj x = x -. our_adjust_us in
  let all_tcp =
    adj (get results Engine.Tcpip Config.All).Engine.rtt.Util.Stats.mean
  in
  let all_rpc =
    adj (get results Engine.Rpc Config.All).Engine.rtt.Util.Stats.mean
  in
  version_rows results (fun v tcp rpc ->
      let pt, _ = Paper.table4_tcp.(idx v) in
      let pr, _ = Paper.table4_rpc.(idx v) in
      Table.add_row t
        [ Config.version_name v;
          f1 (pt -. Paper.adjust_us);
          f1 (adj tcp.Engine.rtt.Util.Stats.mean);
          Table.cell_pct
            (Util.Stats.percent_slowdown (adj tcp.Engine.rtt.Util.Stats.mean)
               all_tcp);
          f1 (pr -. Paper.adjust_us);
          f1 (adj rpc.Engine.rtt.Util.Stats.mean);
          Table.cell_pct
            (Util.Stats.percent_slowdown (adj rpc.Engine.rtt.Util.Stats.mean)
               all_rpc) ]);
  t

(* ----- Table 6 ------------------------------------------------------------ *)

let table6 results =
  let t =
    Table.create
      ~title:
        "Table 6: Cache Performance (cold replay; miss/acc/repl; paper -> ours)"
      ~headers:[ "Stack"; "Version"; "i-cache"; "d-cache/wb"; "b-cache" ]
  in
  let render (pm, pa, pr) (row : Memsys.cache_row) =
    Printf.sprintf "%d/%d/%d -> %d/%d/%d" pm pa pr row.Memsys.miss
      row.Memsys.acc row.Memsys.repl
  in
  let stack_rows name stack paper =
    List.iter
      (fun v ->
        let s = (get results stack v).Engine.result.Engine.cold.Perf.stats in
        let p = paper.(idx v) in
        Table.add_row t
          [ name; Config.version_name v;
            render p.(0) s.Memsys.icache;
            render p.(1) s.Memsys.dwb;
            render p.(2) s.Memsys.bcache ])
      Paper.version_order;
    Table.add_separator t
  in
  stack_rows "TCP/IP" Engine.Tcpip Paper.table6_tcp;
  stack_rows "RPC" Engine.Rpc Paper.table6_rpc;
  t

(* ----- Table 7 ------------------------------------------------------------ *)

let table7 results =
  let t =
    Table.create
      ~title:"Table 7: Processing Time and CPI Decomposition (steady state)"
      ~headers:
        [ "Stack"; "Version"; "Tp [us]"; "length (paper)"; "mCPI (paper)";
          "iCPI (paper)" ]
  in
  let stack_rows name stack paper =
    List.iter
      (fun v ->
        let r = (get results stack v).Engine.result.Engine.steady in
        let plen, pm, pi = paper.(idx v) in
        Table.add_row t
          [ name; Config.version_name v;
            f1 r.Perf.time_us;
            Printf.sprintf "%d (%d)" r.Perf.length plen;
            Printf.sprintf "%.2f (%.2f)" r.Perf.mcpi pm;
            Printf.sprintf "%.2f (%.2f)" r.Perf.icpi pi ])
      Paper.version_order;
    Table.add_separator t
  in
  stack_rows "TCP/IP" Engine.Tcpip Paper.table7_tcp;
  stack_rows "RPC" Engine.Rpc Paper.table7_rpc;
  t

(* ----- Table 8 ------------------------------------------------------------ *)

let transitions =
  [ (Config.Bad, Config.Clo, "BAD->CLO");
    (Config.Std, Config.Out, "STD->OUT");
    (Config.Out, Config.Clo, "OUT->CLO");
    (Config.Out, Config.Pin, "OUT->PIN");
    (Config.Pin, Config.All, "PIN->ALL") ]

let table8 results =
  let t =
    Table.create
      ~title:
        "Table 8: Latency Improvement Comparison (client-side deltas)"
      ~headers:
        [ "Change"; "Stack"; "I [%]"; "dTe [us]"; "dTp [us]"; "dNb"; "dNm" ]
  in
  let row stack name (a, b, label) =
    let ra = (get results stack a).Engine.result in
    let rb = (get results stack b).Engine.result in
    let sa = ra.Engine.steady.Perf.stats and sb = rb.Engine.steady.Perf.stats in
    let b_acc r = r.Memsys.bcache.Memsys.acc in
    let dwb_miss r = r.Memsys.dwb.Memsys.miss in
    let b_i r = b_acc r - dwb_miss r in
    let d_nb = b_acc sa - b_acc sb in
    let d_nm = sa.Memsys.bcache.Memsys.miss - sb.Memsys.bcache.Memsys.miss in
    let ipct =
      if d_nb = 0 then 0.0
      else 100.0 *. float_of_int (b_i sa - b_i sb) /. float_of_int d_nb
    in
    let rtt r = (get results stack r).Engine.rtt.Util.Stats.mean in
    (* the paper reports the client-side share: half the end-to-end delta
       for TCP/IP (both sides change), the full delta for RPC (server
       fixed) *)
    let share = match stack with Engine.Tcpip -> 0.5 | Engine.Rpc -> 1.0 in
    let d_te = (rtt a -. rtt b) *. share in
    let d_tp =
      ra.Engine.steady.Perf.time_us -. rb.Engine.steady.Perf.time_us
    in
    Table.add_row t
      [ label; name; f1 ipct; f1 d_te; f1 d_tp; i d_nb; i d_nm ]
  in
  List.iter (row Engine.Tcpip "TCP/IP") transitions;
  Table.add_separator t;
  List.iter (row Engine.Rpc "RPC") transitions;
  t

(* ----- Table 9 ------------------------------------------------------------ *)

let table9 results =
  let t =
    Table.create ~title:"Table 9: Outlining Effectiveness"
      ~headers:
        [ "Stack"; "unused before"; "size before"; "unused after";
          "size after"; "outlined share" ]
  in
  let row name stack (pu0, ps0, pu1, ps1) =
    let std = (get results stack Config.Std).Engine.result in
    let out = (get results stack Config.Out).Engine.result in
    let unused r =
      100.0
      *. Layout.Layout_stats.unused_fraction r.Engine.trace ~block_bytes:32
    in
    let total, hot = std.Engine.static_path in
    Table.add_row t
      [ name;
        Printf.sprintf "%.0f%% (%d%%)" (unused std) pu0;
        Printf.sprintf "%d (%d)" total ps0;
        Printf.sprintf "%.0f%% (%d%%)" (unused out) pu1;
        Printf.sprintf "%d (%d)" hot ps1;
        Printf.sprintf "%d%% (paper 34/28%%)" (100 * (total - hot) / total) ]
  in
  row "TCP/IP" Engine.Tcpip Paper.table9_tcp;
  row "RPC" Engine.Rpc Paper.table9_rpc;
  t

(* ----- Figures ------------------------------------------------------------ *)

let figure1 () =
  Xk.Protocol.render_pair (T.Stack.figure1 ()) (R.Rstack.figure1 ())

let figure2 () =
  let show version title =
    let r =
      Engine.run
        (Engine.Spec.default ~stack:Engine.Tcpip ~config:(Config.make version))
    in
    title ^ "\n"
    ^ Layout.Layout_stats.footprint r.Engine.client_image ~trace:r.Engine.trace
        ~block_bytes:32
  in
  String.concat "\n"
    [ show Config.Std
        "--- STD: no outlining (cold code interleaved, '#'=fetched '.'=never) ---";
      show Config.Out "--- OUT: outlined (cold 'o' moved behind each function) ---";
      show Config.Clo
        "--- CLO: cloned, bipartite layout (clones dense; cold in shared region) ---"
    ]

(* ----- extra experiments --------------------------------------------------- *)

let map_traversal () =
  let t =
    Table.create
      ~title:
        "Hash-table traversal: non-empty-bucket list vs full scan (S2.2.1)"
      ~headers:
        [ "occupancy"; "elements"; "buckets scanned (list)";
          "buckets scanned (full)"; "speedup" ]
  in
  let buckets = 1024 in
  List.iter
    (fun pct ->
      let m = Xk.Map.create ~buckets () in
      let n = buckets * pct / 100 in
      for k = 0 to n - 1 do
        Xk.Map.bind m (Printf.sprintf "key%06d" k) k
      done;
      Xk.Map.reset_counters m;
      Xk.Map.traverse m (fun _ _ -> ());
      let list_scan = (Xk.Map.counters m).Xk.Map.buckets_scanned in
      Xk.Map.reset_counters m;
      Xk.Map.traverse_all_buckets m (fun _ _ -> ());
      let full_scan = (Xk.Map.counters m).Xk.Map.buckets_scanned in
      Table.add_row t
        [ Printf.sprintf "%d%%" pct; i n; i list_scan; i full_scan;
          Printf.sprintf "%.1fx"
            (float_of_int full_scan /. float_of_int (max 1 list_scan)) ])
    [ 1; 5; 10; 25; 50; 100 ];
  t

let micro_positioning () =
  let t =
    Table.create
      ~title:
        "Micro-positioning vs bipartite layout (S3.2, TCP/IP, cloned+outlined)"
      ~headers:
        [ "Layout"; "RTT [us]"; "i-repl (steady)"; "i-miss (steady)";
          "gap bytes" ]
  in
  let run layout label =
    let config = Config.make Config.Clo in
    let r =
      Engine.run (Engine.Spec.make ~layout ~stack:Engine.Tcpip ~config ())
    in
    let img = Engine.layout_for config Engine.Tcpip ~layout () in
    let regions = Layout.Image.regions img in
    let extents =
      List.map (fun (_, a, b) -> (a, b)) regions |> List.sort compare
    in
    let gaps =
      let rec go acc = function
        | (_, e) :: ((s, _) :: _ as rest) -> go (acc + max 0 (s - e)) rest
        | _ -> acc
      in
      go 0 extents
    in
    let s = r.Engine.steady.Perf.stats in
    Table.add_row t
      [ label;
        f1 (Util.Stats.mean r.Engine.rtts);
        i s.Memsys.icache.Memsys.repl;
        i s.Memsys.icache.Memsys.miss;
        i gaps ]
  in
  run Config.Bipartite "bipartite";
  run Config.Micro "micro-positioning";
  t

(* ----- incremental layout sweep ------------------------------------------- *)

let layout_candidates =
  [ Config.Bipartite; Config.Micro; Config.Linear; Config.Link_order;
    Config.Pessimal ]

(* One measurement run executes the same protocol actions under every
   candidate placement of the same units, so a layout sweep does not need a
   full protocol simulation per candidate: the base run's steady-state
   trace is retargeted to each placement by rewriting instruction addresses
   ({!Layout.Image.pc_map} + {!Trace.map_pcs}), the one-time basic-block
   segmentation is re-bound to the new i-cache lines
   ({!Machine.Blockcache.rebind}), and only the i-side mapping is
   re-evaluated ({!Perf.measure}).  [~incremental:false] runs the full
   simulation per candidate instead — the reports are bit-identical,
   several times slower. *)
let layout_sweep_base ?(config = Config.make Config.Clo)
    ?(stack = Engine.Tcpip) () =
  let base_layout = Config.layout_of config.Config.version in
  Engine.run (Engine.Spec.make ~stack ~config ~layout:base_layout ())

let layout_sweep ?(config = Config.make Config.Clo) ?(stack = Engine.Tcpip)
    ?(layouts = layout_candidates) ?base ~incremental () =
  if not incremental then
    List.map
      (fun layout ->
        let r = Engine.run (Engine.Spec.make ~stack ~config ~layout ()) in
        (layout, r.Engine.cold, r.Engine.steady))
      layouts
  else begin
    let base_layout = Config.layout_of config.Config.version in
    let spec = Engine.Spec.make ~stack ~config ~layout:base_layout () in
    let base =
      match base with Some r -> r | None -> Engine.run spec
    in
    let params = spec.Engine.Spec.params in
    let bc = Machine.Blockcache.segment params base.Engine.trace in
    List.map
      (fun layout ->
        if layout = base_layout then
          (layout, base.Engine.cold, base.Engine.steady)
        else begin
          let img = Engine.layout_for config stack ~layout () in
          let trace' =
            Trace.map_pcs
              (Layout.Image.pc_map base.Engine.client_image img)
              base.Engine.trace
          in
          let cold, steady = Perf.measure (Machine.Blockcache.rebind bc trace') in
          (layout, cold, steady)
        end)
      layouts
  end

let layout_sweep_table ?(incremental = true) () =
  let rows = layout_sweep ~incremental () in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Layout sweep (TCP/IP, cloned+outlined; %s: one run, per-layout \
            pc rewrite + block-cache replay)"
           (if incremental then "incremental" else "full simulation"))
      ~headers:
        [ "Layout"; "steady [us]"; "steady mCPI"; "i-miss"; "i-repl";
          "cold [us]" ]
  in
  List.iter
    (fun (layout, cold, steady) ->
      let s = steady.Perf.stats in
      Table.add_row t
        [ Config.layout_name layout;
          f1 steady.Perf.time_us;
          Table.cell_f ~digits:2 steady.Perf.mcpi;
          i s.Memsys.icache.Memsys.miss;
          i s.Memsys.icache.Memsys.repl;
          f1 cold.Perf.time_us ])
    rows;
  t

let layout_search ?(budget = 240) ?(seeds = 1) ?(geometries = [ 8 ])
    ?(jobs = 1) () =
  Layoutsearch.table (Layoutsearch.run ~budget ~seeds ~geometries ~jobs ())

let throughput () =
  let t =
    Table.create
      ~title:
        "Throughput and CPU utilization (S4.1/S2.2.5): 64KB bulk transfer"
      ~headers:
        [ "Version"; "Mb/s"; "client CPU %"; "server CPU %"; "segments" ]
  in
  List.iter
    (fun v ->
      let r = Engine.throughput ~config:(Config.make v) () in
      Table.add_row t
        [ Config.version_name v;
          f2 r.Engine.mbits_per_s;
          f1 r.Engine.client_cpu_pct;
          f1 r.Engine.server_cpu_pct;
          i r.Engine.segments ])
    Paper.version_order;
  Table.add_separator t;
  List.iter
    (fun (name, opts) ->
      let r = Engine.throughput ~config:(Config.make ~opts Config.Std) () in
      Table.add_row t
        [ name; f2 r.Engine.mbits_per_s; f1 r.Engine.client_cpu_pct;
          f1 r.Engine.server_cpu_pct; i r.Engine.segments ])
    [ ("STD original opts", T.Opts.original);
      ("STD improved opts", T.Opts.improved) ];
  t

let dec_unix_mcpi () =
  let t =
    Table.create ~title:"S5: production-style stack vs optimal configuration"
      ~headers:[ "System"; "mCPI paper"; "mCPI ours" ]
  in
  let original =
    Engine.run
      (Engine.Spec.default ~stack:Engine.Tcpip
         ~config:
           (Config.make
              ~opts:{ T.Opts.original with T.Opts.header_prediction = true }
              Config.Std))
  in
  let best =
    Engine.run
      (Engine.Spec.default ~stack:Engine.Tcpip ~config:(Config.make Config.All))
  in
  Table.add_row t
    [ "DEC Unix style (original opts, uncontrolled layout)";
      f2 Paper.dec_unix_mcpi; f2 original.Engine.steady.Perf.mcpi ];
  Table.add_row t
    [ "optimally configured (ALL)"; f2 Paper.optimal_mcpi;
      f2 best.Engine.steady.Perf.mcpi ];
  t

let fault_injection () =
  let t =
    Table.create
      ~title:
        "Fault injection: latency and cold-path coverage under seeded faults"
      ~headers:
        [ "Stack"; "Schedule"; "RTT [us]"; "Rexmt"; "Cold blocks hit" ]
  in
  let tracked = Soak.tracked_cold_blocks in
  let schedule name =
    (List.find (fun s -> s.Soak.sname = name) Soak.schedules).Soak.sspec
  in
  let row stack sname =
    let cover = Soak.Cover.create () in
    let r =
      Engine.run
        (Engine.Spec.make ~seed:42 ~fault:(schedule sname)
           ~extra_meter:(Soak.Cover.meter cover) ~stack
           ~config:(Config.make Config.All) ())
    in
    let hit =
      List.length
        (List.filter
           (fun (func, block) -> Soak.Cover.triggered cover ~func ~block > 0)
           tracked)
    in
    Table.add_row t
      [ Engine.stack_name stack;
        sname;
        f1 (Util.Stats.mean r.Engine.rtts);
        i r.Engine.retransmissions;
        Printf.sprintf "%d/%d" hit (List.length tracked) ]
  in
  List.iter (row Engine.Tcpip)
    [ "clean"; "loss"; "burst"; "corrupt"; "dup"; "reorder" ];
  Table.add_separator t;
  List.iter (row Engine.Rpc) [ "clean"; "loss" ];
  t

(* degradation curve under host-lifecycle chaos: goodput and latency of
   the at-most-once workload as the fault-incident count per 200 ms
   horizon grows.  Cells come from [Chaos.run_matrix], so the table is
   bit-identical at any [jobs]. *)
let chaos_degradation ?(intensities = [ 0; 1; 2; 4; 8 ]) ?(seeds = 2)
    ?(jobs = 1) () =
  let cells = Chaos.run_matrix ~intensities ~seeds ~jobs ~seed:42 () in
  let t =
    Table.create
      ~title:
        "Chaos degradation: at-most-once TCP workload vs host-fault \
         intensity (mean over seeds)"
      ~headers:
        [ "Intensity"; "Done"; "Reconn"; "Crashes"; "Partitions";
          "Goodput [req/s]"; "p50 [us]"; "p99 [us]"; "Violations" ]
  in
  List.iter
    (fun intensity ->
      let cs =
        List.filter (fun (c : Chaos.cell) -> c.Chaos.intensity = intensity)
          cells
      in
      let n = float_of_int (List.length cs) in
      let avg f =
        List.fold_left
          (fun acc (c : Chaos.cell) -> acc +. f c.Chaos.c_outcome)
          0.0 cs
        /. n
      in
      let sum f =
        List.fold_left
          (fun acc (c : Chaos.cell) -> acc + f c.Chaos.c_outcome)
          0 cs
      in
      let viols =
        List.concat_map
          (fun (c : Chaos.cell) -> Chaos.failure_names c.Chaos.c_outcome)
          cs
      in
      Table.add_row t
        [ i intensity;
          Printf.sprintf "%d/%d"
            (sum (fun o -> o.Chaos.completed))
            (sum (fun o -> o.Chaos.total));
          i (sum (fun o -> o.Chaos.reconnects));
          i (sum (fun o -> o.Chaos.o_crashes));
          i (sum (fun o -> o.Chaos.o_partitions));
          f1 (avg (fun o -> o.Chaos.goodput_rps));
          f1 (avg (fun o -> o.Chaos.lat.Util.Stats.p50));
          f1 (avg (fun o -> o.Chaos.lat.Util.Stats.p99));
          (match List.sort_uniq compare viols with
          | [] -> "none"
          | vs -> String.concat "," vs) ])
    intensities;
  t

let mflow_scaling ?(flow_counts = [ 1; 8; 64; 256 ]) ?(seeds = 4) ?(jobs = 1)
    () =
  let spec =
    Engine.Spec.default ~stack:Engine.Tcpip ~config:(Config.make Config.All)
  in
  let r = Mflow.sweep ~flow_counts ~seeds ~jobs spec in
  let t =
    Table.create
      ~title:
        "Multi-flow scaling: latency and demux-map behaviour (TCP, ALL)"
      ~headers:
        [ "Flows"; "p50 [us]"; "p90 [us]"; "p99 [us]"; "p99.9 [us]";
          "max [us]"; "Hit rate"; "Cmp/res"; "Timer HW"; "Conns" ]
  in
  List.iter
    (fun flows ->
      let cells =
        List.filter (fun (c : Mflow.cell) -> c.Mflow.flows = flows)
          r.Mflow.cells
      in
      let n = float_of_int (List.length cells) in
      let avg f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells /. n in
      Table.add_row t
        [ i flows;
          f1 (avg (fun c -> c.Mflow.lat.Util.Stats.Hist.p50));
          f1 (avg (fun c -> c.Mflow.lat.Util.Stats.Hist.p90));
          f1 (avg (fun c -> c.Mflow.lat.Util.Stats.Hist.p99));
          f1 (avg (fun c -> c.Mflow.lat.Util.Stats.Hist.p999));
          f1 (avg (fun c -> c.Mflow.lat.Util.Stats.Hist.max));
          f2 (avg (fun c -> Mflow.hit_rate c.Mflow.server_map));
          f2 (avg (fun c -> Mflow.compares_per_resolve c.Mflow.server_map));
          i
            (List.fold_left
               (fun acc (c : Mflow.cell) -> max acc c.Mflow.timer_high_water)
               0 cells);
          i
            (List.fold_left
               (fun acc (c : Mflow.cell) -> acc + c.Mflow.conns)
               0 cells
            / List.length cells) ])
    r.Mflow.flow_counts;
  t

let incast_latency ?(fan_ins = [ 2; 4; 8; 16; 32; 64 ]) ?(seeds = 1)
    ?(jobs = 1) () =
  let r = Incast.sweep ~fan_ins ~seeds ~jobs ~seed:42 () in
  let t =
    Table.create
      ~title:
        "Incast: completion latency vs fan-in over the switched star \
         fabric (TCP, mean over seeds)"
      ~headers:
        [ "Fan-in"; "Done"; "p50 [us]"; "p90 [us]"; "p99 [us]";
          "p99.9 [us]"; "max [us]"; "Rexmt"; "Q drops"; "Q peak" ]
  in
  List.iter
    (fun fan_in ->
      let cells =
        List.filter (fun (c : Incast.cell) -> c.Incast.fan_in = fan_in)
          r.Incast.cells
      in
      let n = float_of_int (List.length cells) in
      let avg f = List.fold_left (fun acc c -> acc +. f c) 0.0 cells /. n in
      let sum f =
        List.fold_left (fun acc (c : Incast.cell) -> acc + f c) 0 cells
      in
      Table.add_row t
        [ i fan_in;
          Printf.sprintf "%d/%d"
            (sum (fun c -> c.Incast.completed))
            (sum (fun c -> c.Incast.total));
          f1 (avg (fun c -> c.Incast.lat.Util.Stats.Hist.p50));
          f1 (avg (fun c -> c.Incast.lat.Util.Stats.Hist.p90));
          f1 (avg (fun c -> c.Incast.lat.Util.Stats.Hist.p99));
          f1 (avg (fun c -> c.Incast.lat.Util.Stats.Hist.p999));
          f1 (avg (fun c -> c.Incast.lat.Util.Stats.Hist.max));
          i (sum (fun c -> c.Incast.retransmits));
          i (sum (fun c -> c.Incast.queue_drops));
          i
            (List.fold_left
               (fun acc (c : Incast.cell) -> max acc c.Incast.queue_peak)
               0 cells) ])
    r.Incast.fan_ins;
  t
