(* One workload instance per process.  [run.py] starts this program once per
   iteration (each with a fresh simulation-cache store), once per knob leg
   of a traced run, and once per [--jobs] leg of the Dpool efficiency
   measurement; it prints one JSON object on its last stdout line.

   Usage:
     bench.exe --workload paper_sweep|layout_search|trace_replay
               [--seed N] [--size full|tiny] [--jobs N] [--traced]
               [--check-full-run] [--dpool]

   The benchmark reaches the library only through its stable surface
   (Experiments.full_run/get, Engine.run/layout_for/client_units,
   Layoutsearch.run/digest/check and the cell fields,
   Strategy, Image.pc_map, Trace, Blockcache.segment/rebind,
   Attrib.profile, Perf.cold/steady).  The replay memo layers are switched
   only through their PROTOLAT_* environment knobs, so deleting one of
   them never requires editing this file. *)

module P = Protolat
module Engine = P.Engine
module Config = P.Config
module Experiments = P.Experiments
module Ls = P.Layoutsearch
module Paper = P.Paper
module M = Protolat_machine
module Perf = M.Perf
module Params = M.Params
module Trace = M.Trace
module Blockcache = M.Blockcache
module Memsys = M.Memsys
module Strategy = Protolat_layout.Strategy
module Image = Protolat_layout.Image
module Attrib = Protolat_obs.Attrib

(* The seed at which every Engine.Spec seed equals the
   Experiments.full_run / Engine.sample_seed grid, and for which
   expected.json records the digests. *)
let default_seed = 1

let workload = ref ""
let seed = ref default_seed
let size = ref "full"
let jobs = ref 1
let traced = ref false
let check_full_run = ref false
let dpool = ref false

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--size", Arg.Symbol ([ "full"; "tiny" ], ( := ) size), " input size");
      ("--jobs", Arg.Set_int jobs, " Dpool domains");
      ("--traced", Arg.Set traced, " time every layer call");
      ("--check-full-run", Arg.Set check_full_run,
       " compare the sweep with Experiments.full_run (default seed only)");
      ("--dpool", Arg.Set dpool, " time the library's parallel entry point") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [options]"

let tiny = !size = "tiny"

(* Spec seeds: [Engine.sample_seed i] at the default seed, shifted by a
   non-negative multiple of a prime otherwise. *)
let spec_seed i =
  let m = 1_000_003 in
  Engine.sample_seed i + ((((!seed - default_seed) mod m) + m) mod m * 131)

(* ----- JSON output ---------------------------------------------------------- *)

type j =
  | F of float
  | I of int
  | S of string
  | Null
  | O of (string * j) list
  | L of j list

let rec emit b = function
  | F f when Float.is_finite f -> Printf.bprintf b "%.17g" f
  | F _ | Null -> Buffer.add_string b "null"
  | I i -> Buffer.add_string b (string_of_int i)
  | S s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | O kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        emit b (S k);
        Buffer.add_char b ':';
        emit b v)
      kvs;
    Buffer.add_char b '}'
  | L vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        emit b v)
      vs;
    Buffer.add_char b ']'

(* ----- timing and per-layer spans ------------------------------------------- *)

let now = Unix.gettimeofday

type span = {
  mutable s : float;
  mutable n : int;
  mutable words : float;
  mutable work : int;  (** simulated instructions replayed, for Perf spans *)
}

let spans : (string, span) Hashtbl.t = Hashtbl.create 16

(* [layer name f] runs [f]; in a traced run it also adds the call's wall
   time, minor-heap words and [work] of its result to the layer's span. *)
let layer ?(work = fun _ -> 0) name f =
  if not !traced then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    let sp =
      match Hashtbl.find_opt spans name with
      | Some sp -> sp
      | None ->
        let sp = { s = 0.0; n = 0; words = 0.0; work = 0 } in
        Hashtbl.add spans name sp;
        sp
    in
    sp.s <- sp.s +. dt;
    sp.n <- sp.n + 1;
    sp.words <- sp.words +. dw;
    sp.work <- sp.work + work r;
    r
  end

let peak_rss_kb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
      | _ -> go ()
    in
    let v = try go () with End_of_file -> 0 in
    close_in ic;
    v
  with Sys_error _ -> 0

(* ----- checked groups ------------------------------------------------------- *)

(* A group is the unit the output check names: [ops] operations whose
   simulated output digests to [digest], or that raised / violated an
   invariant ([error]).  Groups with [ops = 0] are aggregate checks. *)
type group = { name : string; ops : int; digest : string; error : string option }

let groups : group list ref = ref []
let add_group name ~ops ~digest ?error () =
  groups := { name; ops; digest; error } :: !groups

let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let row (r : Memsys.cache_row) =
  Printf.sprintf "%d/%d/%d" r.Memsys.miss r.Memsys.acc r.Memsys.repl

(* Every Table 6 / Table 7 field of a replay report, printed exactly. *)
let report_key (r : Perf.report) =
  let st = r.Perf.stats in
  Printf.sprintf "%d|%s|%s|%s|%h|%h|%h|%h|%h|%h|%h|%h" r.Perf.length
    (row st.Memsys.icache) (row st.Memsys.dwb) (row st.Memsys.bcache)
    st.Memsys.stall_cycles r.Perf.issue_cycles r.Perf.instr_cycles
    r.Perf.total_cycles r.Perf.icpi r.Perf.mcpi r.Perf.cpi r.Perf.time_us

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Same arithmetic as the summaries Experiments.full_run reports. *)
let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let n = float_of_int (List.length xs) in
    sqrt (List.fold_left (fun a x -> a +. ((x -. m) ** 2.0)) 0.0 xs /. (n -. 1.0))

let run_error (r : Engine.run_result) =
  match r.Engine.invariants with
  | [] -> None
  | v :: _ -> Some ("invariant: " ^ v)

let run_key (r : Engine.run_result) =
  Printf.sprintf "%h|%d|%s|%s" (mean r.Engine.rtts) r.Engine.retransmissions
    (report_key r.Engine.cold) (report_key r.Engine.steady)

let version_index v =
  let rec go i = function
    | [] -> invalid_arg "version_index"
    | v' :: rest -> if v' = v then i else go (i + 1) rest
  in
  go 0 Config.all_versions

let published stack v =
  let tbl =
    match stack with Engine.Tcpip -> Paper.table4_tcp | Engine.Rpc -> Paper.table4_rpc
  in
  fst tbl.(version_index v)

(* mean |simulated - published| / published over (stack, version, mean RTT) *)
let rtt_err_pct entries =
  100.0
  *. mean
       (List.map
          (fun (stack, v, us) ->
            let p = published stack v in
            Float.abs (us -. p) /. p)
          entries)

let stacks = [ Engine.Tcpip; Engine.Rpc ]
let sname = function Engine.Tcpip -> "tcpip" | Engine.Rpc -> "rpc"
let vname = Config.version_name

let protect f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* Re-time each Engine run's offline replay (Perf.cold + Perf.steady of its
   trace at the default geometry), which Engine.run performs internally:
   engine.protocol_s is engine.run_s minus this. *)
let cold name p tr = layer name ~work:(fun r -> r.Perf.length) (fun () -> Perf.cold p tr)

(* the default 3 warmup replays plus the measured one *)
let steady name p tr =
  layer name ~work:(fun r -> 4 * r.Perf.length) (fun () -> Perf.steady p tr)

let retime_replays traces =
  List.iter
    (fun tr ->
      ignore (cold "engine_replay" Params.default tr);
      ignore (steady "engine_replay" Params.default tr))
    traces

(* ----- workload results ----------------------------------------------------- *)

type result = {
  wall_s : float;
  setup_s : float;
  ops : int;
  ops_time_s : float;
  alloc_words : float;
  rss_kb : int;
  rtt_err : float;
  thrash_s : float;
  roomy_s : float;
}

(* ----- paper_sweep ---------------------------------------------------------- *)

let sweep_samples stack =
  if tiny then 1 else match stack with Engine.Tcpip -> 10 | Engine.Rpc -> 5

let paper_sweep () =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  List.iter
    (fun stack ->
      List.iter
        (fun v ->
          ignore
            (layer "image" (fun () -> Engine.layout_for (Config.make v) stack ())))
        Paper.version_order)
    stacks;
  let t_setup = now () in
  let runs =
    List.concat_map
      (fun stack ->
        List.concat_map
          (fun v ->
            List.init (sweep_samples stack) (fun i ->
                let spec =
                  Engine.Spec.make ~seed:(spec_seed i) ~rounds:24 ~stack
                    ~config:(Config.make v) ()
                in
                (stack, v, i, protect (fun () -> layer "engine" (fun () -> Engine.run spec)))))
          Paper.version_order)
      stacks
  in
  let t_end = now () in
  let words = Gc.minor_words () -. w0 in
  let rss = peak_rss_kb () in
  let means = Hashtbl.create 16 in
  List.iter
    (fun (stack, v, i, r) ->
      let name = Printf.sprintf "paper_sweep/%s/%s/s%d" (sname stack) (vname v) i in
      match r with
      | Ok r ->
        Hashtbl.replace means (stack, v)
          (mean r.Engine.rtts :: Option.value ~default:[] (Hashtbl.find_opt means (stack, v)));
        add_group name ~ops:1 ~digest:(hex (run_key r)) ?error:(run_error r) ()
      | Error e -> add_group name ~ops:1 ~digest:"" ~error:e ())
    runs;
  let summary stack v =
    let xs = List.rev (Option.value ~default:[] (Hashtbl.find_opt means (stack, v))) in
    if xs = [] then None else Some (mean xs, stddev xs)
  in
  let err = ref [] in
  List.iter
    (fun stack ->
      List.iter
        (fun v ->
          match summary stack v with
          | Some (m, sd) ->
            err := (stack, v, m) :: !err;
            add_group
              (Printf.sprintf "paper_sweep/%s/%s/summary" (sname stack) (vname v))
              ~ops:0 ~digest:(Printf.sprintf "%h+-%h" m sd) ()
          | None -> ())
        Paper.version_order)
    stacks;
  if !traced then
    retime_replays
      (List.filter_map
         (fun (_, _, _, r) -> match r with Ok r -> Some r.Engine.trace | Error _ -> None)
         runs);
  (* Once per run at the default seed: the derived spec seeds must
     reproduce Experiments.full_run's grid exactly. *)
  if !check_full_run && !seed = default_seed && not tiny then begin
    let fr = Experiments.full_run ~jobs:1 () in
    List.iter
      (fun stack ->
        List.iter
          (fun v ->
            let s = (Experiments.get fr stack v).Engine.rtt in
            let ours = summary stack v in
            let error =
              if ours = Some (s.Protolat_util.Stats.mean, s.Protolat_util.Stats.stddev)
              then None
              else Some "differs from Experiments.full_run"
            in
            add_group
              (Printf.sprintf "paper_sweep/%s/%s/full_run" (sname stack) (vname v))
              ~ops:0 ~digest:"" ?error ())
          Paper.version_order)
      stacks
  end;
  let ops = List.length runs in
  { wall_s = t_end -. t0; setup_s = t_setup -. t0; ops;
    ops_time_s = t_end -. t_setup; alloc_words = words; rss_kb = rss;
    rtt_err = (if !err = [] then nan else rtt_err_pct !err);
    thrash_s = 0.0; roomy_s = 0.0 }

(* ----- trace_replay --------------------------------------------------------- *)

(* From thrashing (1 KB) to roomy (32 KB) on both the i- and d-side. *)
let icache_kbs = if tiny then [ 1; 32 ] else [ 1; 2; 4; 8; 16; 32 ]
let dcache_kbs = icache_kbs

let trace_replay () =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let captures =
    List.concat_map
      (fun stack ->
        List.map
          (fun v ->
            let spec =
              Engine.Spec.make ~seed:(spec_seed 0) ~stack ~config:(Config.make v) ()
            in
            (stack, v, protect (fun () -> layer "engine" (fun () -> Engine.run spec))))
          Paper.version_order)
      stacks
  in
  let t_setup = now () in
  let thrash = ref 0.0 and roomy = ref 0.0 and ops = ref 0 in
  let replays = ref [] in
  List.iter
    (fun (stack, v, cap) ->
      let tag = Printf.sprintf "%s/%s" (sname stack) (vname v) in
      List.iter
        (fun ikb ->
          List.iter
            (fun dkb ->
              incr ops;
              let name = Printf.sprintf "trace_replay/%s/i%dd%d" tag ikb dkb in
              match cap with
              | Error _ -> replays := (name, Error "capture failed") :: !replays
              | Ok (r : Engine.run_result) ->
                let p =
                  { Params.default with
                    Params.icache_bytes = ikb * 1024; dcache_bytes = dkb * 1024 }
                in
                let ta = now () in
                let out =
                  protect (fun () ->
                      let c = cold "perf" p r.Engine.trace in
                      let s = steady "perf" p r.Engine.trace in
                      report_key c ^ "|" ^ report_key s)
                in
                let dt = now () -. ta in
                if ikb <= 2 then thrash := !thrash +. dt;
                if ikb = 32 then roomy := !roomy +. dt;
                replays := (name, out) :: !replays)
            dcache_kbs)
        icache_kbs)
    captures;
  let t_end = now () in
  let words = Gc.minor_words () -. w0 in
  let rss = peak_rss_kb () in
  List.iter
    (fun (name, out) ->
      match out with
      | Ok k -> add_group name ~ops:1 ~digest:(hex k) ()
      | Error e -> add_group name ~ops:1 ~digest:"" ~error:e ())
    (List.rev !replays);
  let err = ref [] in
  List.iter
    (fun (stack, v, cap) ->
      let name = Printf.sprintf "trace_replay/capture/%s/%s" (sname stack) (vname v) in
      match cap with
      | Ok r ->
        err := (stack, v, mean r.Engine.rtts) :: !err;
        add_group name ~ops:0 ~digest:(hex (run_key r)) ?error:(run_error r) ()
      | Error e -> add_group name ~ops:0 ~digest:"" ~error:e ())
    captures;
  if !traced then
    retime_replays
      (List.filter_map
         (fun (_, _, c) -> match c with Ok r -> Some r.Engine.trace | Error _ -> None)
         captures);
  { wall_s = t_end -. t0; setup_s = t_setup -. t0; ops = !ops;
    ops_time_s = t_end -. t_setup; alloc_words = words; rss_kb = rss;
    rtt_err = (if !err = [] then nan else rtt_err_pct !err);
    thrash_s = !thrash; roomy_s = !roomy }

(* ----- layout_search -------------------------------------------------------- *)

(* Layoutsearch.run takes no seed: every run of this workload searches the
   same cells with the same internal RNG seeds, whatever --seed says. *)
let search_args () =
  if tiny then (48, 1, [ 8 ]) else (600, 2, Ls.geometries)

(* The constants Layoutsearch places named layouts with. *)
let code_base = 0x10000
let icache_ref = 8192
let block_bytes = 32

(* Re-time the search's setup pieces and scorer steps from the outside:
   per stack the base run, per cell the named placements the search seeds
   from (micro_position apart), the segmentation and the conflict profile;
   then the scorer's pc_map / remap / rebind on the named layouts' images
   (all but micro, whose image would re-run micro_position).  Images are
   memoized by the engine, so their builds are not re-timed here. *)
let retime_search_setup geometries =
  List.iter
    (fun stack ->
      let config = Config.make Config.Clo in
      let base =
        layer "engine" (fun () ->
            Engine.run
              (Engine.Spec.make ~stack ~config
                 ~layout:(Config.layout_of config.Config.version) ()))
      in
      retime_replays [ base.Engine.trace ];
      let units, order = Engine.client_units config stack in
      let cells = List.length geometries in
      let per_cell name f =
        (* each cell places again: charge one timed call per cell *)
        for _ = 1 to cells do ignore (layer name f) done
      in
      per_cell ("strategy.micro." ^ sname stack) (fun () ->
          Strategy.micro_position ~base:code_base ~icache_bytes:icache_ref
            ~block_bytes ~ref_seq:order units);
      per_cell "strategy.named" (fun () ->
          let sorted =
            List.sort (fun a b -> compare (Image.unit_name a) (Image.unit_name b)) units
          in
          ignore (Strategy.link_order ~base:code_base sorted);
          ignore (Strategy.bipartite ~base:code_base ~icache_bytes:icache_ref ~order units);
          Strategy.invocation_order ~base:code_base ~order units);
      let trace = base.Engine.trace in
      List.iter
        (fun kb ->
          let p = { Params.default with Params.icache_bytes = kb * 1024 } in
          ignore (layer "blockcache.segment" (fun () -> Blockcache.segment p trace));
          ignore
            (layer "attrib" (fun () -> Attrib.profile p base.Engine.client_image trace)))
        geometries;
      let bc0 = Blockcache.segment Params.default trace in
      List.iter
        (fun layout ->
          let img = Engine.layout_for config stack ~layout () in
          (* per-candidate steps, repeated for a measurable span *)
          for _ = 1 to 20 do
            let pcs =
              layer "image.pc_map" (fun () ->
                  let f = Image.pc_map base.Engine.client_image img in
                  Array.init (Trace.length trace) (fun i -> f (Trace.pc_at trace i)))
            in
            let tr' = layer "trace.remap" (fun () -> Trace.remap_pcs trace pcs) in
            ignore (layer "blockcache.rebind" (fun () -> Blockcache.rebind bc0 tr'))
          done)
        [ Config.Bipartite; Config.Linear; Config.Link_order; Config.Pessimal ])
    stacks

let layout_search () =
  let budget, seeds, geometries = search_args () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let t = protect (fun () -> Ls.run ~budget ~seeds ~geometries ~jobs:!jobs ()) in
  let t_end = now () in
  let words = Gc.minor_words () -. w0 in
  let rss = peak_rss_kb () in
  let wall = t_end -. t0 in
  match t with
  | Error e ->
    add_group "layout_search" ~ops:(budget * List.length geometries * 2) ~digest:""
      ~error:e ();
    { wall_s = wall; setup_s = wall; ops = budget * List.length geometries * 2;
      ops_time_s = 0.0; alloc_words = words; rss_kb = rss; rtt_err = nan;
      thrash_s = 0.0; roomy_s = 0.0 }
  | Ok t ->
    let eval_s = List.fold_left (fun a (c : Ls.cell) -> a +. c.Ls.eval_s) 0.0 t.Ls.cells in
    let evals = List.fold_left (fun a (c : Ls.cell) -> a + c.Ls.evals) 0 t.Ls.cells in
    List.iter
      (fun (c : Ls.cell) ->
        let one = { t with Ls.cells = [ c ] } in
        let error =
          match protect (fun () -> Ls.check one) with
          | Ok (Ok ()) -> None
          | Ok (Error e) | Error e -> Some ("check: " ^ e)
        in
        add_group
          (Printf.sprintf "layout_search/%s/%dkb" (sname c.Ls.stack) c.Ls.icache_kb)
          ~ops:c.Ls.evals ~digest:(Ls.digest one) ?error ())
      t.Ls.cells;
    add_group "layout_search/all" ~ops:0 ~digest:(Ls.digest t) ();
    (* the simulated model accuracy of the CLO base runs the search starts
       from, re-run here because Layoutsearch.run does not return them *)
    let base_rtts =
      List.map
        (fun stack ->
          let r = Engine.run (Engine.Spec.make ~stack ~config:(Config.make Config.Clo) ()) in
          (stack, Config.Clo, mean r.Engine.rtts))
        stacks
    in
    if !traced then retime_search_setup geometries;
    { wall_s = wall; setup_s = wall -. eval_s; ops = evals; ops_time_s = eval_s;
      alloc_words = words; rss_kb = rss; rtt_err = rtt_err_pct base_rtts;
      thrash_s = 0.0; roomy_s = 0.0 }

(* ----- Dpool leg ------------------------------------------------------------ *)

(* Wall time of the library's own parallel entry point at [--jobs]. *)
let dpool_wall () =
  let t0 = now () in
  (match !workload with
  | "paper_sweep" ->
    if tiny then ignore (Experiments.full_run ~samples_tcp:1 ~samples_rpc:1 ~jobs:!jobs ())
    else ignore (Experiments.full_run ~jobs:!jobs ())
  | "layout_search" ->
    let budget, seeds, geometries = search_args () in
    ignore (Ls.run ~budget ~seeds ~geometries ~jobs:!jobs ())
  | w -> failwith ("no parallel entry point for " ^ w));
  now () -. t0

(* ----- main ----------------------------------------------------------------- *)

let () =
  let head =
    [ ("workload", S !workload); ("seed", I !seed); ("size", S !size);
      ("jobs", I !jobs); ("ocaml", S Sys.ocaml_version) ]
  in
  let body =
    if !dpool then [ ("dpool_wall_s", F (dpool_wall ())) ]
    else begin
      let r =
        match !workload with
        | "paper_sweep" -> paper_sweep ()
        | "trace_replay" -> trace_replay ()
        | "layout_search" -> layout_search ()
        | w ->
          prerr_endline ("bench.exe: unknown workload " ^ w);
          exit 2
      in
      let groups =
        List.rev_map
          (fun g ->
            O
              [ ("name", S g.name); ("ops", I g.ops); ("digest", S g.digest);
                ("error", match g.error with Some e -> S e | None -> Null) ])
          !groups
      in
      let spans =
        Hashtbl.fold
          (fun k sp acc ->
            ( k,
              O
                [ ("s", F sp.s); ("n", I sp.n); ("mwords", F (sp.words /. 1e6));
                  ("work", I sp.work) ] )
            :: acc)
          spans []
        |> List.sort compare
      in
      [ ("wall_s", F r.wall_s); ("setup_s", F r.setup_s); ("ops", I r.ops);
        ("ops_time_s", F r.ops_time_s); ("alloc_words", F r.alloc_words);
        ("peak_rss_kb", I r.rss_kb); ("rtt_err_pct", F r.rtt_err);
        ("thrash_s", F r.thrash_s); ("roomy_s", F r.roomy_s);
        ("groups", L groups); ("spans", O spans) ]
    end
  in
  let b = Buffer.create 65536 in
  emit b (O (head @ body));
  print_endline (Buffer.contents b)
