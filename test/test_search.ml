(* Automated layout search: determinism across job counts, the
   scorer-vs-full-simulation bit-identity contract, named-layout seeding,
   and a pinned quick-config best-score regression. *)

module P = Protolat
module LS = P.Layoutsearch

(* one shared pinned-config run (the @search-quick configuration at a
   slightly smaller budget), reused across the tests below *)
let pinned ~jobs =
  LS.run ~budget:160 ~seeds:1 ~geometries:[ 8 ]
    ~stacks:[ P.Engine.Tcpip; P.Engine.Rpc ] ~jobs ()

let t1 = lazy (pinned ~jobs:1)

let test_jobs_bit_identity () =
  let a = Lazy.force t1 in
  let b = pinned ~jobs:4 in
  Alcotest.(check string)
    "digest at --jobs 1 = digest at --jobs 4" (LS.digest a) (LS.digest b);
  List.iter2
    (fun (ca : LS.cell) (cb : LS.cell) ->
      Alcotest.(check (list string))
        "identical best unit order" ca.LS.best_order cb.LS.best_order;
      Alcotest.(check bool)
        "identical best steady time" true (ca.LS.best_us = cb.LS.best_us))
    a.LS.cells b.LS.cells

let test_check_bit_identity () =
  (* [check] decodes each best genome, rebuilds the image, and re-measures
     through the full simulation path (fresh segmentation, canonical
     warmup) — the scorer's fast path must agree bit for bit *)
  match LS.check (Lazy.force t1) with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("check: " ^ m)

let test_named_seeding () =
  let expect =
    [ P.Config.Bipartite; P.Config.Micro; P.Config.Linear;
      P.Config.Link_order ]
  in
  List.iter
    (fun (c : LS.cell) ->
      List.iter
        (fun l ->
          Alcotest.(check bool)
            (P.Config.layout_name l ^ " genome-representable and seeded")
            true
            (List.mem l c.LS.seeded))
        expect;
      (* seeding makes this structural, not lucky *)
      let _, named_us = LS.best_named c in
      Alcotest.(check bool)
        "best found <= best hand-picked named layout" true
        (c.LS.best_us <= named_us))
    (Lazy.force t1).LS.cells

let test_pinned_best_scores () =
  (* the whole pipeline is deterministic, so the quick-config result is a
     constant of the repo; an unintended change to the scorer, the move
     generator, the RNG, or the seeding shows up here as a score shift *)
  List.iter
    (fun ((c : LS.cell), want_best, want_greedy) ->
      Alcotest.(check string)
        (P.Engine.stack_name c.LS.stack ^ " pinned best steady us")
        want_best
        (Printf.sprintf "%.6f" c.LS.best_us);
      Alcotest.(check string)
        (P.Engine.stack_name c.LS.stack ^ " pinned greedy steady us")
        want_greedy
        (Printf.sprintf "%.6f" c.LS.greedy_us))
    (match (Lazy.force t1).LS.cells with
    | [ tcp; rpc ] ->
      [ (tcp, "68.428571", "68.714286"); (rpc, "59.293714", "59.293714") ]
    | _ -> Alcotest.fail "expected exactly two cells")

let test_trajectory_monotone () =
  List.iter
    (fun (c : LS.cell) ->
      let rec go last = function
        | [] -> ()
        | (p : LS.point) :: rest ->
          Alcotest.(check bool) "trajectory strictly improves" true
            (p.LS.us < last);
          Alcotest.(check bool) "trajectory eval within budget" true
            (p.LS.eval >= 1 && p.LS.eval <= c.LS.evals);
          go p.LS.us rest
      in
      go infinity c.LS.trajectory;
      Alcotest.(check bool) "annealing never loses the greedy best" true
        (c.LS.best_us <= c.LS.greedy_us))
    (Lazy.force t1).LS.cells

let test_top_conflicts () =
  (* the typed Attrib query feeding the move generator: ordered by count,
     bounded by k, and cross_only drops self-conflicts *)
  let r =
    P.Engine.run
      (P.Engine.Spec.make ~stack:P.Engine.Tcpip
         ~config:(P.Config.make P.Config.Clo) ())
  in
  let a =
    Protolat_obs.Attrib.profile Protolat_machine.Params.default
      r.P.Engine.client_image r.P.Engine.trace
  in
  let top = Protolat_obs.Attrib.top_conflicts ~k:5 a in
  Alcotest.(check bool) "at most k pairs" true (List.length top <= 5);
  let counts =
    List.map (fun (c : Protolat_obs.Attrib.conflict) -> c.Protolat_obs.Attrib.count) top
  in
  Alcotest.(check bool) "sorted by descending count" true
    (List.sort (fun a b -> compare b a) counts = counts);
  List.iter
    (fun (c : Protolat_obs.Attrib.conflict) ->
      Alcotest.(check bool) "cross_only excludes self-pairs" true
        (c.Protolat_obs.Attrib.victim <> c.Protolat_obs.Attrib.evictor))
    (Protolat_obs.Attrib.top_conflicts ~k:32 ~cross_only:true a)

(* ----- clone-variant scorer vs per-vector templates ------------------------ *)

module M = Protolat_machine
module Image = Protolat_layout.Image
module Strategy = Protolat_layout.Strategy

(* The constants the search places genomes with. *)
let code_base = 0x10000
let icache_ref = 8192
let block_bytes = 32
let nsets_ref = icache_ref / block_bytes

(* The oracle: the scorer as it was before clone variants, one template
   per clone vector.  A template is one [Image.build] of the canonical
   dense placement of the genome's own clone vector, with every trace
   event located in it; decoding then anchors each event at its unit.
   The CLO base traces execute no outlined block, so what the clone
   toggles move here is unit footprints and the cold region's chunks. *)
type template = {
  sizes : int array;
  cold_sizes : int array;
  last_end : int array;
  ev_unit : int array;
  ev_cold : Bytes.t;
  ev_off : int array;
}

type stack_ctx = {
  sctx : LS.sctx;
  units : Image.unit_spec array;
  toggleable : bool array;
  unit_of_func : (string, int) Hashtbl.t;
}

let stack_ctx stack =
  let units, _ = P.Engine.client_units (P.Config.make P.Config.Clo) stack in
  let units = Array.of_list units in
  let unit_of_func = Hashtbl.create 64 in
  Array.iteri
    (fun i u ->
      List.iter
        (fun f -> Hashtbl.replace unit_of_func f.Protolat_layout.Func.name i)
        (Image.unit_funcs u))
    units;
  { sctx = LS.make_sctx stack;
    units;
    toggleable =
      Array.map
        (fun u ->
          Image.unit_outlined u
          && Image.cold_size_bytes (Image.set_separate_cold u true) > 0)
        units;
    unit_of_func }

let stack_ctxs =
  lazy (List.map (fun s -> (s, stack_ctx s)) [ P.Engine.Tcpip; P.Engine.Rpc ])

let with_cold sc cold =
  Array.mapi
    (fun i u ->
      if cold.(i) <> Image.unit_separate_cold u then
        Image.set_separate_cold u cold.(i)
      else u)
    sc.units

let build_template sc cold =
  let base = LS.base_run sc.sctx in
  let t_units = with_cold sc cold in
  let nu = Array.length t_units in
  let placement =
    Strategy.at_offsets ~base:code_base ~icache_bytes:icache_ref ~block_bytes
      (Array.to_list (Array.map (fun u -> (u, -1)) t_units))
  in
  let img = Image.build placement in
  let bases = Array.of_list (List.map snd placement) in
  let sizes = Array.map Image.size_bytes t_units in
  let cold_sizes = Array.map Image.cold_size_bytes t_units in
  let tpre = Array.make nu 0 in
  for i = 1 to nu - 1 do
    tpre.(i) <- tpre.(i - 1) + cold_sizes.(i - 1)
  done;
  let cold_start =
    List.fold_left
      (fun acc (n, s, _) -> if n = "<cold-region>" then s else acc)
      max_int (Image.regions img)
  in
  let last_end = Array.make nu 0 in
  List.iter
    (fun (s : Image.slot) ->
      if s.Image.addr < cold_start then begin
        let u = Hashtbl.find sc.unit_of_func s.Image.func in
        let e = s.Image.pcs.(Array.length s.Image.pcs - 1) + 4 - bases.(u) in
        if e > last_end.(u) then last_end.(u) <- e
      end)
    (Image.slots img);
  let trace = base.P.Engine.trace in
  let len = M.Trace.length trace in
  let b2t = Image.pc_map base.P.Engine.client_image img in
  let ev_unit = Array.make len 0 in
  let ev_cold = Bytes.make len '\000' in
  let ev_off = Array.make len 0 in
  for i = 0 to len - 1 do
    let tpc = b2t (M.Trace.pc_at trace i) in
    if tpc >= cold_start then begin
      let rec findc u =
        if u = nu - 1 || cold_start + tpre.(u + 1) > tpc then u
        else findc (u + 1)
      in
      let u = findc 0 in
      ev_unit.(i) <- u;
      Bytes.set ev_cold i '\001';
      ev_off.(i) <- tpc - cold_start - tpre.(u)
    end
    else begin
      let rec findu u =
        if u = nu - 1 || tpc < bases.(u) + sizes.(u) then u
        else findu (u + 1)
      in
      let u = findu 0 in
      ev_unit.(i) <- u;
      ev_off.(i) <- tpc - bases.(u)
    end
  done;
  { sizes; cold_sizes; last_end; ev_unit; ev_cold; ev_off }

let template_pcs tmpl (g : LS.genome) =
  let nu = Array.length tmpl.sizes in
  let ubase = Array.make nu 0 and cbase = Array.make nu 0 in
  let cursor = ref code_base and max_addr = ref 0 in
  Array.iteri
    (fun k u ->
      let off = g.LS.offs.(k) in
      let addr =
        if off < 0 then (!cursor + block_bytes - 1) / block_bytes * block_bytes
        else begin
          let candidate =
            (!cursor / icache_ref * icache_ref)
            + (off mod nsets_ref * block_bytes)
          in
          let minimal =
            if candidate >= !cursor then candidate else candidate + icache_ref
          in
          minimal + (off / nsets_ref * icache_ref)
        end
      in
      ubase.(u) <- addr;
      cursor := addr + tmpl.sizes.(u);
      max_addr := max !max_addr (addr + tmpl.last_end.(u)))
    g.LS.perm;
  let pre = ref ((!max_addr + 4096 + 31) / 32 * 32) in
  Array.iter
    (fun u ->
      cbase.(u) <- !pre;
      pre := !pre + tmpl.cold_sizes.(u))
    g.LS.perm;
  Array.init (Array.length tmpl.ev_unit) (fun i ->
      let u = tmpl.ev_unit.(i) in
      (if Bytes.get tmpl.ev_cold i = '\001' then cbase.(u) else ubase.(u))
      + tmpl.ev_off.(i))

(* Ground truth behind both: decode, build the image, retarget. *)
let decoded_pcs sc (g : LS.genome) =
  let t_units = with_cold sc g.LS.cold in
  let img =
    Image.build
      (Strategy.at_offsets ~base:code_base ~icache_bytes:icache_ref
         ~block_bytes
         (Array.to_list
            (Array.mapi (fun k u -> (t_units.(u), g.LS.offs.(k))) g.LS.perm)))
  in
  let base = LS.base_run sc.sctx in
  let f = Image.pc_map base.P.Engine.client_image img in
  let trace = base.P.Engine.trace in
  Array.init (M.Trace.length trace) (fun i -> f (M.Trace.pc_at trace i))

(* A random genome as the search's moves can reach it: any order, set
   offsets up to one extra reference period or dense, and clone toggles
   flipped only where a unit has cold blocks to defer. *)
let random_genome sc rng : LS.genome =
  let nu = Array.length sc.units in
  let perm = Array.init nu Fun.id in
  for i = nu - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  { LS.perm;
    offs =
      Array.init nu (fun _ ->
          if Random.State.int rng 3 = 0 then -1
          else Random.State.int rng (2 * nsets_ref));
    cold =
      Array.mapi
        (fun i u ->
          if sc.toggleable.(i) && Random.State.bool rng then
            not (Image.unit_separate_cold u)
          else Image.unit_separate_cold u)
        sc.units }

let scorers =
  lazy
    (List.concat_map
       (fun (stack, sc) ->
         List.map
           (fun kb -> ((stack, kb), LS.scorer sc.sctx ~icache_kb:kb))
           [ 4; 32 ])
       (Lazy.force stack_ctxs))

let prop_clone_variants =
  QCheck.Test.make ~name:"clone-variant scorer matches per-vector templates"
    ~count:40
    QCheck.(pair bool int)
    (fun (rpc, seed) ->
      let stack = if rpc then P.Engine.Rpc else P.Engine.Tcpip in
      let sc = List.assoc stack (Lazy.force stack_ctxs) in
      let g = random_genome sc (Random.State.make [| seed |]) in
      let pcs = LS.candidate_pcs sc.sctx g in
      let want = template_pcs (build_template sc g.LS.cold) g in
      if pcs <> want then
        QCheck.Test.fail_report
          "pc column differs from the per-vector template";
      if want <> decoded_pcs sc g then
        QCheck.Test.fail_report "per-vector template differs from Image.build";
      (* the oracle replays as the scorer does, one warmup, but from a
         fresh segmentation and hierarchy; whether one warmup reaches the
         canonical steady state depends on the placement, and [LS.check]
         settles that for each cell's best genome *)
      let trace = M.Trace.remap_pcs (LS.base_run sc.sctx).P.Engine.trace want in
      List.iter
        (fun kb ->
          let p = { M.Params.default with M.Params.icache_bytes = kb * 1024 } in
          let got = List.assoc (stack, kb) (Lazy.force scorers) g in
          let full =
            (snd (M.Perf.measure ~warmup:1 (M.Blockcache.segment p trace)))
              .M.Perf.time_us
          in
          if Int64.bits_of_float got <> Int64.bits_of_float full then
            QCheck.Test.fail_reportf
              "%d KB: scorer %.9f us, fresh replay %.9f us" kb got full)
        [ 4; 32 ];
      true)

let suite =
  ( "search",
    [ Alcotest.test_case "jobs bit-identity" `Quick test_jobs_bit_identity;
      Alcotest.test_case "scorer vs full simulation" `Quick
        test_check_bit_identity;
      Alcotest.test_case "named layouts seed the search" `Quick
        test_named_seeding;
      Alcotest.test_case "pinned quick-config scores" `Quick
        test_pinned_best_scores;
      Alcotest.test_case "trajectory and phases" `Quick
        test_trajectory_monotone;
      Alcotest.test_case "attrib top conflicts" `Quick test_top_conflicts;
      QCheck_alcotest.to_alcotest prop_clone_variants ] )
