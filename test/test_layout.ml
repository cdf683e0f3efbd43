module P = Protolat
module L = Protolat_layout
module Instr = Protolat_machine.Instr
module Block = L.Block
module Func = L.Func
module Image = L.Image
module Strategy = L.Strategy

let hot id n = Func.item (Block.make ~id ~kind:Block.Hot (Instr.vec ~alu:n ()))

let hot_calls id n calls =
  Func.item ~callees:calls (Block.make ~id ~kind:Block.Hot (Instr.vec ~alu:n ()))

let cold id n =
  Func.item (Block.make ~id ~kind:Block.Error (Instr.vec ~alu:n ()))

let f1 () = Func.make ~name:"f1" [ hot "a" 10; cold "e" 6; hot "b" 8 ]

let f2 () =
  Func.make ~name:"f2" ~cat:Func.Library [ hot_calls "m" 12 [ "f1" ] ]

let test_static_counts () =
  let f = f1 () in
  (* pro 5 + epi 4+1ret + 10 + guard 1 + 6 + 8 = 35 *)
  Alcotest.(check int) "static" 35 (Func.static_instrs f);
  (* hot drops the cold body but keeps the guard *)
  Alcotest.(check int) "hot" 29 (Func.hot_instrs f);
  Alcotest.(check (list string)) "callees" [ "f1" ] (Func.callees (f2 ()))

let test_image_std_layout () =
  let img = Image.build [ (Image.single (f1 ()), 0x1000) ] in
  (* inline cold: guard then cold body then next hot *)
  let addr key =
    match Image.find img ~func:"f1" ~key with
    | Image.Slot s -> s.Image.addr
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let a = addr (Image.Key.hot "a") in
  let g = addr (Image.Key.guard "e") in
  let c = addr (Image.Key.cold "e") in
  let b = addr (Image.Key.hot "b") in
  Alcotest.(check bool) "order a<g<c<b" true (a < g && g < c && c < b)

let test_image_outlined_layout () =
  let img = Image.build [ (Image.single ~outlined:true (f1 ()), 0x1000) ] in
  let addr key =
    match Image.find img ~func:"f1" ~key with
    | Image.Slot s -> s.Image.addr
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  (* outlined: cold body moves behind the epilogue *)
  Alcotest.(check bool) "cold after epi" true
    (addr (Image.Key.cold "e") > addr Image.Key.epi);
  Alcotest.(check bool) "hot b before epi" true
    (addr (Image.Key.hot "b") < addr Image.Key.epi);
  (match Image.find img ~func:"f1" ~key:(Image.Key.guard "e") with
  | Image.Slot s ->
    Alcotest.(check bool) "guard marked outlined" true s.Image.cold_outlined
  | _ -> Alcotest.fail "no guard")

let test_separate_cold_region () =
  let u = Image.single ~outlined:true ~separate_cold:true (f1 ()) in
  let img = Image.build [ (u, 0x1000) ] in
  (match Image.find img ~func:"f1" ~key:(Image.Key.cold "e") with
  | Image.Slot s ->
    (* the shared cold region lies beyond the unit *)
    Alcotest.(check bool) "cold far away" true
      (s.Image.addr > 0x1000 + Image.size_bytes u)
  | _ -> Alcotest.fail "cold missing");
  Alcotest.(check bool) "unit size excludes cold" true
    (Image.size_bytes u < Image.size_bytes (Image.single ~outlined:true (f1 ())));
  Alcotest.(check bool) "cold_size positive" true (Image.cold_size_bytes u > 0)

let test_fused_elision () =
  let img =
    Image.build
      [ (Image.fused ~name:"chain" [ f2 (); f1 () ], 0x1000) ]
  in
  (* interior call from f2 to f1 is elided, as are f2's epilogue and f1's
     prologue *)
  Alcotest.(check bool) "stub elided" true
    (Image.find img ~func:"f2" ~key:(Image.Key.stub "m" 0) = Image.Elided);
  Alcotest.(check bool) "f2 epi elided" true
    (Image.find img ~func:"f2" ~key:Image.Key.epi = Image.Elided);
  Alcotest.(check bool) "f1 pro elided" true
    (Image.find img ~func:"f1" ~key:Image.Key.pro = Image.Elided);
  (* first prologue and last epilogue remain *)
  (match Image.find img ~func:"f2" ~key:Image.Key.pro with
  | Image.Slot _ -> ()
  | _ -> Alcotest.fail "f2 pro should exist");
  match Image.find img ~func:"f1" ~key:Image.Key.epi with
  | Image.Slot _ -> ()
  | _ -> Alcotest.fail "f1 epi should exist"

let test_inline_shrink () =
  let big =
    Func.make ~name:"big" ~inline_shrink_pct:50
      [ Func.item (Block.make ~id:"h" ~kind:Block.Hot (Instr.vec ~alu:100 ())) ]
  in
  let alone = Image.single big in
  let inlined = Image.fused ~name:"c" [ f2 (); big ] in
  Alcotest.(check bool) "shrink reduces size" true
    (Image.size_bytes inlined
    < Image.size_bytes (Image.single (f2 ())) + Image.size_bytes alone)

let test_overlap_rejected () =
  let u1 = Image.single (f1 ()) and u2 = Image.single (f2 ()) in
  Alcotest.(check bool) "overlap raises" true
    (try
       ignore (Image.build [ (u1, 0x1000); (u2, 0x1004) ]);
       false
     with Invalid_argument _ -> true)

let test_duplicate_function_rejected () =
  Alcotest.(check bool) "duplicate raises" true
    (try
       ignore
         (Image.build
            [ (Image.single (f1 ()), 0x1000); (Image.single (f1 ()), 0x8000) ]);
       false
     with Invalid_argument _ -> true)

let test_specialized_stub () =
  let caller =
    Func.make ~name:"caller" [ hot_calls "m" 5 [ "f1" ] ]
  in
  let plain = Image.build [ (Image.single caller, 0x1000) ] in
  let spec =
    Image.build
      [ (Image.single ~specialize:true ~intra_calls:[ "f1" ] caller, 0x1000) ]
  in
  let stub img =
    match Image.find img ~func:"caller" ~key:(Image.Key.stub "m" 0) with
    | Image.Slot s -> Array.length s.Image.instrs
    | _ -> Alcotest.fail "stub missing"
  in
  Alcotest.(check int) "plain stub = load+jsr" 2 (stub plain);
  Alcotest.(check int) "specialized stub = bsr" 1 (stub spec)

let test_dilution_footprint () =
  let f =
    Func.make ~name:"d"
      [ Func.item (Block.make ~id:"h" ~kind:Block.Hot (Instr.vec ~alu:100 ())) ]
  in
  let dense = Image.single f in
  let diluted = Image.single ~dilution_pct:30 f in
  Alcotest.(check bool) "dilution grows footprint" true
    (Image.size_bytes diluted > Image.size_bytes dense);
  let img = Image.build [ (diluted, 0x1000) ] in
  match Image.find img ~func:"d" ~key:(Image.Key.hot "h") with
  | Image.Slot s ->
    let n = Array.length s.Image.pcs in
    Alcotest.(check bool) "pcs stretched" true
      (s.Image.pcs.(n - 1) - s.Image.pcs.(0) > 4 * (n - 1))
  | _ -> Alcotest.fail "missing block"

(* ----- strategies ----------------------------------------------------------- *)

let units () =
  [ Image.single (f1 ());
    Image.single (f2 ());
    Image.single
      (Func.make ~name:"f3" [ hot "x" 40 ]) ]

let no_overlap placement =
  let extents =
    List.map (fun (u, a) -> (a, a + Image.size_bytes u)) placement
    |> List.sort compare
  in
  let rec go = function
    | (_, e) :: ((s, _) :: _ as rest) -> e <= s && go rest
    | _ -> true
  in
  go extents

let test_link_order_dense () =
  let p = Strategy.link_order ~base:0x1000 (units ()) in
  Alcotest.(check bool) "no overlap" true (no_overlap p);
  Alcotest.(check bool) "small gaps" true (Strategy.gaps p < 32 * 3)

let test_bipartite_partition () =
  let icache = 8192 in
  let p =
    Strategy.bipartite ~base:0x10000 ~icache_bytes:icache
      ~order:[ "f1"; "f2"; "f3" ] (units ())
  in
  Alcotest.(check bool) "no overlap" true (no_overlap p);
  (* the library unit (f2) must not share i-cache sets with path units *)
  let sets (u, a) =
    let size = Image.size_bytes u in
    List.init ((size + 31) / 32) (fun k -> (a / 32 + k) mod (icache / 32))
  in
  let lib, path =
    List.partition (fun (u, _) -> Image.unit_name u = "f2") p
  in
  let lib_sets = List.concat_map sets lib in
  let path_sets = List.concat_map sets path in
  Alcotest.(check bool) "partitions disjoint" true
    (not (List.exists (fun s -> List.mem s path_sets) lib_sets))

let test_pessimal_same_offset () =
  let p =
    Strategy.pessimal ~base:0x10000 ~icache_bytes:8192
      ~bcache_bytes:(2 * 1024 * 1024) ~bconflict_every:0 (units ())
  in
  let offsets = List.map (fun (_, a) -> a mod 8192) p in
  List.iter
    (fun o -> Alcotest.(check int) "same i-cache offset" (List.hd offsets) o)
    offsets

let test_micro_no_overlap () =
  let p =
    Strategy.micro_position ~base:0x10000 ~icache_bytes:8192 ~block_bytes:32
      ~ref_seq:[ "f1"; "f2"; "f1"; "f3"; "f2" ] (units ())
  in
  Alcotest.(check bool) "no overlap" true (no_overlap p)

(* ----- micro-positioning oracle --------------------------------------------- *)

(* The list-based micro-positioning that [Strategy.micro_position]
   replaced, kept as the reference it must agree with placement for
   placement.  It ranks names by the index of their first occurrence, and
   recomputes set intersections and interleave weights at every offset. *)
let reference_rank order =
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun i name -> if not (Hashtbl.mem tbl name) then Hashtbl.replace tbl name i)
    order;
  fun name ->
    match Hashtbl.find_opt tbl name with Some i -> i | None -> max_int

(* Interleave weight: count the occurrences of [b] after the first
   occurrence of [a] (each such occurrence can evict [a] if they share
   cache sets); 0 if [a = b] or [a] is absent. *)
let interleave_weight seq a b =
  let w = ref 0 in
  let inside = ref false in
  List.iter
    (fun x ->
      if x = a then inside := true
      else if !inside && x = b then incr w)
    seq;
  !w

let micro_reference ~base ~icache_bytes ~block_bytes ~ref_seq units =
  let nsets = icache_bytes / block_bytes in
  let rank = reference_rank ref_seq in
  let keyed = List.mapi (fun i u -> (rank (Image.unit_name u), i, u)) units in
  let ordered =
    List.sort (fun (r1, i1, _) (r2, i2, _) -> compare (r1, i1) (r2, i2)) keyed
    |> List.map (fun (_, _, u) -> u)
  in
  (* sets occupied by a placement: [start_set, start_set + nblocks) mod nsets *)
  let sets_of offset_blocks size_bytes =
    let nblocks = (size_bytes + block_bytes - 1) / block_bytes in
    List.init (min nblocks nsets) (fun i -> (offset_blocks + i) mod nsets)
  in
  let placed = ref [] in
  (* (name, offset_blocks, size) *)
  let cursor = ref base in
  let result =
    List.map
      (fun u ->
        let name = Image.unit_name u in
        let size = Image.size_bytes u in
        let cost offset =
          List.fold_left
            (fun acc (qname, qoff, qsize) ->
              let mine = sets_of offset size in
              let theirs = sets_of qoff qsize in
              let overlap =
                List.length (List.filter (fun s -> List.mem s theirs) mine)
              in
              if overlap = 0 then acc
              else
                acc
                + overlap
                  * (interleave_weight ref_seq name qname
                    + interleave_weight ref_seq qname name))
            0 !placed
        in
        (* candidate offsets at block granularity; prefer the dense position
           (cursor's own offset) on ties to limit gaps *)
        let dense_off = !cursor / block_bytes mod nsets in
        let best = ref dense_off and best_cost = ref (cost dense_off) in
        for o = 0 to nsets - 1 do
          let c = cost o in
          if c < !best_cost then begin
            best := o;
            best_cost := c
          end
        done;
        let offset_bytes = !best * block_bytes in
        let addr =
          let candidate =
            (!cursor / icache_bytes * icache_bytes) + offset_bytes
          in
          if candidate >= !cursor then candidate else candidate + icache_bytes
        in
        placed := (name, !best, size) :: !placed;
        cursor := addr + size;
        (u, addr))
      ordered
  in
  result

let placed_names p = List.map (fun (u, a) -> (Image.unit_name u, a)) p

let micro_agrees ~base ~icache_bytes ~block_bytes ~ref_seq units =
  placed_names
    (Strategy.micro_position ~base ~icache_bytes ~block_bytes ~ref_seq units)
  = placed_names
      (micro_reference ~base ~icache_bytes ~block_bytes ~ref_seq units)

type micro_case = {
  m_sizes : int list;  (** instructions of each unit's one hot block *)
  m_ref_seq : string list;
  m_icache : int;
  m_block : int;
  m_base : int;
}

let micro_units c =
  List.mapi
    (fun i n ->
      Image.single (Func.make ~name:(Printf.sprintf "u%d" i) [ hot "h" n ]))
    c.m_sizes

(* Units of 1-600 instructions (the large ones overflow a small i-cache
   and hit the [min nblocks nsets] clamp); a reference sequence with
   repeats, names of no unit and units it never names; i-caches of 1-32
   KB with 16-64 B blocks at a random base. *)
let gen_micro_case =
  let open QCheck.Gen in
  let size = frequency [ (4, int_range 1 60); (1, int_range 61 600) ] in
  let* m_sizes =
    frequency
      [ (1, map (fun n -> [ n ]) size); (6, list_size (int_range 2 8) size) ]
  in
  let n = List.length m_sizes in
  let name =
    frequency
      [ (5, map (Printf.sprintf "u%d") (int_bound (n - 1)));
        (1, map (Printf.sprintf "x%d") (int_bound 2)) ]
  in
  let* m_ref_seq = list_size (int_bound 24) name in
  let* m_icache = map (fun k -> 1024 lsl k) (int_bound 5) in
  let* m_block = oneofl [ 16; 32; 64 ] in
  let+ m_base = int_bound 0xFFFFF in
  { m_sizes; m_ref_seq; m_icache; m_block; m_base }

let print_micro_case c =
  Printf.sprintf "sizes=[%s] ref_seq=[%s] icache=%dB block=%dB base=0x%x"
    (String.concat ";" (List.map string_of_int c.m_sizes))
    (String.concat ";" c.m_ref_seq) c.m_icache c.m_block c.m_base

let prop_micro_oracle =
  QCheck.Test.make ~name:"micro position matches list reference" ~count:300
    (QCheck.make ~print:print_micro_case gen_micro_case) (fun c ->
      micro_agrees ~base:c.m_base ~icache_bytes:c.m_icache
        ~block_bytes:c.m_block ~ref_seq:c.m_ref_seq (micro_units c))

(* Every unit set and invocation order the engine can micro-position:
   both stacks, every version, at the engine's 8 KB / 32 B geometry. *)
let test_micro_real_inputs () =
  List.iter
    (fun stack ->
      List.iter
        (fun v ->
          let units, order = P.Engine.client_units (P.Config.make v) stack in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" (P.Engine.stack_name stack)
               (P.Config.version_name v))
            true
            (micro_agrees ~base:0x10000 ~icache_bytes:8192 ~block_bytes:32
               ~ref_seq:order units))
        P.Config.all_versions)
    [ P.Engine.Tcpip; P.Engine.Rpc ]

let test_icache_pressure () =
  let img =
    Image.build
      [ (Image.single (f1 ()), 0x10000);
        (Image.single (f2 ()), 0x10000 + 8192) ]
  in
  let pressure =
    L.Layout_stats.icache_pressure img ~icache_bytes:8192 ~block_bytes:32
  in
  (* both functions start at set 0: pressure there is 2 *)
  Alcotest.(check int) "conflicting set" 2 pressure.(0);
  Alcotest.(check int) "empty set" 0 pressure.(128)

let test_pessimal_gaps_positive () =
  let p =
    Strategy.pessimal ~base:0x10000 ~icache_bytes:8192
      ~bcache_bytes:(2 * 1024 * 1024) ~bconflict_every:0 (units ())
  in
  Alcotest.(check bool) "pessimal wastes address space" true
    (Strategy.gaps p > 8192)

let extra_suite =
  [ Alcotest.test_case "icache pressure" `Quick test_icache_pressure;
    Alcotest.test_case "pessimal gaps" `Quick test_pessimal_gaps_positive;
    QCheck_alcotest.to_alcotest prop_micro_oracle;
    Alcotest.test_case "micro oracle on engine inputs" `Slow
      test_micro_real_inputs ]

let suite =
  ( "layout",
    [ Alcotest.test_case "static counts" `Quick test_static_counts;
      Alcotest.test_case "inline-cold layout" `Quick test_image_std_layout;
      Alcotest.test_case "outlined layout" `Quick test_image_outlined_layout;
      Alcotest.test_case "separate cold region" `Quick test_separate_cold_region;
      Alcotest.test_case "fused elision" `Quick test_fused_elision;
      Alcotest.test_case "inline shrink" `Quick test_inline_shrink;
      Alcotest.test_case "overlap rejected" `Quick test_overlap_rejected;
      Alcotest.test_case "duplicate rejected" `Quick
        test_duplicate_function_rejected;
      Alcotest.test_case "specialized stub" `Quick test_specialized_stub;
      Alcotest.test_case "dilution footprint" `Quick test_dilution_footprint;
      Alcotest.test_case "link order dense" `Quick test_link_order_dense;
      Alcotest.test_case "bipartite partition" `Quick test_bipartite_partition;
      Alcotest.test_case "pessimal offsets" `Quick test_pessimal_same_offset;
      Alcotest.test_case "micro no overlap" `Quick test_micro_no_overlap ]
    @ extra_suite )

