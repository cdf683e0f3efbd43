module Util = Protolat_util
module Machine = Protolat_machine
module Layout = Protolat_layout
module Xk = Protolat_xkernel
module Ns = Protolat_netsim
module T = Protolat_tcpip
module R = Protolat_rpc
module Obs = Protolat_obs
module Instr = Machine.Instr
module Trace = Machine.Trace
module Func = Layout.Func
module Block = Layout.Block
module Image = Layout.Image
module Meter = Xk.Meter

type stack_kind =
  | Tcpip
  | Rpc

let stack_name = function Tcpip -> "TCP/IP" | Rpc -> "RPC"

(* ----- stack descriptors -------------------------------------------------- *)

type desc = {
  tag : string;  (** stable identity, used as part of the image-cache key *)
  funcs : T.Opts.t -> Func.t list;
  invocation_order : string list;
  chains : (string * string list) list;
  path_names : string list;
}

let tcpip_desc =
  { tag = "tcpip";
    funcs = T.Specs.all;
    invocation_order = T.Specs.invocation_order;
    chains =
      [ ("out_path", T.Specs.output_chain); ("in_path", T.Specs.input_chain) ];
    path_names = T.Specs.path_function_names }

let rpc_client_desc =
  { tag = "rpc_client";
    funcs = R.Specs.all;
    invocation_order = R.Specs.invocation_order;
    chains =
      [ ("call_path", R.Specs.call_chain); ("in_path", R.Specs.input_chain) ];
    path_names = R.Specs.path_function_names }

let rpc_server_desc =
  { rpc_client_desc with
    tag = "rpc_server";
    chains =
      [ ("srv_in_path", R.Specs.server_input_chain);
        ("srv_out_path", R.Specs.server_output_chain) ] }

(* ----- untraced kernel code (interrupt dispatch, context switch) --------- *)

let untraced_func ~name n =
  Func.make ~name ~cat:Func.Path
    [ Func.item
        (Block.make ~id:"body" ~kind:Block.Hot
           (Instr.vec ~alu:(n * 55 / 100) ~load:(n * 22 / 100)
              ~store:(n * 13 / 100) ~br_not_taken:(n * 5 / 100)
              ~br_taken:(n * 5 / 100) ())) ]

let untraced_funcs =
  [ untraced_func ~name:"intr_dispatch" 420;
    untraced_func ~name:"intr_tx" 140;
    (* full context switch + thread wakeup: save/restore register file,
       scheduler, stack attach — the reason the RPC stack's roundtrip is
       slower than TCP/IP's despite executing fewer instructions *)
    untraced_func ~name:"ctx_switch" 1150 ]

(* ----- image construction ------------------------------------------------- *)

let code_base = 0x10000

(* The units a stack version compiles to, and the invocation order over
   unit names the placement strategies consume.  Factored out of image
   construction so a layout optimizer can re-place the exact units the
   engine would build — any placement of these units scored through the
   incremental path corresponds to a real [Engine] configuration. *)
let units_for (config : Config.t) (desc : desc) =
  let funcs = desc.funcs config.Config.opts @ untraced_funcs in
  let outlined = Config.outlined config.Config.version in
  let inlined = Config.path_inlined config.Config.version in
  let specialize = Config.cloned config.Config.version in
  let chain_members =
    if inlined then List.concat_map snd desc.chains else []
  in
  let find name = List.find (fun f -> f.Func.name = name) funcs in
  (* hot-code density: without outlining ~21% of each fetched i-cache block
     is interleaved unlikely code; outlining compresses that to ~15%
     (Table 9) *)
  let dilution_pct =
    if inlined then 13 else if outlined then 17 else 30
  in
  let fused_units =
    if not inlined then []
    else
      List.map
        (fun (fname, members) ->
          Image.fused ~outlined:true ~specialize ~separate_cold:specialize
            ~dilution_pct ~name:fname
            (List.map find members))
        desc.chains
  in
  let single_units =
    funcs
    |> List.filter (fun f -> not (List.mem f.Func.name chain_members))
    |> List.map (fun f ->
           Image.single ~outlined
             ~specialize:(specialize && f.Func.cat = Func.Path)
             ~separate_cold:specialize ~dilution_pct
             ~intra_calls:desc.path_names f)
  in
  let units = fused_units @ single_units in
  (* strategy ordering: map chain members to their fused unit's name *)
  let order =
    desc.invocation_order
    |> List.filter_map (fun name ->
           match
             List.find_opt (fun (_, members) -> List.mem name members)
               (if inlined then desc.chains else [])
           with
           | Some (fname, members) ->
             if List.hd members = name then Some fname else None
           | None -> Some name)
  in
  (units, order)

let build_image_uncached (config : Config.t) (desc : desc)
    ~(layout : Config.layout) =
  let units, order = units_for config desc in
  let placement =
    match layout with
    | Config.Link_order ->
      (* uncontrolled: alphabetical object-file order *)
      let sorted =
        List.sort
          (fun a b -> compare (Image.unit_name a) (Image.unit_name b))
          units
      in
      Layout.Strategy.link_order ~base:code_base sorted
    | Config.Bipartite ->
      Layout.Strategy.bipartite ~base:code_base ~icache_bytes:8192 ~order
        units
    | Config.Pessimal ->
      Layout.Strategy.pessimal ~base:code_base ~icache_bytes:8192
        ~bcache_bytes:(2 * 1024 * 1024) units
    | Config.Micro ->
      Layout.Strategy.micro_position ~base:code_base ~icache_bytes:8192
        ~block_bytes:32 ~ref_seq:order units
    | Config.Linear ->
      Layout.Strategy.invocation_order ~base:code_base ~order units
  in
  Image.build placement

(* Images are immutable once built and depend only on (stack descriptor,
   version, §2.2 option set, placement strategy), so repeated samples of
   the same configuration — sequential or fanned across domains — share
   one build instead of re-laying-out an identical code image per run. *)
let image_cache :
    (string * Config.version * T.Opts.t * Config.layout, Image.t) Hashtbl.t =
  Hashtbl.create 32

let image_cache_mutex = Mutex.create ()

let build_image (config : Config.t) (desc : desc) ~(layout : Config.layout) =
  let key = (desc.tag, config.Config.version, config.Config.opts, layout) in
  Mutex.lock image_cache_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock image_cache_mutex)
    (fun () ->
      match Hashtbl.find_opt image_cache key with
      | Some img -> img
      | None ->
        let img = build_image_uncached config desc ~layout in
        Hashtbl.add image_cache key img;
        img)

(* ----- per-host engine state ---------------------------------------------- *)

(* Reusable address queue: meter ranges expand into 8-byte-granular
   addresses in a per-host int-array cursor instead of fresh list cells on
   every block emission. *)
type queue = {
  mutable buf : int array;
  mutable len : int;
  mutable pos : int;
}

let queue_create () = { buf = Array.make 64 0; len = 0; pos = 0 }

let rec queue_push_ranges q = function
  | [] -> ()
  | (r : Meter.range) :: rest ->
    let n = max 1 ((r.Meter.len + 7) / 8) in
    for i = 0 to n - 1 do
      if q.len = Array.length q.buf then begin
        let b = Array.make (2 * q.len) 0 in
        Array.blit q.buf 0 b 0 q.len;
        q.buf <- b
      end;
      q.buf.(q.len) <- r.Meter.base + r.Meter.off + (8 * i);
      q.len <- q.len + 1
    done;
    queue_push_ranges q rest

let queue_fill q ranges =
  q.len <- 0;
  q.pos <- 0;
  queue_push_ranges q ranges

(* next queued address, or -1 when drained (addresses are non-negative) *)
let queue_pop q =
  if q.pos < q.len then begin
    let a = q.buf.(q.pos) in
    q.pos <- q.pos + 1;
    a
  end
  else -1

(* Per-slot memo for the warm-block fast path (see {!Machine.Blockcache} for
   the replay-side counterpart and the general equivalence argument).  A
   slot's instruction classes, penalties and i-cache lines never change, so
   the per-instruction float expression of [emit_one] is precomputed for
   the dominant case [lat = 0.0] (no memory stall):

     us0.(i) = (0.0 +. (0.0 +. pen_i)) /. clock     (second of a pair)
     us1.(i) = (0.0 +. (1.0 +. pen_i)) /. clock     (new issue slot)

   and for the stall case the addends [pens.(i) = 0.0 +. pen_i] and
   [sum1.(i) = 1.0 +. pen_i] keep the original operation order, so every
   emitted microsecond is bit-identical to the slow path's.

   The slot is further segmented into {e chunks} — maximal instruction
   ranges sharing one i-cache line (pcs increase within a slot, so each
   distinct line is exactly one chunk).  Chunks are the fast path's warmth
   granularity: one generation compare decides whether the chunk's fetches
   would all hit (nothing can evict the line mid-chunk: data references
   never touch the i-cache and every fetch in the chunk is to this line),
   in which case the hits are credited in one step and only data references
   enter the memory system.  A chunk whose line is not resident falls back
   to full per-instruction fetches — so one missing line costs one chunk,
   not the whole slot.  [gens] holds the per-chunk generation snapshot
   ([-1] = unverified), only ever taken while the line is resident; the
   memo table is private to one host state, whose memory system never
   changes, so snapshots cannot leak across caches. *)
type smemo = {
  m_codes : int array;
  m_pens : float array;
  m_sum1 : float array;
  m_us0 : float array;
  m_us1 : float array;
  m_chunks : int array;
      (* stride-3 chunk table, one cache touch per chunk on the hot loop:
         chunk c = instrs [chunks.(3c), chunks.(3c+3)) on i-cache line
         chunks.(3c+1) in set chunks.(3c+2); the trailing word chunks.(3k)
         holds the slot length so the range read needs no bounds test *)
  m_gens : int array;
}

type hstate = {
  params : Machine.Params.t;
  image : Image.t;
  memsys : Machine.Memsys.t;
  icache : Machine.Cache.t;
  fp : bool;  (* warm-block fast path enabled for this host *)
  memo : (int, smemo) Hashtbl.t;  (* keyed by slot base address *)
  mlat : float array;  (* Memsys.lat_cell memsys: per-instruction latency *)
  clock : float array;  (* Sim.clock_cell sim: simulated wall clock *)
  sim : Ns.Sim.t;
  trace : Trace.t;
  rq : queue;  (* pending read addresses for the block being emitted *)
  wq : queue;  (* pending write addresses *)
  mutable collecting : bool;
  mutable traced : bool;
  mutable pending : int;  (* dual-issue pairing state: Instr.code, -1 = none *)
  mutable pair_mod : int;
      (* (attempts * pair_success_pct) mod 100, maintained incrementally:
         the pairing test [attempts * pct mod 100 < pct] without the
         per-attempt integer division *)
  mutable depth : int;  (* call depth, for synthetic stack references *)
  stack_base : int;
  mutable synth : int;
  mutable touch : int;
  busy_us : float array;
      (* accumulated modeled CPU time; 1-element array because a mutable
         float field in this mixed record would box on every store, and we
         store once per modeled instruction *)
      (* rotating heap-touch cursor: models the allocator / mbuf / pcb /
         timer-wheel churn that gives protocol code its large per-packet
         data footprint *)
}

let touch_window = 12 * 1024

let synth_stack_addr h =
  h.synth <- h.synth + 1;
  if h.synth land 1 = 0 then
    h.stack_base - (h.depth * 128) - (h.synth mod 16 * 8)
  else begin
    h.touch <- (h.touch + 24) mod touch_window;
    h.stack_base + 8192 + h.touch
  end

(* ----- warm-block fast path ----------------------------------------------- *)

let code_load = Instr.code Instr.Load

let code_store = Instr.code Instr.Store

let code_mul = Instr.code Instr.Mul

let build_smemo (p : Machine.Params.t) ic (slot : Image.slot) =
  let instrs = slot.Image.instrs and pcs = slot.Image.pcs in
  let n = Array.length instrs in
  let clock = p.Machine.Params.clock_mhz in
  let m_codes = Array.map Instr.code instrs in
  let m_pens = Array.make n 0.0 in
  let m_sum1 = Array.make n 0.0 in
  let m_us0 = Array.make n 0.0 in
  let m_us1 = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let pen =
      match instrs.(i) with
      | Instr.Br_taken -> p.Machine.Params.br_taken_penalty
      | Instr.Jsr ->
        p.Machine.Params.br_taken_penalty +. p.Machine.Params.call_penalty
      | Instr.Ret ->
        p.Machine.Params.br_taken_penalty +. p.Machine.Params.ret_penalty
      | Instr.Mul -> p.Machine.Params.mul_cycles
      | Instr.Load -> p.Machine.Params.load_use_penalty
      | Instr.Alu | Instr.Store | Instr.Br_not_taken | Instr.Nop -> 0.0
    in
    m_pens.(i) <- 0.0 +. pen;
    m_sum1.(i) <- 1.0 +. pen;
    m_us0.(i) <- (0.0 +. (0.0 +. pen)) /. clock;
    m_us1.(i) <- (0.0 +. (1.0 +. pen)) /. clock
  done;
  (* chunk = maximal instr range on one i-cache line; pcs increase within a
     slot, so lines are non-decreasing and each distinct line is one chunk *)
  let starts = ref [] and lines = ref [] in
  let nchunks = ref 0 in
  for i = 0 to n - 1 do
    let line = Machine.Cache.line_of ic pcs.(i) in
    match !lines with
    | l :: _ when l = line -> ()
    | _ ->
      starts := i :: !starts;
      lines := line :: !lines;
      incr nchunks
  done;
  let k = !nchunks in
  let m_chunks = Array.make ((3 * k) + 1) n in
  List.iteri (fun j s -> m_chunks.(3 * (k - 1 - j)) <- s) !starts;
  List.iteri
    (fun j l ->
      let c = k - 1 - j in
      m_chunks.((3 * c) + 1) <- l;
      m_chunks.((3 * c) + 2) <- Machine.Cache.set_of_line ic l)
    !lines;
  { m_codes; m_pens; m_sum1; m_us0; m_us1; m_chunks; m_gens = Array.make k (-1) }

let smemo_for h (slot : Image.slot) =
  match Hashtbl.find h.memo slot.Image.addr with
  | m -> m
  | exception Not_found ->
    let m = build_smemo h.params h.icache slot in
    Hashtbl.add h.memo slot.Image.addr m;
    m

(* Fast-path slot emission: the exact computation of [emit_one], chunk by
   chunk.  A warm chunk (line verified resident by generation compare, or
   by probe on mismatch) skips its instruction fetches — they would all hit,
   contributing zero stall and no state change beyond the hit counters,
   credited in one step — and only its data references enter the memory
   system.  A cold chunk performs full per-instruction accesses and then
   snapshots its generation (the line was just fetched and nothing in the
   chunk can evict it).  Pairing state, synthetic-address state and the
   sequential busy/clock accumulation are bit-for-bit the slow path's. *)
let emit_slot_fast h (m : smemo) (slot : Image.slot) =
  let p = h.params in
  let clock = p.Machine.Params.clock_mhz in
  let pct = p.Machine.Params.pair_success_pct in
  let codes = m.m_codes in
  let pcs = slot.Image.pcs in
  let ic = h.icache in
  let igens = Machine.Cache.generations ic in
  let mlat = h.mlat in
  let chunks = m.m_chunks in
  let nchunks = Array.length m.m_gens in
  for c = 0 to nchunks - 1 do
    let b = 3 * c in
    let lo = Array.unsafe_get chunks b in
    let hi = Array.unsafe_get chunks (b + 3) - 1 in
    let warm =
      let g = Array.unsafe_get igens (Array.unsafe_get chunks (b + 2)) in
      Array.unsafe_get m.m_gens c = g
      || Machine.Cache.resident_line ic (Array.unsafe_get chunks (b + 1))
         && begin
              Array.unsafe_set m.m_gens c g;
              true
            end
    in
    (* [fetch_i]: the single instruction of the chunk that performs a real
       fetch (the miss), or -1 when the line is already resident.  Every
       other fetch in the chunk is a guaranteed hit — the miss at [lo]
       fills this very line and nothing in the chunk can evict it. *)
    let fetch_i = if warm then -1 else lo in
    for i = lo to hi do
      let code = Array.unsafe_get codes i in
      let lat =
        if i <> fetch_i then
          if code = code_load then begin
            let a = queue_pop h.rq in
            Machine.Memsys.daccess_acc h.memsys ~kind:Trace.kind_read
              ~addr:(if a >= 0 then a else synth_stack_addr h);
            mlat.(0)
          end
          else if code = code_store then begin
            let a = queue_pop h.wq in
            Machine.Memsys.daccess_acc h.memsys ~kind:Trace.kind_write
              ~addr:(if a >= 0 then a else synth_stack_addr h);
            mlat.(0)
          end
          else 0.0
        else begin
          (if code = code_load then
             let a = queue_pop h.rq in
             Machine.Memsys.access_acc h.memsys
               ~pc:(Array.unsafe_get pcs i)
               ~kind:Trace.kind_read
               ~addr:(if a >= 0 then a else synth_stack_addr h)
           else if code = code_store then
             let a = queue_pop h.wq in
             Machine.Memsys.access_acc h.memsys
               ~pc:(Array.unsafe_get pcs i)
               ~kind:Trace.kind_write
               ~addr:(if a >= 0 then a else synth_stack_addr h)
           else
             Machine.Memsys.access_acc h.memsys
               ~pc:(Array.unsafe_get pcs i)
               ~kind:Trace.kind_none ~addr:0);
          mlat.(0)
        end
      in
      let us =
        if h.pending < 0 then begin
          h.pending <- code;
          if lat = 0.0 then Array.unsafe_get m.m_us0 i
          else (lat +. Array.unsafe_get m.m_pens i) /. clock
        end
        else begin
          let prev = h.pending in
          let paired =
            prev <> code_mul && code <> code_mul
            && (prev = code_load || prev = code_store)
               <> (code = code_load || code = code_store)
            && begin
                 let r = h.pair_mod + pct in
                 let r = if r >= 100 then r - 100 else r in
                 h.pair_mod <- r;
                 r < pct
               end
          in
          if paired then h.pending <- -1 else h.pending <- code;
          if lat = 0.0 then Array.unsafe_get m.m_us1 i
          else (lat +. Array.unsafe_get m.m_sum1 i) /. clock
        end
      in
      h.busy_us.(0) <- h.busy_us.(0) +. us;
      h.clock.(0) <- h.clock.(0) +. us
    done;
    (* hit credit for every skipped fetch; after the miss at [lo], so the
       i-cache's last_victim ends as the slow path leaves it (the victim if
       the chunk is a lone miss, -1 whenever hits follow) *)
    Machine.Cache.credit_hits ic (if warm then hi - lo + 1 else hi - lo);
    if not warm then
      Array.unsafe_set m.m_gens c
        (Array.unsafe_get igens (Array.unsafe_get chunks (b + 2)))
  done

(* The per-instruction hot path: no boxed events, options, tuples or list
   cells — access kind/address travel as immediate ints straight into the
   memory system and the packed trace.  The whole computation lives in one
   function body and exchanges floats with Memsys and the clock through
   preallocated cells: a float argument or computed return at a call
   boundary is boxed by the compiler, and at one instruction per call that
   boxing dominated the simulator's allocation profile. *)
let emit_one h ~pc ~cls ~kind ~addr ~fid =
  Machine.Memsys.access_acc h.memsys ~pc ~kind ~addr;
  let p = h.params in
  let issue =
    if h.pending < 0 then begin
      h.pending <- Instr.code cls;
      0.0
    end
    else begin
      let prev = Instr.of_code h.pending in
      let paired =
        Machine.Cpu.can_pair prev cls
        && begin
             let pct = p.Machine.Params.pair_success_pct in
             let r = h.pair_mod + pct in
             let r = if r >= 100 then r - 100 else r in
             h.pair_mod <- r;
             r < pct
           end
      in
      if paired then h.pending <- -1 else h.pending <- Instr.code cls;
      1.0
    end
  in
  let pen =
    match cls with
    | Instr.Br_taken -> p.Machine.Params.br_taken_penalty
    | Instr.Jsr ->
      p.Machine.Params.br_taken_penalty +. p.Machine.Params.call_penalty
    | Instr.Ret ->
      p.Machine.Params.br_taken_penalty +. p.Machine.Params.ret_penalty
    | Instr.Mul -> p.Machine.Params.mul_cycles
    | Instr.Load -> p.Machine.Params.load_use_penalty
    | Instr.Alu | Instr.Store | Instr.Br_not_taken | Instr.Nop -> 0.0
  in
  let us = (h.mlat.(0) +. (issue +. pen)) /. p.Machine.Params.clock_mhz in
  h.busy_us.(0) <- h.busy_us.(0) +. us;
  h.clock.(0) <- h.clock.(0) +. us;
  if h.collecting && h.traced then
    Trace.add_packed h.trace ~pc ~cls ~kind ~addr ~fid

let emit_slot_slow h (slot : Image.slot) (override : Instr.cls option) =
  let instrs = slot.Image.instrs and pcs = slot.Image.pcs in
  (* tag collected events with their originating function; one intern-table
     lookup per block, not per instruction *)
  let fid =
    if h.collecting && h.traced then Trace.intern h.trace slot.Image.func
    else -1
  in
  for i = 0 to Array.length instrs - 1 do
    let cls =
      match override with Some c when i = 0 -> c | _ -> instrs.(i)
    in
    let pc = pcs.(i) in
    match cls with
    | Instr.Load ->
      let a = queue_pop h.rq in
      emit_one h ~pc ~cls ~kind:Trace.kind_read
        ~addr:(if a >= 0 then a else synth_stack_addr h)
        ~fid
    | Instr.Store ->
      let a = queue_pop h.wq in
      emit_one h ~pc ~cls ~kind:Trace.kind_write
        ~addr:(if a >= 0 then a else synth_stack_addr h)
        ~fid
    | _ -> emit_one h ~pc ~cls ~kind:Trace.kind_none ~addr:0 ~fid
  done

let emit_instrs h ?(reads = []) ?(writes = []) (slot : Image.slot)
    ?(override : Instr.cls option) () =
  queue_fill h.rq reads;
  queue_fill h.wq writes;
  (* the fast path cannot take overridden guards (the first class differs
     from the memoized one) or trace-collecting emissions (events must be
     appended per instruction) — both are rare *)
  if h.fp && override = None && not (h.collecting && h.traced) then
    emit_slot_fast h (smemo_for h slot) slot
  else emit_slot_slow h slot override

let fail_unknown func key =
  failwith (Printf.sprintf "Engine: no slot for %s/%s in this image" func key)

let emit_key h ?reads ?writes ~func ~key () =
  match Image.find h.image ~func ~key with
  | Image.Slot slot -> emit_instrs h ?reads ?writes slot ()
  | Image.Elided -> ()
  | Image.Unknown -> fail_unknown func key

(* Block/guard/cold/stub key strings repeat for the same few dozen block
   ids thousands of times per run; memoizing them per meter keeps string
   building off the per-block hot path.  The tables live in the meter's
   closure, so they are private to one host of one run — no cross-domain
   sharing. *)
let memo_key tbl build id =
  match Hashtbl.find tbl id with
  | s -> s
  | exception Not_found ->
    let s = build id in
    Hashtbl.add tbl id s;
    s

(* the meter for one host *)
let make_meter h =
  let khot = Hashtbl.create 64 in
  let kguard = Hashtbl.create 64 in
  let kcold = Hashtbl.create 64 in
  let kstub : (string, (int, string) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  { Meter.enter =
      (fun f ->
        h.depth <- h.depth + 1;
        emit_key h ~func:f ~key:Image.Key.pro
          ~writes:[ Meter.range ~base:(h.stack_base - (h.depth * 96)) ~len:24 () ]
          ());
    leave =
      (fun f ->
        emit_key h ~func:f ~key:Image.Key.epi
          ~reads:[ Meter.range ~base:(h.stack_base - (h.depth * 96)) ~len:24 () ]
          ();
        h.depth <- max 0 (h.depth - 1));
    block =
      (fun ?reads ?writes f b ->
        emit_key h ?reads ?writes ~func:f ~key:(memo_key khot Image.Key.hot b)
          ());
    cold =
      (fun ?reads ?writes ~triggered f b ->
        match
          Image.find h.image ~func:f ~key:(memo_key kguard Image.Key.guard b)
        with
        | Image.Elided -> () (* whole block elided *)
        | Image.Unknown -> fail_unknown f (Image.Key.guard b)
        | Image.Slot guard ->
          let outl = guard.Image.cold_outlined in
          let guard_cls =
            match (outl, triggered) with
            | true, false -> Instr.Br_not_taken
            | true, true -> Instr.Br_taken
            | false, false -> Instr.Br_taken
            | false, true -> Instr.Br_not_taken
          in
          emit_instrs h guard ~override:guard_cls ();
          if triggered then
            emit_key h ?reads ?writes ~func:f
              ~key:(memo_key kcold Image.Key.cold b) ());
    call =
      (fun f b i ->
        let inner = memo_key kstub (fun _ -> Hashtbl.create 8) b in
        let key =
          match Hashtbl.find inner i with
          | s -> s
          | exception Not_found ->
            let s = Image.Key.stub b i in
            Hashtbl.add inner i s;
            s
        in
        emit_key h ~func:f ~key ()) }

let key_hot_body = Image.Key.hot "body"

let emit_untraced h name =
  let was = h.traced in
  h.traced <- false;
  emit_key h ~func:name ~key:Image.Key.pro ();
  emit_key h ~func:name ~key:key_hot_body ();
  emit_key h ~func:name ~key:Image.Key.epi ();
  h.traced <- was

(* phase hook: untraced interrupt entry, then the work, then drain any
   unblocked continuations with an untraced context switch each.
   [rx_overhead_us] models a packet classifier in front of the inlined
   path (§3.3: 1-4 us per packet on the paper's hardware). *)
let install_phase_hook ?(rx_overhead_us = 0.0) h (env : Ns.Host_env.t) =
  env.Ns.Host_env.run_phase <-
    (fun name work ->
      (match name with
      | "rx_intr" ->
        emit_untraced h "intr_dispatch";
        if rx_overhead_us > 0.0 then begin
          h.busy_us.(0) <- h.busy_us.(0) +. rx_overhead_us;
          Ns.Sim.advance_clock h.sim rx_overhead_us
        end
      | "tx_intr" -> emit_untraced h "intr_tx"
      | _ -> ());
      work ();
      let sched = env.Ns.Host_env.sched in
      while Xk.Thread.pending sched > 0 do
        emit_untraced h "ctx_switch";
        ignore (Xk.Thread.run sched)
      done)

(* ----- runs ---------------------------------------------------------------- *)

type run_result = {
  rtts : float list;
  trace : Trace.t;
  client_image : Image.t;
  steady : Machine.Perf.report;
  cold : Machine.Perf.report;
  static_path : int * int;
  retransmissions : int;
  metrics : Obs.Metrics.t;
  events : Obs.Tracer.t;
  spans : Obs.Span.t;
  invariants : string list;
}

let layout_for config stack ?layout () =
  let layout =
    match layout with
    | Some l -> l
    | None -> Config.layout_of config.Config.version
  in
  let desc = match stack with Tcpip -> tcpip_desc | Rpc -> rpc_client_desc in
  build_image config desc ~layout

let client_units config stack =
  let desc = match stack with Tcpip -> tcpip_desc | Rpc -> rpc_client_desc in
  units_for config desc

(* [memsys] is leased by the caller for the whole run ([lease_hosts]) *)
let make_hstate ~params ~memsys ~image ~sim ~simmem =
  (* one region: [stack (8KB, grows down) | heap-touch window] *)
  let region = Xk.Simmem.alloc simmem (8192 + 8192 + touch_window) in
  let stack_base = region + 8192 in
  { params;
    image;
    memsys;
    icache = Machine.Memsys.icache memsys;
    fp = Machine.Blockcache.enabled ();
    memo = Hashtbl.create 256;
    mlat = Machine.Memsys.lat_cell memsys;
    clock = Ns.Sim.clock_cell sim;
    sim;
    trace = Trace.create ();
    rq = queue_create ();
    wq = queue_create ();
    collecting = false;
    traced = true;
    pending = -1;
    pair_mod = 0;
    depth = 0;
    stack_base;
    synth = 0;
    touch = 0;
    busy_us = [| 0.0 |] }

(* Both hosts' hierarchies, leased around a run's simulation.  They go
   back before [finish]'s offline replay leases its own, so a run holds at
   most two b-caches at once. *)
let lease_hosts params f =
  Machine.Memsys.lease params (fun cmem ->
      Machine.Memsys.lease params (fun smem -> f cmem smem))

let static_path_of (config : Config.t) desc =
  let funcs = desc.funcs config.Config.opts in
  Layout.Layout_stats.static_path_instrs funcs

(* Drive a prepared pair of hosts: [start] kicks the client, [completed]
   reads its roundtrip count, [on_roundtrip] installs the callback. *)
let drive ~sim ~(ch : hstate) ?(window_us = 5.0e6) ?(span = Obs.Span.null)
    ~start ~on_roundtrip ~completed ~rounds ~warmup () =
  let total = rounds + warmup in
  let rtts = ref [] in
  let last = ref 0.0 in
  (* the ledger's message windows share the RTT measurement's operands: the
     first opens at the same 0.0 [last] starts from, and every roll passes
     the exact [now] subtracted below — that identity is what makes the
     per-stage sums conserve bit-exactly *)
  Obs.Span.begin_run span ~at:0.0;
  on_roundtrip (fun i ->
      let now = Ns.Sim.now sim in
      if i > warmup then rtts := (now -. !last) :: !rtts;
      Obs.Span.roll span ~at:now ~measured:(i > warmup);
      last := now;
      (* collect exactly one steady-state roundtrip's trace *)
      ch.collecting <- i = warmup);
  start ();
  ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. window_us) sim);
  if completed () < total then
    failwith
      (Printf.sprintf "Engine.drive: only %d of %d roundtrips completed"
         (completed ()) total);
  List.rev !rtts

let perturb simmem seed =
  Xk.Simmem.bump simmem (seed * 1864 mod 16384 / 8 * 8)

let finish ~params ~config ~desc ~trace ~image ~sim ~rtts ~retransmissions
    ~metrics ~events ~spans =
  (* the roundtrip latency histogram rides in the same registry as the
     device/protocol counters, so one dump covers the whole run *)
  let h = Obs.Metrics.histogram metrics ~help:"roundtrip latency" "engine.rtt_us" in
  List.iter (Obs.Metrics.observe h) rtts;
  let cold, steady =
    Machine.Perf.measure (Machine.Blockcache.segment params trace)
  in
  (* quiesce-time audit: the run's counters must satisfy the metrics
     conservation laws, whatever faults were injected *)
  let iv = Invariant.create () in
  Invariant.conservation iv ~at_us:(Ns.Sim.now sim) metrics;
  { rtts;
    trace;
    client_image = image;
    steady;
    cold;
    static_path = static_path_of config desc;
    retransmissions;
    metrics;
    events;
    spans;
    invariants = List.map Invariant.render_violation (Invariant.violations iv) }

(* seeded fault plans for one run: one wire plan per segment, one device
   plan per host's LANCE (independent split streams per class inside each).
   On the pair fabric the single segment keeps its historic "wire" scope
   and seed; switched fabrics get per-segment scopes/seeds. *)
let install_fault ~seed ~metrics spec ~fabric ~client_lance ~server_lance =
  let scoped name = Obs.Metrics.scoped metrics name in
  if Ns.Fabric.is_pair fabric then
    Ns.Ether.Link.set_fault
      (Ns.Fabric.pair_link fabric)
      (Some (Ns.Fault.create ~seed ~metrics:(scoped "wire") spec))
  else begin
    let i = ref 0 in
    Ns.Fabric.iter_links fabric (fun link ->
        Ns.Ether.Link.set_fault link
          (Some
             (Ns.Fault.create ~seed:(seed + (31 * !i))
                ~metrics:(scoped (Printf.sprintf "wire%d" !i))
                spec));
        incr i)
  end;
  Ns.Lance.set_fault client_lance
    (Some (Ns.Fault.create ~seed:(seed + 101) ~metrics:(scoped "client_dev") spec));
  Ns.Lance.set_fault server_lance
    (Some (Ns.Fault.create ~seed:(seed + 211) ~metrics:(scoped "server_dev") spec))

(* tracer shared by the whole pair: client events on tid 0, server on
   tid 1, the wire itself on tid 2 *)
let tid_client = 0

let tid_server = 1

let tid_wire = 2

let make_tracer ~trace_events sim =
  if trace_events then Obs.Tracer.create ~clock:(Ns.Sim.clock_cell sim) ()
  else Obs.Tracer.null

(* span ledger shared by the whole pair: client marks carry host 0, server
   host 1, the wire host 2 (same codes as the tracer tids) *)
let make_span ~spans sim =
  if spans then Obs.Span.create ~clock:(Ns.Sim.clock_cell sim) ()
  else Obs.Span.null

let install_span span ~cenv ~senv ~fabric ~client_lance ~server_lance =
  if Obs.Span.enabled span then begin
    Ns.Host_env.set_span cenv ~host:Obs.Span.host_client span;
    Ns.Host_env.set_span senv ~host:Obs.Span.host_server span;
    (* host i's span code is i (client 0, server 1); switch-side stations
       carry host_wire so multi-hop paths telescope into wire/switch/wire *)
    Ns.Fabric.set_span fabric span ~code_of:(fun i -> i);
    Ns.Lance.set_span ~host:Obs.Span.host_client client_lance span;
    Ns.Lance.set_span ~host:Obs.Span.host_server server_lance span
  end

let install_tracer tracer ~cenv ~senv ~fabric ~client_lance ~server_lance =
  if Obs.Tracer.enabled tracer then begin
    Ns.Host_env.set_tracer cenv ~tid:tid_client tracer;
    Ns.Host_env.set_tracer senv ~tid:tid_server tracer;
    Ns.Fabric.set_tracer fabric ~tid:tid_wire tracer;
    Ns.Lance.set_tracer client_lance ~tid:tid_client tracer;
    Ns.Lance.set_tracer server_lance ~tid:tid_server tracer
  end

let compose_meter base = function
  | None -> base
  | Some extra -> Xk.Meter.both base extra

let run_tcpip ?(rx_overhead_us = 0.0) ?fault ?extra_meter ?(trace_events = false)
    ?(spans = false) ~topology ~seed ~rounds ~warmup ~params
    ~(config : Config.t) ~layout () =
  let client_image = build_image config tcpip_desc ~layout in
  let server_image = client_image in
  let net =
    T.Stack.make_net ~opts_for:(fun _ -> config.Config.opts) ~topology ()
  in
  let pair = T.Stack.pair_of_net net in
  let fabric = net.T.Stack.fabric in
  let cenv = pair.T.Stack.client.T.Stack.env in
  let senv = pair.T.Stack.server.T.Stack.env in
  let tracer = make_tracer ~trace_events pair.T.Stack.sim in
  install_tracer tracer ~cenv ~senv ~fabric
    ~client_lance:pair.T.Stack.client.T.Stack.lance
    ~server_lance:pair.T.Stack.server.T.Stack.lance;
  let span = make_span ~spans pair.T.Stack.sim in
  install_span span ~cenv ~senv ~fabric
    ~client_lance:pair.T.Stack.client.T.Stack.lance
    ~server_lance:pair.T.Stack.server.T.Stack.lance;
  perturb cenv.Ns.Host_env.simmem seed;
  perturb senv.Ns.Host_env.simmem (seed + 17);
  let trace, rtts =
    lease_hosts params (fun cmem smem ->
      let ch =
        make_hstate ~params ~memsys:cmem ~image:client_image
          ~sim:pair.T.Stack.sim ~simmem:cenv.Ns.Host_env.simmem
      in
      let sh =
        make_hstate ~params ~memsys:smem ~image:server_image
          ~sim:pair.T.Stack.sim ~simmem:senv.Ns.Host_env.simmem
      in
      cenv.Ns.Host_env.meter <- compose_meter (make_meter ch) extra_meter;
      senv.Ns.Host_env.meter <- compose_meter (make_meter sh) extra_meter;
      install_phase_hook ~rx_overhead_us ch cenv;
      install_phase_hook ~rx_overhead_us sh senv;
      let client_test, _server_test =
        T.Stack.establish pair ~rounds:(rounds + warmup)
      in
      (* faults start only after the handshake so every run reaches steady
         state; the window widens because retransmission timeouts back off *)
      (match fault with
      | None -> ()
      | Some spec ->
        install_fault ~seed:(seed lxor 0x5EED) ~metrics:pair.T.Stack.metrics
          spec ~fabric
          ~client_lance:pair.T.Stack.client.T.Stack.lance
          ~server_lance:pair.T.Stack.server.T.Stack.lance);
      let window_us = if fault = None then None else Some 60.0e6 in
      let rtts =
        drive ~sim:pair.T.Stack.sim ~ch ?window_us ~span
          ~start:(fun () -> T.Tcptest.start client_test)
          ~on_roundtrip:(T.Tcptest.set_on_roundtrip client_test)
          ~completed:(fun () -> T.Tcptest.rounds_completed client_test)
          ~rounds ~warmup ()
      in
      (ch.trace, rtts))
  in
  finish ~params ~config ~desc:tcpip_desc ~trace ~image:client_image
    ~sim:pair.T.Stack.sim ~rtts
    ~retransmissions:(T.Tcp.retransmits pair.T.Stack.client.T.Stack.tcp)
    ~metrics:pair.T.Stack.metrics ~events:tracer ~spans:span

let run_rpc ?fault ?extra_meter ?(trace_events = false) ?(spans = false)
    ~topology ~seed ~rounds ~warmup ~params ~(config : Config.t) ~layout () =
  let client_image = build_image config rpc_client_desc ~layout in
  (* the server always runs the best version (§4.2) *)
  let server_image =
    build_image (Config.make Config.All) rpc_server_desc
      ~layout:Config.Bipartite
  in
  let net =
    R.Rstack.make_net
      ~opts_for:(fun i ->
        if i = 0 then config.Config.opts else T.Opts.improved)
      ~topology ()
  in
  let pair = R.Rstack.pair_of_net net in
  let fabric = net.R.Rstack.fabric in
  let cenv = pair.R.Rstack.client.R.Rstack.env in
  let senv = pair.R.Rstack.server.R.Rstack.env in
  let tracer = make_tracer ~trace_events pair.R.Rstack.sim in
  install_tracer tracer ~cenv ~senv ~fabric
    ~client_lance:pair.R.Rstack.client.R.Rstack.lance
    ~server_lance:pair.R.Rstack.server.R.Rstack.lance;
  let span = make_span ~spans pair.R.Rstack.sim in
  install_span span ~cenv ~senv ~fabric
    ~client_lance:pair.R.Rstack.client.R.Rstack.lance
    ~server_lance:pair.R.Rstack.server.R.Rstack.lance;
  perturb cenv.Ns.Host_env.simmem seed;
  perturb senv.Ns.Host_env.simmem (seed + 17);
  let trace, rtts =
    lease_hosts params (fun cmem smem ->
      let ch =
        make_hstate ~params ~memsys:cmem ~image:client_image
          ~sim:pair.R.Rstack.sim ~simmem:cenv.Ns.Host_env.simmem
      in
      let sh =
        make_hstate ~params ~memsys:smem ~image:server_image
          ~sim:pair.R.Rstack.sim ~simmem:senv.Ns.Host_env.simmem
      in
      cenv.Ns.Host_env.meter <- compose_meter (make_meter ch) extra_meter;
      senv.Ns.Host_env.meter <- compose_meter (make_meter sh) extra_meter;
      install_phase_hook ch cenv;
      install_phase_hook sh senv;
      let client_test, _server_test =
        R.Rstack.make_tests pair ~rounds:(rounds + warmup)
      in
      (match fault with
      | None -> ()
      | Some spec ->
        install_fault ~seed:(seed lxor 0x5EED) ~metrics:pair.R.Rstack.metrics
          spec ~fabric
          ~client_lance:pair.R.Rstack.client.R.Rstack.lance
          ~server_lance:pair.R.Rstack.server.R.Rstack.lance);
      let window_us = if fault = None then None else Some 60.0e6 in
      let rtts =
        drive ~sim:pair.R.Rstack.sim ~ch ?window_us ~span
          ~start:(fun () -> R.Xrpctest.start client_test)
          ~on_roundtrip:(R.Xrpctest.set_on_roundtrip client_test)
          ~completed:(fun () -> R.Xrpctest.rounds_completed client_test)
          ~rounds ~warmup ()
      in
      (ch.trace, rtts))
  in
  finish ~params ~config ~desc:rpc_client_desc ~trace ~image:client_image
    ~sim:pair.R.Rstack.sim ~rtts
    ~retransmissions:
      (R.Chan.request_retransmits pair.R.Rstack.client.R.Rstack.chan)
    ~metrics:pair.R.Rstack.metrics ~events:tracer ~spans:span

(* ----- run specification: the single construction path for runs -------- *)

module Spec = struct
  type t = {
    stack : stack_kind;
    config : Config.t;
    topology : Ns.Topology.t;
        (* wiring between the two endpoints: [pair] is the historic direct
           link; [star]/[line] with 2 hosts route through the switched
           fabric (store-and-forward adds per-hop latency and spans) *)
    seed : int;
    rounds : int;
    warmup : int;
    params : Machine.Params.t;
    layout : Config.layout option;
    rx_overhead_us : float;
    fault : Ns.Fault.spec option;
    extra_meter : Xk.Meter.t option;
    trace_events : bool;
    spans : bool option;
        (* None: follow the PROTOLAT_SPANS environment knob *)
  }

  let make ?(topology = Ns.Topology.pair ()) ?(seed = 42) ?(rounds = 24)
      ?(warmup = 8) ?(params = Machine.Params.default) ?layout
      ?(rx_overhead_us = 0.0) ?fault ?extra_meter ?(trace_events = false)
      ?spans ~stack ~config () =
    { stack;
      config;
      topology;
      seed;
      rounds;
      warmup;
      params;
      layout;
      rx_overhead_us;
      fault;
      extra_meter;
      trace_events;
      spans }

  let default ~stack ~config = make ~stack ~config ()

  let with_seed seed t = { t with seed }
end

let run (spec : Spec.t) =
  let { Spec.stack;
        config;
        topology;
        seed;
        rounds;
        warmup;
        params;
        layout;
        rx_overhead_us;
        fault;
        extra_meter;
        trace_events;
        spans } =
    spec
  in
  if Ns.Topology.hosts topology <> 2 then
    invalid_arg
      "Engine.run: spec topology must have exactly 2 hosts (use Incast for \
       N-host fabric scenarios)";
  let spans = match spans with Some b -> b | None -> Obs.Span.knob_on () in
  let layout =
    match layout with
    | Some l -> l
    | None -> Config.layout_of config.Config.version
  in
  match stack with
  | Tcpip ->
    run_tcpip ~rx_overhead_us ?fault ?extra_meter ~trace_events ~spans
      ~topology ~seed ~rounds ~warmup ~params ~config ~layout ()
  | Rpc ->
    run_rpc ?fault ?extra_meter ~trace_events ~spans ~topology ~seed ~rounds
      ~warmup ~params ~config ~layout ()

(* ----- bulk-transfer throughput (§4.1: "none of the techniques
   negatively affected throughput"; §2.2.5: CPU utilization) ------------- *)

type throughput_result = {
  mbits_per_s : float;
  elapsed_us : float;
  client_cpu_pct : float;  (** client CPU busy share during the transfer *)
  server_cpu_pct : float;
  segments : int;
}

let throughput ?(bytes = 64 * 1024) ?(params = Machine.Params.default)
    ?(topology = Ns.Topology.pair ()) ~(config : Config.t) () =
  lease_hosts params (fun cmem smem ->
      let layout = Config.layout_of config.Config.version in
      let client_image = build_image config tcpip_desc ~layout in
      let pair =
        T.Stack.pair_of_net
          (T.Stack.make_net
             ~opts_for:(fun _ -> config.Config.opts)
             ~topology ())
      in
      let cenv = pair.T.Stack.client.T.Stack.env in
      let senv = pair.T.Stack.server.T.Stack.env in
      let ch =
        make_hstate ~params ~memsys:cmem ~image:client_image
          ~sim:pair.T.Stack.sim ~simmem:cenv.Ns.Host_env.simmem
      in
      let sh =
        make_hstate ~params ~memsys:smem ~image:client_image
          ~sim:pair.T.Stack.sim ~simmem:senv.Ns.Host_env.simmem
      in
      cenv.Ns.Host_env.meter <- make_meter ch;
      senv.Ns.Host_env.meter <- make_meter sh;
      install_phase_hook ch cenv;
      install_phase_hook sh senv;
      let received = ref 0 in
      T.Tcp.listen pair.T.Stack.server.T.Stack.tcp ~port:5001
        ~receive:(fun _ data -> received := !received + Bytes.length data);
      let session =
        T.Tcp.connect pair.T.Stack.client.T.Stack.tcp ~local_port:3000
          ~remote_ip:pair.T.Stack.server.T.Stack.ip_addr ~remote_port:5001
          ~receive:(fun _ _ -> ())
      in
      let sim = pair.T.Stack.sim in
      ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 50_000.0) sim);
      if T.Tcp.state session <> T.Tcb.Established then
        failwith "Engine.throughput: handshake failed";
      let t0 = Ns.Sim.now pair.T.Stack.sim in
      let cpu0_c = ch.busy_us.(0) and cpu0_s = sh.busy_us.(0) in
      Ns.Host_env.phase cenv "bulk_send" (fun () ->
          T.Tcp.send session (Bytes.make bytes 'b'));
      let deadline = t0 +. 10.0e6 in
      let rec pump () =
        if !received < bytes && Ns.Sim.now sim < deadline then begin
          ignore (Ns.Sim.run ~until:(Ns.Sim.now sim +. 10_000.0) sim);
          pump ()
        end
      in
      pump ();
      if !received < bytes then
        failwith
          (Printf.sprintf "Engine.throughput: only %d of %d bytes arrived"
             !received bytes);
      let elapsed = Ns.Sim.now pair.T.Stack.sim -. t0 in
      let cb = T.Tcp.tcb session in
      { mbits_per_s = float_of_int (bytes * 8) /. elapsed;
        elapsed_us = elapsed;
        client_cpu_pct = 100.0 *. (ch.busy_us.(0) -. cpu0_c) /. elapsed;
        server_cpu_pct = 100.0 *. (sh.busy_us.(0) -. cpu0_s) /. elapsed;
        segments = cb.T.Tcb.segments_out })

type sample_set = {
  rtt : Util.Stats.summary;
  result : run_result;
}

let sample_seed i = 1000 + (i * 7919)

let collect results =
  let n = List.length results in
  if n = 0 then invalid_arg "Engine.collect: no results";
  let means = List.map (fun r -> Util.Stats.mean r.rtts) results in
  { rtt = Util.Stats.summarize means; result = List.nth results (n - 1) }

let sample ?(samples = 10) ?(jobs = 1) (spec : Spec.t) =
  let tasks =
    List.init samples (fun i ->
        fun () -> run (Spec.with_seed (sample_seed i) spec))
  in
  collect (Util.Dpool.run ~jobs tasks)
