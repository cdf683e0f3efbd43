module Machine = Protolat_machine
module Layout = Protolat_layout
module Trace = Machine.Trace
module Cache = Machine.Cache
module Memsys = Machine.Memsys
module Cpu = Machine.Cpu
module Params = Machine.Params
module Image = Layout.Image

type row = {
  func : string;
  instrs : int;
  issue : float;
  penalty : float;
  stall : float;
  imiss : int;
  imiss_cold : int;
  imiss_repl : int;
  dwb_miss : int;
}

let cycles r = r.issue +. r.penalty +. r.stall

let mcpi r = if r.instrs = 0 then 0.0 else r.stall /. float_of_int r.instrs

type conflict = {
  victim : string;
  evictor : string;
  count : int;
}

type t = {
  rows : row list;
  conflicts : conflict list;
  cold_imisses : int;
  totals : row;
}

let self_imisses t =
  List.fold_left
    (fun acc c -> if c.victim = c.evictor then acc + c.count else acc)
    0 t.conflicts

let cross_imisses t =
  List.fold_left
    (fun acc c -> if c.victim <> c.evictor then acc + c.count else acc)
    0 t.conflicts

(* Typed hottest-pairs query so layout tooling never re-reads the raw
   matrix.  Equal counts tie-break on (victim, evictor) — the order, and
   anything derived from it (move-generator proposals, search digests), is
   deterministic. *)
let top_conflicts ?(k = 10) ?(cross_only = false) t =
  let eligible =
    if cross_only then
      List.filter (fun c -> c.victim <> c.evictor) t.conflicts
    else t.conflicts
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare b.count a.count with
        | 0 -> (
          match compare a.victim b.victim with
          | 0 -> compare a.evictor b.evictor
          | c -> c)
        | c -> c)
      eligible
  in
  List.filteri (fun i _ -> i < k) sorted

(* Mutable per-function accumulator (columns of one [row]). *)
type acc = {
  mutable a_instrs : int;
  mutable a_issue : float;
  mutable a_penalty : float;
  mutable a_stall : float;
  mutable a_imiss : int;
  mutable a_cold : int;
  mutable a_repl : int;
  mutable a_dwb : int;
}

let fresh_acc () =
  { a_instrs = 0;
    a_issue = 0.0;
    a_penalty = 0.0;
    a_stall = 0.0;
    a_imiss = 0;
    a_cold = 0;
    a_repl = 0;
    a_dwb = 0 }

(* Map each i-stream block to the function owning it (first slot wins;
   [Image.slots] is in address order).  Used only to name eviction
   victims — the {e evictor} side comes from the trace's own fid tags. *)
let block_owners image ~block_bytes =
  let tbl = Hashtbl.create 512 in
  List.iter
    (fun (s : Image.slot) ->
      Array.iter
        (fun pc ->
          let b = pc / block_bytes in
          if not (Hashtbl.mem tbl b) then Hashtbl.add tbl b s.Image.func)
        s.Image.pcs)
    (Image.slots image);
  tbl

let profile ?(mode = `Steady) ?(warmup = 3) p image trace =
  let n = Trace.length trace in
  let nf = Trace.n_funcs trace in
  let name_of idx = if idx < nf then Trace.func_name trace idx else "(untagged)" in
  let accs = Array.init (nf + 1) (fun _ -> fresh_acc ()) in
  let idx_of fid = if fid < 0 then nf else fid in
  let owners = block_owners image ~block_bytes:p.Params.block_bytes in
  let owner_of block =
    match Hashtbl.find_opt owners block with
    | Some f -> f
    | None -> "(unknown)"
  in
  let conflicts : (string * string, int ref) Hashtbl.t = Hashtbl.create 64 in
  let cold_total = ref 0 in
  Memsys.lease p (fun m ->
    (match mode with
    | `Cold -> ()
    | `Steady ->
      (* mirror Perf.steady exactly: untimed warmup replays, then reset *)
      for _ = 1 to warmup do
        ignore (Memsys.run m trace)
      done;
      Memsys.reset_stats m);
    let ic = Memsys.icache m in
    (* Replicate Cpu.issue_cycles's pairing walk: one issue cycle per group
       (charged to the group's first instruction), every instruction then
       pays its own pipeline penalty and memory stalls.  The column sums are
       therefore bit-identical to the aggregate Perf report. *)
    let i = ref 0 in
    let attempts = ref 0 in
    while !i < n do
      let a = Trace.cls_at trace !i in
      let structurally = !i + 1 < n && Cpu.can_pair a (Trace.cls_at trace (!i + 1)) in
      let paired =
        structurally
        && begin
             incr attempts;
             !attempts * p.Params.pair_success_pct mod 100
             < p.Params.pair_success_pct
           end
      in
      (accs.(idx_of (Trace.fid_at trace !i))).a_issue <-
        (accs.(idx_of (Trace.fid_at trace !i))).a_issue +. 1.0;
      let last = if paired then !i + 1 else !i in
      for k = !i to last do
        let acc = accs.(idx_of (Trace.fid_at trace k)) in
        let cls = Trace.cls_at trace k in
        let pc = Trace.pc_at trace k in
        acc.a_instrs <- acc.a_instrs + 1;
        acc.a_penalty <- acc.a_penalty +. Cpu.penalty p cls;
        let im0 = Cache.misses ic in
        let cold0 = Cache.cold_misses ic in
        let dm0 = Memsys.dwb_misses m in
        let stall =
          Memsys.access m ~pc ~kind:(Trace.kind_at trace k)
            ~addr:(Trace.addr_at trace k)
        in
        acc.a_stall <- acc.a_stall +. stall;
        acc.a_dwb <- acc.a_dwb + (Memsys.dwb_misses m - dm0);
        if Cache.misses ic > im0 then begin
          acc.a_imiss <- acc.a_imiss + 1;
          if Cache.cold_misses ic > cold0 then begin
            acc.a_cold <- acc.a_cold + 1;
            incr cold_total
          end
          else begin
            acc.a_repl <- acc.a_repl + 1;
            let victim = Cache.last_victim ic in
            let vname = if victim < 0 then "(none)" else owner_of victim in
            let ename =
              let fid = Trace.fid_at trace k in
              if fid >= 0 then Trace.func_name trace fid
              else owner_of (pc / p.Params.block_bytes)
            in
            let key = (vname, ename) in
            match Hashtbl.find_opt conflicts key with
            | Some r -> incr r
            | None -> Hashtbl.add conflicts key (ref 1)
          end
        end
      done;
      i := last + 1
    done);
  let row_of name (a : acc) =
    { func = name;
      instrs = a.a_instrs;
      issue = a.a_issue;
      penalty = a.a_penalty;
      stall = a.a_stall;
      imiss = a.a_imiss;
      imiss_cold = a.a_cold;
      imiss_repl = a.a_repl;
      dwb_miss = a.a_dwb }
  in
  let rows =
    Array.to_list (Array.mapi (fun idx a -> row_of (name_of idx) a) accs)
    |> List.filter (fun r -> r.instrs > 0)
    |> List.sort (fun a b -> compare a.func b.func)
  in
  let totals =
    List.fold_left
      (fun t r ->
        { t with
          instrs = t.instrs + r.instrs;
          issue = t.issue +. r.issue;
          penalty = t.penalty +. r.penalty;
          stall = t.stall +. r.stall;
          imiss = t.imiss + r.imiss;
          imiss_cold = t.imiss_cold + r.imiss_cold;
          imiss_repl = t.imiss_repl + r.imiss_repl;
          dwb_miss = t.dwb_miss + r.dwb_miss })
      (row_of "TOTAL" (fresh_acc ()))
      rows
  in
  let conflicts =
    Hashtbl.fold
      (fun (victim, evictor) r l -> { victim; evictor; count = !r } :: l)
      conflicts []
    |> List.sort (fun a b ->
           match compare a.victim b.victim with
           | 0 -> compare a.evictor b.evictor
           | c -> c)
  in
  { rows; conflicts; cold_imisses = !cold_total; totals }
