type report = {
  length : int;
  stats : Memsys.stats;
  issue_cycles : float;
  instr_cycles : float;
  total_cycles : float;
  icpi : float;
  mcpi : float;
  cpi : float;
  time_us : float;
}

(* The [icpi]/[mcpi]/[cpi]/[time_us] derivations live here so that [cold]
   (which runs the CPU scans itself) and [measure] (which reads them from
   the segmentation) produce bit-identical reports. *)
let derive p ~length ~issue_cycles ~instr_cycles (stats : Memsys.stats) =
  let total_cycles = instr_cycles +. stats.Memsys.stall_cycles in
  let flen = float_of_int (max length 1) in
  { length;
    stats;
    issue_cycles;
    instr_cycles;
    total_cycles;
    icpi = instr_cycles /. flen;
    mcpi = stats.Memsys.stall_cycles /. flen;
    cpi = total_cycles /. flen;
    time_us = Params.cycles_to_us p total_cycles }

let cold p trace =
  (* A single replay from empty caches gains nothing from the warm-block
     memo (no run is warm yet), so the plain loop is used. *)
  let stats =
    Memsys.lease p (fun m ->
        ignore (Memsys.run m trace);
        Memsys.stats m)
  in
  derive p ~length:(Trace.length trace)
    ~issue_cycles:(Cpu.issue_cycles p trace)
    ~instr_cycles:(Cpu.perfect_memory_cycles p trace)
    stats

let report_of bc m =
  derive (Blockcache.params bc)
    ~length:(Trace.length (Blockcache.trace bc))
    ~issue_cycles:(Blockcache.issue_cycles bc)
    ~instr_cycles:(Blockcache.instr_cycles bc)
    (Memsys.stats m)

let measure ?(warmup = 3) bc =
  Memsys.lease (Blockcache.params bc) (fun m ->
      (* fast-path counters describe the measured replay alone, never
         warmup or earlier runs against this segmentation *)
      Blockcache.reset_counters bc;
      (* The first replay from empty caches IS the cold measurement, and
         doubles as the first warmup iteration of the steady one. *)
      Blockcache.replay bc m;
      let cold = report_of bc m in
      if warmup <= 0 then (cold, cold)
      else begin
        for _ = 2 to warmup do
          Blockcache.replay bc m
        done;
        Memsys.reset_stats m;
        Blockcache.reset_counters bc;
        Blockcache.replay bc m;
        (cold, report_of bc m)
      end)

let steady ?warmup p trace = snd (measure ?warmup (Blockcache.segment p trace))

let pp_report fmt r =
  Format.fprintf fmt
    "len=%d cycles=%.0f time=%.1fus CPI=%.2f iCPI=%.2f mCPI=%.2f [%a]" r.length
    r.total_cycles r.time_us r.cpi r.icpi r.mcpi Memsys.pp_stats r.stats
