module Obs = Protolat_obs

type t = {
  stack : Engine.stack_kind;
  version : Config.version;
  processes : Obs.Perfetto.process list;
  results : Engine.run_result list;
}

let seed_of ~base_seed i = base_seed + (i * 7919)

let collect ?(base_seed = 42) ?(seeds = 1) ?(rounds = 12) ?fault ?jobs ~stack
    ~version () =
  let config = Config.make version in
  let results =
    Protolat_util.Dpool.run ?jobs
      (List.init seeds (fun i ->
           fun () ->
            Engine.run
              (Engine.Spec.make ~seed:(seed_of ~base_seed i) ~rounds ?fault
                 ~trace_events:true ~stack ~config ())))
  in
  let processes =
    List.mapi
      (fun i (r : Engine.run_result) ->
        { Obs.Perfetto.pid = i;
          pname =
            Printf.sprintf "%s/%s seed=%d" (Engine.stack_name stack)
              (Config.version_name version)
              (seed_of ~base_seed i);
          threads = [ (0, "client"); (1, "server"); (2, "wire") ];
          tracer = r.Engine.events })
      results
  in
  { stack; version; processes; results }

let to_json t = Obs.Perfetto.to_json t.processes

let events t =
  List.fold_left
    (fun acc (r : Engine.run_result) -> acc + Obs.Tracer.length r.Engine.events)
    0 t.results

let raw t =
  let b = Buffer.create 4096 in
  List.iter
    (fun (r : Engine.run_result) ->
      Obs.Tracer.iter r.Engine.events (fun (e : Obs.Tracer.event) ->
          Printf.bprintf b "%12.3f  tid=%d  %-5s %s/%s"
            e.Obs.Tracer.ts e.Obs.Tracer.tid
            (match e.Obs.Tracer.phase with
            | `Instant -> "inst"
            | `Begin -> "begin"
            | `End -> "end")
            e.Obs.Tracer.cat e.Obs.Tracer.name;
          if e.Obs.Tracer.id >= 0 then
            Printf.bprintf b " id=%d" e.Obs.Tracer.id;
          Printf.bprintf b " a0=%d\n" e.Obs.Tracer.a0))
    t.results;
  Buffer.contents b
