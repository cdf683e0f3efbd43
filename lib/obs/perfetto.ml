type process = {
  pid : int;
  pname : string;
  threads : (int * string) list;
  tracer : Tracer.t;
}

let meta ~pid ?tid ~name ~label () =
  Json.Obj
    ([ ("ph", Json.Str "M"); ("pid", Json.int pid) ]
    @ (match tid with None -> [] | Some tid -> [ ("tid", Json.int tid) ])
    @ [ ("name", Json.Str name);
        ("args", Json.Obj [ ("name", Json.Str label) ]) ])

let event ~pid (e : Tracer.event) =
  let ph, extra =
    match e.Tracer.phase with
    | `Instant -> ("i", [ ("s", Json.Str "t") ])
    | `Begin -> ("b", [ ("id", Json.int e.Tracer.id) ])
    | `End -> ("e", [ ("id", Json.int e.Tracer.id) ])
  in
  Json.Obj
    ([ ("name", Json.Str e.Tracer.name);
       ("cat", Json.Str e.Tracer.cat);
       ("ph", Json.Str ph) ]
    @ extra
    @ [ ("ts", Json.Num e.Tracer.ts);
        ("pid", Json.int pid);
        ("tid", Json.int e.Tracer.tid);
        ("args", Json.Obj [ ("a0", Json.int e.Tracer.a0) ]) ])

type span_track = {
  span_pid : int;
  span_pname : string;
  msgs : Span.message array;
}

(* Span segments render as complete ("X") slices on one thread per host;
   each wire hop additionally carries a flow arrow (ph "s" on the sending
   host's slice, ph "f" on the receiving host's slice) so tx→rx causality
   across hosts renders as an arc in the Perfetto UI. *)
let add_span_events emit ~flow_id t =
  let flow ph ~id (s : Span.seg) =
    Json.Obj
      ([ ("name", Json.Str "msg");
         ("cat", Json.Str "flow");
         ("ph", Json.Str ph) ]
      @ (if ph = "f" then [ ("bp", Json.Str "e") ] else [])
      @ [ ("id", Json.int id);
          ("ts", Json.Num s.Span.t0_us);
          ("pid", Json.int t.span_pid);
          ("tid", Json.int s.Span.host) ])
  in
  Array.iter
    (fun (m : Span.message) ->
      let segs = m.Span.segs in
      Array.iteri
        (fun j (s : Span.seg) ->
          emit
            (Json.Obj
               [ ("name", Json.Str (Span.stage_name s.Span.stage));
                 ("cat", Json.Str "span");
                 ("ph", Json.Str "X");
                 ("ts", Json.Num s.Span.t0_us);
                 ("dur", Json.Num (Float.max 0.0 s.Span.dur_us));
                 ("pid", Json.int t.span_pid);
                 ("tid", Json.int s.Span.host);
                 ( "args",
                   Json.Obj
                     [ ("msg", Json.int m.Span.id);
                       ("gen", Json.int s.Span.gen) ]
                 ) ]);
          if
            s.Span.stage = Span.stage_wire
            && j > 0
            && j + 1 < Array.length segs
            && segs.(j + 1).Span.stage = Span.stage_rx_intr
          then begin
            let id = !flow_id in
            incr flow_id;
            emit (flow "s" ~id segs.(j - 1));
            emit (flow "f" ~id segs.(j + 1))
          end)
        segs)
    t.msgs

let to_json ?(spans = []) processes =
  let events = ref [] in
  let emit e = events := e :: !events in
  List.iter
    (fun p ->
      emit (meta ~pid:p.pid ~name:"process_name" ~label:p.pname ());
      List.iter
        (fun (tid, label) ->
          emit (meta ~pid:p.pid ~tid ~name:"thread_name" ~label ()))
        p.threads)
    processes;
  List.iter
    (fun t ->
      emit (meta ~pid:t.span_pid ~name:"process_name" ~label:t.span_pname ());
      for h = 0 to Span.n_hosts - 1 do
        emit
          (meta ~pid:t.span_pid ~tid:h ~name:"thread_name"
             ~label:(Span.host_name h) ())
      done)
    spans;
  List.iter
    (fun p -> Tracer.iter p.tracer (fun e -> emit (event ~pid:p.pid e)))
    processes;
  let flow_id = ref 0 in
  List.iter (add_span_events emit ~flow_id) spans;
  Json.Obj
    [ ("schema_version", Json.int Json.schema_version);
      ("traceEvents", Json.Arr (List.rev !events));
      ("displayTimeUnit", Json.Str "ms") ]
