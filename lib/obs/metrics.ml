type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = {
  bounds : float array;
  counts : int array; (* length = Array.length bounds + 1 (+inf bucket) *)
  mutable hsum : float;
  mutable hn : int;
}

type metric =
  | MC of counter
  | MG of gauge
  | MH of histogram

type t = {
  pfx : string;
  tbl : (string, metric) Hashtbl.t; (* shared by every scope of a root *)
}

let create () = { pfx = ""; tbl = Hashtbl.create 64 }

let scoped t prefix = { t with pfx = t.pfx ^ prefix ^ "." }

let prefix t = t.pfx

let kind_name = function
  | MC _ -> "counter"
  | MG _ -> "gauge"
  | MH _ -> "histogram"

let register t name make match_ =
  let full = t.pfx ^ name in
  match Hashtbl.find_opt t.tbl full with
  | Some m -> (
    match match_ m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s" full
           (kind_name m)))
  | None ->
    let m, v = make () in
    Hashtbl.add t.tbl full m;
    v

let counter t ?help:_ name =
  register t name
    (fun () ->
      let c = { c = 0 } in
      (MC c, c))
    (function MC c -> Some c | _ -> None)

let inc c = c.c <- c.c + 1

let add c n = c.c <- c.c + n

let value c = c.c

let gauge t ?help:_ name =
  register t name
    (fun () ->
      let g = { g = 0.0 } in
      (MG g, g))
    (function MG g -> Some g | _ -> None)

let set g v = g.g <- v

let gauge_value g = g.g

(* decade-ish µs latency buckets: fine near protocol-processing scale,
   coarse out to retransmission-timeout scale *)
let default_bounds =
  [| 10.; 20.; 50.; 100.; 200.; 500.; 1_000.; 2_000.; 5_000.; 10_000.;
     100_000.; 1_000_000. |]

let histogram t ?help:_ ?(bounds = default_bounds) name =
  register t name
    (fun () ->
      let h =
        { bounds = Array.copy bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          hsum = 0.0;
          hn = 0 }
      in
      (MH h, h))
    (function MH h -> Some h | _ -> None)

let observe h v =
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
  let b = bucket 0 in
  h.counts.(b) <- h.counts.(b) + 1;
  h.hsum <- h.hsum +. v;
  h.hn <- h.hn + 1

let histogram_count h = h.hn

let histogram_sum h = h.hsum

type sample =
  | Counter of int
  | Gauge of float
  | Histogram of {
      bounds : float array;
      counts : int array;
      count : int;
      sum : float;
    }

let sample_of = function
  | MC c -> Counter c.c
  | MG g -> Gauge g.g
  | MH h ->
    Histogram
      { bounds = Array.copy h.bounds;
        counts = Array.copy h.counts;
        count = h.hn;
        sum = h.hsum }

let dump t =
  Hashtbl.fold (fun name m acc -> (name, sample_of m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find t name =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> Some (sample_of m)
  | None -> None

(* fixed-format float rendering so dumps are bit-identical across runs *)
let f v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

let render t =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, s) ->
      match s with
      | Counter n -> Buffer.add_string buf (Printf.sprintf "%-40s %d\n" name n)
      | Gauge v -> Buffer.add_string buf (Printf.sprintf "%-40s %s\n" name (f v))
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf "%-40s count=%d sum=%s\n" name h.count (f h.sum)))
    (dump t);
  Buffer.contents buf

let to_json t =
  let all = dump t in
  let section pick =
    Json.Obj
      (List.filter_map
         (fun (k, s) -> Option.map (fun v -> (k, v)) (pick s))
         all)
  in
  Json.Obj
    [ ("schema_version", Json.int Json.schema_version);
      ( "counters",
        section (function Counter n -> Some (Json.int n) | _ -> None) );
      ("gauges", section (function Gauge v -> Some (Json.Num v) | _ -> None));
      ( "histograms",
        section (function
          | Histogram { bounds; counts; count; sum } ->
            let bucket i c =
              let le =
                if i < Array.length bounds then Json.Num bounds.(i)
                else Json.Str "inf"
              in
              Json.Arr [ le; Json.int c ]
            in
            Some
              (Json.Obj
                 [ ("count", Json.int count);
                   ("sum", Json.Num sum);
                   ( "buckets",
                     Json.Arr (List.mapi bucket (Array.to_list counts)) )
                 ])
          | _ -> None) ) ]
