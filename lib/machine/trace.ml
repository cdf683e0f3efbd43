type access =
  | Read of int
  | Write of int

type event = {
  pc : int;
  cls : Instr.cls;
  access : access option;
}

(* Struct-of-arrays storage: one int column per field instead of a vector
   of boxed event records.  The simulator's hot path appends tens of
   thousands of events per roundtrip; packing them into flat int arrays
   means appending allocates nothing (amortized) and replaying is a linear
   scan with no pointer chasing — the paper's own §2.2 medicine applied to
   the simulator itself. *)
type t = {
  mutable pcs : int array;
  mutable clss : int array;  (* Instr.code *)
  mutable kinds : int array;  (* access kind: kind_none/read/write *)
  mutable addrs : int array;  (* data address; 0 when kind_none *)
  mutable fids : int array;  (* interned originating-function id; -1 = none *)
  mutable len : int;
  intern_tbl : (string, int) Hashtbl.t;
  mutable funcs : string array;
  mutable n_funcs : int;
}

let kind_none = 0

let kind_read = 1

let kind_write = 2

let create () =
  { pcs = [||];
    clss = [||];
    kinds = [||];
    addrs = [||];
    fids = [||];
    len = 0;
    intern_tbl = Hashtbl.create 32;
    funcs = [||];
    n_funcs = 0 }

let length t = t.len

let intern t name =
  match Hashtbl.find_opt t.intern_tbl name with
  | Some i -> i
  | None ->
    if t.n_funcs = Array.length t.funcs then begin
      let a = Array.make (max 32 (2 * t.n_funcs)) "" in
      Array.blit t.funcs 0 a 0 t.n_funcs;
      t.funcs <- a
    end;
    let i = t.n_funcs in
    t.funcs.(i) <- name;
    t.n_funcs <- i + 1;
    Hashtbl.add t.intern_tbl name i;
    i

let n_funcs t = t.n_funcs

let func_name t i = t.funcs.(i)

let grow t needed =
  let cap = max 1024 (max needed (2 * Array.length t.pcs)) in
  let g fill a =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.pcs <- g 0 t.pcs;
  t.clss <- g 0 t.clss;
  t.kinds <- g 0 t.kinds;
  t.addrs <- g 0 t.addrs;
  t.fids <- g (-1) t.fids

let add_packed t ~pc ~cls ~kind ~addr ~fid =
  if t.len = Array.length t.pcs then grow t (t.len + 1);
  let i = t.len in
  t.pcs.(i) <- pc;
  t.clss.(i) <- Instr.code cls;
  t.kinds.(i) <- kind;
  t.addrs.(i) <- addr;
  t.fids.(i) <- fid;
  t.len <- i + 1

let add t ~pc ~cls ?access ?(fid = -1) () =
  match access with
  | None -> add_packed t ~pc ~cls ~kind:kind_none ~addr:0 ~fid
  | Some (Read a) -> add_packed t ~pc ~cls ~kind:kind_read ~addr:a ~fid
  | Some (Write a) -> add_packed t ~pc ~cls ~kind:kind_write ~addr:a ~fid

let pc_at t i = t.pcs.(i)

let pcs t = t.pcs

let cls_at t i = Instr.of_code t.clss.(i)

let kind_at t i = t.kinds.(i)

let addr_at t i = t.addrs.(i)

let fid_at t i = t.fids.(i)

let access_at t i =
  match t.kinds.(i) with
  | 0 -> None
  | 1 -> Some (Read t.addrs.(i))
  | _ -> Some (Write t.addrs.(i))

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  { pc = t.pcs.(i); cls = cls_at t i; access = access_at t i }

let iter f t =
  for i = 0 to t.len - 1 do
    f { pc = t.pcs.(i); cls = cls_at t i; access = access_at t i }
  done

let append dst src =
  let n = dst.len + src.len in
  if n > Array.length dst.pcs then grow dst n;
  Array.blit src.pcs 0 dst.pcs dst.len src.len;
  Array.blit src.clss 0 dst.clss dst.len src.len;
  Array.blit src.kinds 0 dst.kinds dst.len src.len;
  Array.blit src.addrs 0 dst.addrs dst.len src.len;
  (* fids are per-trace intern ids: remap through dst's table *)
  for i = 0 to src.len - 1 do
    let fid = src.fids.(i) in
    dst.fids.(dst.len + i) <-
      (if fid < 0 then -1 else intern dst src.funcs.(fid))
  done;
  dst.len <- n

let map_pcs f t =
  { t with
    pcs = Array.map f (Array.sub t.pcs 0 t.len);
    clss = Array.sub t.clss 0 t.len;
    kinds = Array.sub t.kinds 0 t.len;
    addrs = Array.sub t.addrs 0 t.len;
    fids = Array.sub t.fids 0 t.len;
    intern_tbl = Hashtbl.copy t.intern_tbl;
    funcs = Array.copy t.funcs }

(* Like [map_pcs] but with the rewritten pc column supplied directly:
   a layout-search scorer precomputes, once per base trace, where each
   event's pc lives in the image (slot ordinal + index within the slot),
   then fills one int array per candidate instead of paying a closure
   call plus an [Image.find] per event.  The array is adopted as-is; the
   caller must not mutate it afterwards. *)
let remap_pcs t pcs =
  if Array.length pcs <> t.len then invalid_arg "Trace.remap_pcs";
  (* the metadata columns are shared, not copied: reads are bounded by
     [len], appends to [t] only touch indices >= [len] (or reallocate),
     and the result's own [pcs] is at capacity so appending to it forces
     a reallocation of every column before anything shared is written *)
  { t with pcs }

let class_counts t =
  let counts = Array.make Instr.n_classes 0 in
  for i = 0 to t.len - 1 do
    let c = t.clss.(i) in
    counts.(c) <- counts.(c) + 1
  done;
  List.map (fun c -> (c, counts.(Instr.code c))) Instr.all

let taken_branch_fraction t =
  let taken_code = Instr.code Instr.Br_taken in
  let taken = ref 0 in
  for i = 0 to t.len - 1 do
    if t.clss.(i) = taken_code then incr taken
  done;
  if t.len = 0 then 0.0 else float_of_int !taken /. float_of_int t.len

let distinct_blocks t ~block_bytes =
  let seen = Hashtbl.create 256 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace seen (t.pcs.(i) / block_bytes) ()
  done;
  Hashtbl.length seen

let touched_instr_offsets t =
  let seen = Hashtbl.create 1024 in
  for i = 0 to t.len - 1 do
    Hashtbl.replace seen t.pcs.(i) ()
  done;
  seen

(* ----- serialization ----------------------------------------------------- *)

let cls_to_tag = function
  | Instr.Alu -> "alu"
  | Instr.Load -> "ld"
  | Instr.Store -> "st"
  | Instr.Br_taken -> "bt"
  | Instr.Br_not_taken -> "bn"
  | Instr.Jsr -> "jsr"
  | Instr.Ret -> "ret"
  | Instr.Mul -> "mul"
  | Instr.Nop -> "nop"

let cls_of_tag = function
  | "alu" -> Instr.Alu
  | "ld" -> Instr.Load
  | "st" -> Instr.Store
  | "bt" -> Instr.Br_taken
  | "bn" -> Instr.Br_not_taken
  | "jsr" -> Instr.Jsr
  | "ret" -> Instr.Ret
  | "mul" -> Instr.Mul
  | "nop" -> Instr.Nop
  | s -> failwith ("Trace: unknown instruction class " ^ s)

let event_to_string t i =
  let pc = t.pcs.(i) in
  let tag = cls_to_tag (cls_at t i) in
  let core =
    match t.kinds.(i) with
    | 0 -> Printf.sprintf "%x %s" pc tag
    | 1 -> Printf.sprintf "%x %s R %x" pc tag t.addrs.(i)
    | _ -> Printf.sprintf "%x %s W %x" pc tag t.addrs.(i)
  in
  let fid = t.fids.(i) in
  if fid < 0 then core else core ^ " @" ^ t.funcs.(fid)

let save t oc =
  for i = 0 to t.len - 1 do
    output_string oc (event_to_string t i);
    output_char oc '\n'
  done

let parse_line t line =
  let tokens = String.split_on_char ' ' (String.trim line) in
  (* optional trailing "@func" names the originating function *)
  let tokens, fid =
    match List.rev tokens with
    | last :: rest
      when String.length last > 1 && last.[0] = '@' ->
      ( List.rev rest,
        intern t (String.sub last 1 (String.length last - 1)) )
    | _ -> (tokens, -1)
  in
  match tokens with
  | [ "" ] -> ()
  | [ pc; tag ] ->
    add t ~pc:(int_of_string ("0x" ^ pc)) ~cls:(cls_of_tag tag) ~fid ()
  | [ pc; tag; "R"; a ] ->
    add t ~pc:(int_of_string ("0x" ^ pc)) ~cls:(cls_of_tag tag)
      ~access:(Read (int_of_string ("0x" ^ a)))
      ~fid ()
  | [ pc; tag; "W"; a ] ->
    add t ~pc:(int_of_string ("0x" ^ pc)) ~cls:(cls_of_tag tag)
      ~access:(Write (int_of_string ("0x" ^ a)))
      ~fid ()
  | _ -> failwith ("Trace: malformed line: " ^ line)

let load ic =
  let t = create () in
  (try
     while true do
       parse_line t (input_line ic)
     done
   with End_of_file -> ());
  t

let to_string t =
  let buf = Buffer.create 4096 in
  for i = 0 to t.len - 1 do
    Buffer.add_string buf (event_to_string t i);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let of_string s =
  let t = create () in
  String.split_on_char '\n' s |> List.iter (fun l -> if l <> "" then parse_line t l);
  t
