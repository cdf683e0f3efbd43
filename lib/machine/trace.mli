(** Instruction / memory-reference traces.

    A trace is the unit of analysis in the paper: protocol processing is
    traced, and the trace is replayed through the memory-hierarchy and CPU
    simulators (§4.4). *)

type access =
  | Read of int
  | Write of int

type event = {
  pc : int;  (** byte address of the instruction *)
  cls : Instr.cls;
  access : access option;  (** data reference made by this instruction *)
}

type t
(** Traces are stored struct-of-arrays: flat int columns for pc, class
    code, access kind and data address.  Appending via {!add_packed} and
    scanning via the [_at] accessors allocate nothing, which keeps the
    simulator's per-instruction hot path allocation-free. *)

val create : unit -> t

val length : t -> int

val add : t -> pc:int -> cls:Instr.cls -> ?access:access -> ?fid:int -> unit -> unit

(** {2 Function attribution}

    Each event optionally carries the interned id of its originating
    function, so analysis passes can roll cycles and cache misses up
    per-function without a separate pc→function lookup per event.  Ids are
    per-trace; [-1] means "untagged". *)

val intern : t -> string -> int
(** Find-or-assign the id for a function name. *)

val n_funcs : t -> int

val func_name : t -> int -> string
(** Inverse of {!intern}. *)

val fid_at : t -> int -> int
(** Function id of event [i]; [-1] when untagged. *)

(** {2 Packed (allocation-free) interface} *)

val kind_none : int

val kind_read : int

val kind_write : int

val add_packed :
  t -> pc:int -> cls:Instr.cls -> kind:int -> addr:int -> fid:int -> unit
(** [add_packed t ~pc ~cls ~kind ~addr ~fid] appends one event without
    boxing.  [kind] is one of {!kind_none}, {!kind_read}, {!kind_write};
    [addr] is ignored when [kind = kind_none].  [fid] is an id from
    {!intern} (or [-1]). *)

val pc_at : t -> int -> int

val pcs : t -> int array
(** The pc column itself, read-only and valid below {!length}: for loops
    over every event, where a {!pc_at} call each is not free. *)

val cls_at : t -> int -> Instr.cls

val kind_at : t -> int -> int

val addr_at : t -> int -> int

(** {2 Event (boxed) interface — analysis paths} *)

val get : t -> int -> event

val iter : (event -> unit) -> t -> unit

val append : t -> t -> unit

val map_pcs : (int -> int) -> t -> t
(** A copy of the trace with every instruction address rewritten through
    [f] — classes, data references, ordering and function tags unchanged.
    With {!Protolat_layout.Image.pc_map} as [f], this retargets a trace
    captured against one code image to a candidate placement of the same
    units, so a layout sweep replays one captured trace per layout instead
    of re-running the whole protocol simulation. *)

val remap_pcs : t -> int array -> t
(** [remap_pcs t pcs] is {!map_pcs} with the rewritten pc column supplied
    directly: every other column is shared with [t] (not copied), [pcs]
    adopted as the new instruction-address column (ownership transfers —
    the caller must not mutate it afterwards).  Raises
    [Invalid_argument] unless [Array.length pcs = length t].  Sharing is
    safe because reads are bounded by the length and an append to either
    trace reallocates its columns before any shared cell is written; a
    scorer that precomputes each event's (slot, index) once per base
    trace then fills one array per candidate instead of paying a closure
    plus lookup per event. *)

val class_counts : t -> (Instr.cls * int) list
(** Histogram of instruction classes, in [Instr.all] order. *)

val taken_branch_fraction : t -> float

val distinct_blocks : t -> block_bytes:int -> int
(** Number of distinct i-stream blocks touched (static footprint of the
    trace at cache-block granularity). *)

val touched_instr_offsets : t -> (int, unit) Hashtbl.t
(** Set of distinct instruction addresses fetched. *)

(** Text serialization (one event per line: [pc class [R|W addr] [@func]])
    — the paper made its instruction traces available for download; so do
    we.  The trailing [@func] records the originating function when the
    event was tagged. *)

val save : t -> out_channel -> unit

val load : in_channel -> t
(** @raise Failure on malformed input. *)

val to_string : t -> string

val of_string : string -> t
