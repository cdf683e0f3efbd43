(** Minimal JSON: one value type, one printer, one parser.

    Every JSON export of the repo is built as a {!v} and printed by
    {!to_string}, so all of them share one escaper and one number format.
    The parser is a strict recursive-descent parser over the full JSON
    grammar — objects, arrays, strings with escapes, numbers, booleans,
    null — that rejects trailing garbage; tests and the CLI's [--check]
    use it to read every export back. *)

val schema_version : int
(** Version stamped as a top-level ["schema_version"] field into every JSON
    export of the repo (metrics dump, profile dump, Perfetto metadata,
    bench snapshot, mflow report, chaos matrix and repro files).  Bump when
    any export changes shape.  Version 2 added the mflow
    reconnects/drained/violations cell fields and the chaos exports;
    version 3 added the latency-provenance spans export, Perfetto span
    tracks with flow events, and the mflow [p999_us] cell field;
    version 4 added the switched fabric: a top-level ["topology"] stamp in
    the mflow/chaos/spans/profile/bench/incast exports, the chaos repro
    ["topology"] field, the ["switch"] span stage, and the incast
    export.  Version 5 prints every export through {!to_string}: one
    compact layout (no whitespace, object fields in construction order),
    JSON string escaping everywhere, and numbers in their shortest
    round-trip form instead of a fixed number of decimals per field; the
    chaos matrix digest is now the MD5 of its printed ["cells"] value. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

val int : int -> v
(** [Num] of an integer. *)

val to_string : v -> string
(** Compact JSON text: no whitespace, object fields in list order.  Strings
    escape ["\""], ["\\"] and control characters (as [\u00XX]); bytes
    [>= 0x80] pass through unchanged.  Numbers print as the shortest of
    [%.15g]/[%.16g]/[%.17g] that reads back as the same float, so whole
    numbers carry no fraction and [parse (to_string v) = v].
    @raise Invalid_argument on a non-finite [Num]. *)

val parse : string -> (v, string) result
(** [Error msg] carries the byte offset and reason of the first failure.
    [\u] escapes decode to UTF-8; a surrogate pair decodes to one
    four-byte code point, and a lone surrogate is an error. *)

val member : string -> v -> v option
(** Object field lookup ([None] for absent field or non-object). *)

val array_length : v -> int
(** Length of an [Arr]; 0 otherwise. *)
