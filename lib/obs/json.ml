let schema_version = 5

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Fail of int * string

let fail pos msg = raise (Fail (pos, msg))

type state = {
  s : string;
  mutable pos : int;
}

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st.pos (Printf.sprintf "expected '%c'" c)

let parse_literal st lit value =
  let n = String.length lit in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = lit
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos ("expected " ^ lit)

(* four hex digits of a \u escape, strictly (no sign, no underscore) *)
let parse_hex4 st =
  if st.pos + 4 > String.length st.s then fail st.pos "truncated \\u escape";
  let digit i =
    match st.s.[st.pos + i] with
    | '0' .. '9' as c -> Char.code c - 48
    | 'a' .. 'f' as c -> Char.code c - 87
    | 'A' .. 'F' as c -> Char.code c - 55
    | _ -> fail (st.pos + i) "bad \\u escape"
  in
  let code =
    (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4) lor digit 3
  in
  st.pos <- st.pos + 4;
  code

(* the code point of a \u escape, its backslash and u already consumed: a
   high surrogate must be followed by a \u-escaped low one, and the pair
   combines into one supplementary-plane code point *)
let parse_code_point st =
  let start = st.pos - 2 in
  let hi = parse_hex4 st in
  if hi >= 0xDC00 && hi <= 0xDFFF then fail start "lone low surrogate"
  else if hi < 0xD800 || hi > 0xDBFF then hi
  else if
    st.pos + 2 <= String.length st.s
    && st.s.[st.pos] = '\\'
    && st.s.[st.pos + 1] = 'u'
  then begin
    st.pos <- st.pos + 2;
    let lo = parse_hex4 st in
    if lo < 0xDC00 || lo > 0xDFFF then fail start "lone high surrogate";
    0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
  end
  else fail start "lone high surrogate"

let add_utf8 buf code =
  let byte n = Buffer.add_char buf (Char.chr n) in
  let cont shift = byte (0x80 lor ((code lsr shift) land 0x3F)) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xC0 lor (code lsr 6));
    cont 0
  end
  else if code < 0x10000 then begin
    byte (0xE0 lor (code lsr 12));
    cont 6;
    cont 0
  end
  else begin
    byte (0xF0 lor (code lsr 18));
    cont 12;
    cont 6;
    cont 0
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st.pos "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st.pos "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' -> add_utf8 buf (parse_code_point st)
        | c -> fail (st.pos - 1) (Printf.sprintf "bad escape '\\%c'" c));
        go ())
    | Some c when Char.code c < 0x20 -> fail st.pos "control char in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some v -> v
  | None -> fail start ("bad number: " ^ text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let continue = ref true in
      while !continue do
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        fields := (key, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' -> advance st
        | Some '}' ->
          advance st;
          continue := false
        | _ -> fail st.pos "expected ',' or '}'"
      done;
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let items = ref [] in
      let continue = ref true in
      while !continue do
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' -> advance st
        | Some ']' ->
          advance st;
          continue := false
        | _ -> fail st.pos "expected ',' or ']'"
      done;
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "offset %d: trailing garbage" st.pos)
    else Ok v
  | exception Fail (pos, msg) -> Error (Printf.sprintf "offset %d: %s" pos msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let array_length = function Arr l -> List.length l | _ -> 0

let int n = Num (float_of_int n)

(* shortest of %.15g/%.16g/%.17g that reads back as the same float: whole
   numbers print without a fraction, and every finite float round-trips *)
let add_num b f =
  if not (Float.is_finite f) then
    invalid_arg "Json.to_string: non-finite number";
  let fmt p = Printf.sprintf "%.*g" p f in
  let s15 = fmt 15 in
  Buffer.add_string b
    (if float_of_string s15 = f then s15
     else
       let s16 = fmt 16 in
       if float_of_string s16 = f then s16 else fmt 17)

let hex = "0123456789abcdef"

let add_str b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b "\\u00";
        Buffer.add_char b hex.[Char.code c lsr 4];
        Buffer.add_char b hex.[Char.code c land 15]
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add_v b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Num f -> add_num b f
  | Str s -> add_str b s
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        add_v b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char b ',';
        add_str b k;
        Buffer.add_char b ':';
        add_v b x)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 4096 in
  add_v b v;
  Buffer.contents b
