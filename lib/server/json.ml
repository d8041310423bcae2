type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- encoding --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string x =
  (* JSON has no literal for non-finite numbers; we emit them as strings
     (the instance format spells infinity "inf" too). *)
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x ->
      if Float.is_nan x then escape_string buf "nan"
      else if x = infinity then escape_string buf "inf"
      else if x = neg_infinity then escape_string buf "-inf"
      else Buffer.add_string buf (number_to_string x)
  | Str s -> escape_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* --- decoding: recursive descent --- *)

exception Parse_error of string

type parser_state = { src : string; mutable pos : int }

let fail_at st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st; go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some x when x = c -> advance st
  | _ -> fail_at st (Printf.sprintf "expected '%c'" c)

let expect_word st w value =
  if
    st.pos + String.length w <= String.length st.src
    && String.sub st.src st.pos (String.length w) = w
  then (st.pos <- st.pos + String.length w; value)
  else fail_at st ("expected " ^ w)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail_at st "bad hex digit in \\u escape"

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail_at st "truncated \\u escape";
  let v =
    (hex_digit st st.src.[st.pos] lsl 12)
    lor (hex_digit st st.src.[st.pos + 1] lsl 8)
    lor (hex_digit st st.src.[st.pos + 2] lsl 4)
    lor hex_digit st st.src.[st.pos + 3]
  in
  st.pos <- st.pos + 4;
  v

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail_at st "unterminated string"
    | Some '"' -> advance st; Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail_at st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let cp = parse_hex4 st in
                let cp =
                  if cp >= 0xD800 && cp <= 0xDBFF then begin
                    (* high surrogate: expect \uDC00-\uDFFF next *)
                    if
                      st.pos + 2 <= String.length st.src
                      && st.src.[st.pos] = '\\'
                      && st.src.[st.pos + 1] = 'u'
                    then begin
                      st.pos <- st.pos + 2;
                      let lo = parse_hex4 st in
                      if lo < 0xDC00 || lo > 0xDFFF then
                        fail_at st "invalid low surrogate"
                      else
                        0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                    end
                    else fail_at st "lone high surrogate"
                  end
                  else if cp >= 0xDC00 && cp <= 0xDFFF then
                    fail_at st "lone low surrogate"
                  else cp
                in
                add_utf8 buf cp
            | _ -> fail_at st "bad escape character");
            go ())
    | Some c when Char.code c < 0x20 -> fail_at st "raw control character in string"
    | Some c -> advance st; Buffer.add_char buf c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c when is_num_char c -> true | _ -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail_at st ("bad number: " ^ s)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail_at st "unexpected end of input"
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then (advance st; Obj [])
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; fields ((k, v) :: acc)
          | Some '}' -> advance st; Obj (List.rev ((k, v) :: acc))
          | _ -> fail_at st "expected ',' or '}'"
        in
        fields []
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then (advance st; List [])
      else begin
        let rec elems acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; elems (v :: acc)
          | Some ']' -> advance st; List (List.rev (v :: acc))
          | _ -> fail_at st "expected ',' or ']'"
        in
        elems []
      end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> expect_word st "true" (Bool true)
  | Some 'f' -> expect_word st "false" (Bool false)
  | Some 'n' -> expect_word st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail_at st (Printf.sprintf "unexpected character '%c'" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

let of_string_exn s =
  match of_string s with Ok v -> v | Error msg -> raise (Parse_error msg)

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_string = function Str s -> Some s | _ -> None

let get_num = function
  | Num x -> Some x
  | Str "inf" -> Some infinity
  | Str "-inf" -> Some neg_infinity
  | Str "nan" -> Some nan
  | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List xs -> Some xs | _ -> None
