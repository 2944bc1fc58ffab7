(** Minimal JSON for [bench/perf]'s machine-readable records (its ledger
    and [expected.json] pins). [bench/perf/json.ml] writes them; the
    parser below reads them back, so it accepts exactly the subset that
    writer produces (plus whitespace) rather than pulling in a full JSON
    library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Recursive descent over the record subset. *)

exception Parse_fail of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        (if !pos >= n then fail "unterminated escape");
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
          (* [int_of_string_opt "0x.."] would also admit underscores, so
             validate the digits ourselves; [fail], never [Failure]. *)
          if not (String.for_all is_hex hex) then
            fail (Printf.sprintf "bad \\u escape %S" hex);
          let code = int_of_string ("0x" ^ hex) in
          pos := !pos + 4;
          (* Written \u escapes are control characters only; anything
             wider than a byte is out of our subset. *)
          if code > 0xff then fail "\\u escape beyond the record subset"
          else Buffer.add_char b (Char.chr code)
        | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
        incr pos;
        go ()
      | c when Char.code c < 0x20 ->
        (* The writer always escapes control characters; a raw one in a
           string marks a damaged or foreign file. *)
        fail (Printf.sprintf "raw control character 0x%02x in string" (Char.code c))
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  (* Explicit nesting cap: the record subset is a few levels deep, and a
     deterministic limit beats depending on the platform stack size (the
     [Stack_overflow] backstop below still covers the pathological
     combination of depth and frame growth). *)
  let max_depth = 1_000 in
  let rec parse_value depth =
    if depth > max_depth then fail "input nested too deeply";
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 'n' -> lit "null" Null
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          incr pos;
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          incr pos;
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_fail msg -> Error msg
  (* Totality backstops: no input may raise out of [parse]. The cases
     below are unreachable from the record subset but reachable from
     hostile bytes (absurd nesting, future parser slips). *)
  | exception Stack_overflow -> Error "input nested too deeply"
  | exception (Failure msg | Invalid_argument msg) -> Error ("malformed input: " ^ msg)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> parse contents
  | exception Sys_error msg -> Error msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
