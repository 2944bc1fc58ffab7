(* Full-precision writer for Perf_json values. Perf_json's own emitter
   rounds floats to six digits, which suits the old BENCH_*.json files but
   not a record whose timings are compared run to run; this one writes the
   shortest decimal that parses back to the same float, so every record
   round-trips exactly through [Perf_json.parse]. *)

module J = Wish_util.Perf_json

let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s =
      List.find
        (fun s -> float_of_string s = f)
        [ Printf.sprintf "%.15g" f; Printf.sprintf "%.16g" f; Printf.sprintf "%.17g" f ]
    in
    (* Keep a float a float: "16" would parse back as an Int. *)
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let is_scalar = function J.List _ | J.Obj _ -> false | _ -> true

(* [to_string ?indent v] — one line by default; with [~indent:true],
   objects and non-scalar lists go one member per line (lists of scalars
   stay on one line, so sample vectors read as rows). *)
let to_string ?(indent = false) v =
  let b = Buffer.create 4096 in
  let rec go depth v =
    let nl d =
      if indent then begin
        Buffer.add_char b '\n';
        Buffer.add_string b (String.make (2 * d) ' ')
      end
    in
    let seq items emit_item =
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          nl (depth + 1);
          emit_item x)
        items;
      if items <> [] then nl depth
    in
    match v with
    | J.Null -> Buffer.add_string b "null"
    | J.Bool x -> Buffer.add_string b (string_of_bool x)
    | J.Int n -> Buffer.add_string b (string_of_int n)
    | J.Float f -> Buffer.add_string b (float_repr f)
    | J.String s -> Buffer.add_string b (escape s)
    | J.List xs when List.for_all is_scalar xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b (if indent then ", " else ",");
          go depth x)
        xs;
      Buffer.add_char b ']'
    | J.List xs ->
      Buffer.add_char b '[';
      seq xs (go (depth + 1));
      Buffer.add_char b ']'
    | J.Obj fields ->
      Buffer.add_char b '{';
      seq fields (fun (k, x) ->
          Buffer.add_string b (escape k);
          Buffer.add_string b (if indent then ": " else ":");
          go (depth + 1) x);
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

let write_file path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string ~indent:true v);
      output_char oc '\n')

(* Accessors that fail loudly: a record missing a field is a schema
   error, not a value to default. *)

exception Schema of string

let field k v =
  match J.member k v with Some x -> x | None -> raise (Schema ("missing field " ^ k))

let num k v =
  match J.to_float_opt (field k v) with
  | Some f -> f
  | None -> raise (Schema ("field " ^ k ^ " is not a number"))

let str k v = match field k v with J.String s -> s | _ -> raise (Schema ("field " ^ k ^ " is not a string"))

let fields k v = match field k v with J.Obj fs -> fs | _ -> raise (Schema ("field " ^ k ^ " is not an object"))

let floats k v =
  match field k v with
  | J.List xs ->
    List.map
      (fun x ->
        match J.to_float_opt x with Some f -> f | None -> raise (Schema ("non-number in " ^ k)))
      xs
  | _ -> raise (Schema ("field " ^ k ^ " is not a list"))
