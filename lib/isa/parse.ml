(** Textual WISC assembly.

    The accepted syntax is exactly what {!Inst.pp} prints — so listings
    round-trip — plus labels, label targets, comments and data directives:

    {v
    ; comment                    .mem 4096        (data memory words)
    start:                       .data 100 42     (initialize mem[100])
        add r3, r0, #0
        (p1) s.mul r4, r3, #3    ; guard and speculation prefixes
        cmp.lt p1, p2 = r3, #10
        cmp.unc.eq p1 = r3, r4
        ld r7, [r6+4]
        st [r6+0], r7
        wish.jump start          ; or numeric, as listings print: @0
        halt
    v} *)

exception Parse_error of { line : int; message : string }

let error line fmt = Fmt.kstr (fun message -> raise (Parse_error { line; message })) fmt

(* Lexical helpers ----------------------------------------------------- *)

let strip_comment s = match String.index_opt s ';' with Some i -> String.sub s 0 i | None -> s
let trim = String.trim

let split_operands s =
  if trim s = "" then [] else String.split_on_char ',' s |> List.map trim

let parse_ireg ln s =
  let s = trim s in
  if String.length s >= 2 && s.[0] = 'r' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n when Reg.is_valid_ireg n -> n
    | _ -> error ln "invalid integer register %S" s
  else error ln "expected integer register, got %S" s

let parse_preg ln s =
  let s = trim s in
  if String.length s >= 2 && s.[0] = 'p' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n when Reg.is_valid_preg n -> n
    | _ -> error ln "invalid predicate register %S" s
  else error ln "expected predicate register, got %S" s

let parse_operand ln s =
  let s = trim s in
  if s = "" then error ln "missing operand"
  else if s.[0] = '#' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some n -> Inst.Imm n
    | None -> error ln "invalid immediate %S" s
  else Inst.Reg (parse_ireg ln s)

let aluops =
  [
    ("add", Inst.Add); ("sub", Inst.Sub); ("mul", Inst.Mul); ("and", Inst.And);
    ("or", Inst.Or); ("xor", Inst.Xor); ("shl", Inst.Shl); ("shr", Inst.Shr);
  ]

let cmpops =
  [ ("eq", Inst.Eq); ("ne", Inst.Ne); ("lt", Inst.Lt); ("le", Inst.Le); ("gt", Inst.Gt); ("ge", Inst.Ge) ]

(* [[r2+3]] address syntax. *)
let parse_addr ln s =
  let s = trim s in
  let n = String.length s in
  if n < 4 || s.[0] <> '[' || s.[n - 1] <> ']' then error ln "expected [rN+off], got %S" s
  else
    let inner = String.sub s 1 (n - 2) in
    match String.index_opt inner '+' with
    | Some i ->
      let base = parse_ireg ln (String.sub inner 0 i) in
      let off = trim (String.sub inner (i + 1) (String.length inner - i - 1)) in
      (match int_of_string_opt off with
      | Some offset -> (base, offset)
      | None -> error ln "invalid offset in %S" s)
    | None -> (parse_ireg ln inner, 0)

(* Instruction parsing -------------------------------------------------- *)

let split_mnemonic body =
  let body = trim body in
  match String.index_opt body ' ' with
  | Some i -> (String.sub body 0 i, trim (String.sub body (i + 1) (String.length body - i - 1)))
  | None -> (body, "")

let parse_cmp ln ~guard ~spec mnemonic rest =
  (* mnemonic: cmp.lt or cmp.unc.lt; rest: "p1, p2 = r3, #5". *)
  let unc, opname =
    match String.split_on_char '.' mnemonic with
    | [ "cmp"; op ] -> (false, op)
    | [ "cmp"; "unc"; op ] -> (true, op)
    | _ -> error ln "bad compare mnemonic %S" mnemonic
  in
  let op =
    match List.assoc_opt opname cmpops with
    | Some op -> op
    | None -> error ln "unknown compare op %S" opname
  in
  match String.index_opt rest '=' with
  | None -> error ln "compare needs '=': %S" rest
  | Some i ->
    let dests = split_operands (String.sub rest 0 i) in
    let srcs = split_operands (String.sub rest (i + 1) (String.length rest - i - 1)) in
    let dst_true, dst_false =
      match dests with
      | [ d ] -> (parse_preg ln d, None)
      | [ d; f ] -> (parse_preg ln d, Some (parse_preg ln f))
      | _ -> error ln "compare needs one or two destinations"
    in
    (match srcs with
    | [ a; b ] ->
      Asm.cmp ~guard ~spec ~unc op ?dst_false dst_true (parse_ireg ln a) (parse_operand ln b)
    | _ -> error ln "compare needs two sources")

(* Branch targets: either a label name or @N (numeric pc, as listings
   print); @N resolves through a synthetic label planted at pc N. *)
let parse_target ln s =
  let s = trim s in
  if s = "" then error ln "missing branch target" else s

let parse_inst ln body =
  let body = trim body in
  let guard, body =
    if String.length body > 0 && body.[0] = '(' then
      match String.index_opt body ')' with
      | Some i ->
        ( parse_preg ln (String.sub body 1 (i - 1)),
          trim (String.sub body (i + 1) (String.length body - i - 1)) )
      | None -> error ln "unterminated guard"
    else (Reg.p0, body)
  in
  (* The speculation prefix is exactly "s." — mnemonics like "st"/"shl"
     also start with s, hence the dot test. *)
  let spec, body =
    if String.length body > 2 && body.[0] = 's' && body.[1] = '.' then
      (true, String.sub body 2 (String.length body - 2))
    else (false, body)
  in
  let mnemonic, rest = split_mnemonic body in
  let two rest =
    match split_operands rest with
    | [ a; b ] -> (a, b)
    | _ -> error ln "expected two operands: %S" rest
  in
  let three rest =
    match split_operands rest with
    | [ a; b; c ] -> (a, b, c)
    | _ -> error ln "expected three operands: %S" rest
  in
  match mnemonic with
  | "nop" -> Asm.nop
  | "halt" -> Asm.halt
  | "ret" -> Asm.ret ~guard ()
  | "pset" ->
    let d, v = two rest in
    let value =
      match trim v with
      | "true" | "1" -> true
      | "false" | "0" -> false
      | s -> error ln "pset needs true/false, got %S" s
    in
    Asm.pset ~guard ~spec (parse_preg ln d) value
  | "ld" ->
    let d, a = two rest in
    let base, offset = parse_addr ln a in
    Asm.load ~guard ~spec (parse_ireg ln d) base offset
  | "st" ->
    let a, s = two rest in
    let base, offset = parse_addr ln a in
    Asm.store ~guard (parse_ireg ln s) base offset
  | "br" -> Asm.br ~guard (parse_target ln rest)
  | "wish.jump" -> Asm.wish_jump ~guard (parse_target ln rest)
  | "wish.join" -> Asm.wish_join ~guard (parse_target ln rest)
  | "wish.loop" -> Asm.wish_loop ~guard (parse_target ln rest)
  | "jmp" -> Asm.jmp ~guard (parse_target ln rest)
  | "call" -> Asm.call ~guard (parse_target ln rest)
  | m when List.mem_assoc m aluops ->
    let d, a, b = three rest in
    Asm.alu ~guard ~spec (List.assoc m aluops) (parse_ireg ln d) (parse_ireg ln a)
      (parse_operand ln b)
  | m when String.length m >= 4 && String.sub m 0 4 = "cmp." -> parse_cmp ln ~guard ~spec m rest
  | m -> error ln "unknown mnemonic %S" m

(* Program parsing ------------------------------------------------------ *)

type classified = Blank | Directive of string | Label_line of string | Inst_line of string

let classify raw =
  let line = trim (strip_comment raw) in
  if line = "" then Blank
  else if line.[0] = '.' then Directive line
  else if String.length line > 1 && line.[String.length line - 1] = ':' then
    Label_line (String.sub line 0 (String.length line - 1))
  else Inst_line line

(* Collect all numeric @N targets so synthetic labels can be planted. *)
let numeric_targets lines =
  let found = Hashtbl.create 8 in
  List.iter
    (fun raw ->
      match classify raw with
      | Inst_line line ->
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char ',')
        |> List.iter (fun tok ->
               let tok = trim tok in
               if String.length tok > 1 && tok.[0] = '@' then
                 match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
                 | Some n -> Hashtbl.replace found n ()
                 | None -> ())
      | Blank | Directive _ | Label_line _ -> ())
    lines;
  found

(** [program_of_string ?name text] parses a full assembly file. *)
let program_of_string ?(name = "asm") text =
  let lines = String.split_on_char '\n' text in
  let numeric = numeric_targets lines in
  let items = ref [] in
  let data = ref [] in
  let mem_words = ref None in
  let pc = ref 0 in
  List.iteri
    (fun idx raw ->
      let ln = idx + 1 in
      match classify raw with
      | Blank -> ()
      | Directive line -> (
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ ".mem"; n ] -> (
          match int_of_string_opt n with
          | Some w when w > 0 -> mem_words := Some w
          | _ -> error ln "invalid .mem size %S" n)
        | [ ".data"; addr; value ] -> (
          match (int_of_string_opt addr, int_of_string_opt value) with
          | Some a, Some v -> data := (a, v) :: !data
          | _ -> error ln "invalid .data directive")
        | _ -> error ln "unknown directive %S" line)
      | Label_line l -> items := Asm.label l :: !items
      | Inst_line line ->
        if Hashtbl.mem numeric !pc then begin
          items := Asm.label ("@" ^ string_of_int !pc) :: !items;
          Hashtbl.remove numeric !pc
        end;
        items := parse_inst ln line :: !items;
        incr pc)
    lines;
  if Hashtbl.length numeric > 0 then error 0 "numeric target beyond end of program";
  let code = Asm.assemble (List.rev !items) in
  Program.create ~name ?mem_words:!mem_words
    ~data:(Program.segments_of_pairs (List.rev !data))
    code

(** [program_of_file path] reads and parses an assembly file. *)
let program_of_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  program_of_string ~name:(Filename.basename path) text

(** [listing_of_code code] prints a parseable listing (numeric targets). *)
let listing_of_code code =
  let buf = Buffer.create 256 in
  Code.iteri code (fun _ i -> Buffer.add_string buf (Inst.to_string i ^ "\n"));
  Buffer.contents buf

(** [listing_of_program p] — the whole-program form: [.mem]/[.data]
    directives followed by the code listing, so the output feeds back
    into {!program_of_string} losslessly (entry must be 0, which is all
    the toolchain emits). *)
let listing_of_program (p : Program.t) =
  if p.Program.entry <> 0 then
    invalid_arg "Parse.listing_of_program: only entry-0 programs have a textual form";
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf ".mem %d\n" p.Program.mem_words);
  List.iter
    (fun (s : Program.segment) ->
      Array.iteri
        (fun k v -> Buffer.add_string buf (Printf.sprintf ".data %d %d\n" (s.base + k) v))
        s.words)
    p.Program.data;
  Buffer.add_string buf (listing_of_code p.Program.code);
  Buffer.contents buf
