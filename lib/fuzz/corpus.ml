(** Repro corpus — see the interface. File format: [; key=value] comment
    headers, then a {!Wish_isa.Parse}-accepted listing. Comments are
    already skipped by the parser, so a repro file feeds straight into
    {!Wish_isa.Parse.program_of_file}. *)

module Parse = Wish_isa.Parse
module Program = Wish_isa.Program
module Compiler = Wish_compiler.Compiler
module Policy = Wish_compiler.Policy

type repro = {
  file : string;
  oracle : string;
  seed : int;
  reason : string;
  program : Program.t;
}

(* One line, no newlines inside values (reasons can carry anything). *)
let header_line key value =
  let value = String.map (function '\n' | '\r' -> ' ' | c -> c) value in
  Printf.sprintf "; %s=%s\n" key value

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let save ~dir ~oracle ~reason ~steps (c : Gen.case) =
  mkdir_p dir;
  let oracle = Oracle.name_id oracle in
  let base = Printf.sprintf "%s-%012x.wisc" oracle (c.Gen.c_seed land 0xffffffffffff) in
  let path = Filename.concat dir base in
  (* The normal binary is the repro body: every program-level oracle
     accepts it, and it is the least-transformed lowering of the shrunk
     source, so the listing stays readable. *)
  let bins =
    Compiler.compile_all ~mem_words:c.Gen.c_mem_words ~name:c.Gen.c_name
      ~profile_data:(Program.segments_of_pairs c.Gen.c_profile_data)
      c.Gen.c_ast
  in
  let program =
    Program.with_data (Compiler.binary bins Policy.Normal)
      (Program.segments_of_pairs c.Gen.c_eval_data)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (header_line "wishfuzz-repro" "1");
  Buffer.add_string buf (header_line "oracle" oracle);
  Buffer.add_string buf (header_line "case-seed" (string_of_int c.Gen.c_seed));
  Buffer.add_string buf (header_line "shrink-steps" (string_of_int steps));
  Buffer.add_string buf (header_line "reason" reason);
  Buffer.add_string buf (Parse.listing_of_program program);
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  path

let headers_of_file path =
  let ic = open_in path in
  let tbl = Hashtbl.create 8 in
  (try
     while true do
       let line = input_line ic in
       let line = String.trim line in
       if String.length line > 0 && line.[0] = ';' then begin
         let body = String.trim (String.sub line 1 (String.length line - 1)) in
         match String.index_opt body '=' with
         | Some i ->
           Hashtbl.replace tbl
             (String.sub body 0 i)
             (String.sub body (i + 1) (String.length body - i - 1))
         | None -> ()
       end
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let load path =
  let program = Parse.program_of_file path in
  let h = headers_of_file path in
  let get key default = match Hashtbl.find_opt h key with Some v -> v | None -> default in
  {
    file = Filename.basename path;
    oracle = get "oracle" "unknown";
    seed = (match int_of_string_opt (get "case-seed" "") with Some s -> s | None -> 0);
    reason = get "reason" "";
    program;
  }

let replay r =
  [
    ("lockstep", Oracle.lockstep_program r.program);
    ("sim", Oracle.sim_identity_program r.program);
  ]

let replay_dir dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".wisc")
    |> List.sort String.compare
    |> List.map (fun f ->
           let r = load (Filename.concat dir f) in
           (f, replay r))
