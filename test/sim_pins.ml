(* Pins of the compiled timing core on generated programs: for every case
   of @fuzz-smoke's sweep (root seed 2005) its base-def and wish-jjl
   binaries, and for every repro in fuzz_corpus/ its program, one line of
   cycles, event counters and memory-hierarchy counters at the default
   machine, or the reason the timing oracles skip it. The runtest rule
   diffs the output against sim_pins.expected; re-pin with [dune promote]
   after a change that is meant to move the numbers. *)

module Gen = Wish_fuzz.Gen
module Oracle = Wish_fuzz.Oracle
module Corpus = Wish_fuzz.Corpus
module Compiler = Wish_compiler.Compiler
module Policy = Wish_compiler.Policy
module Program = Wish_isa.Program
module Trace = Wish_emu.Trace
module Compiled = Wish_sim.Compiled
module Counters = Wish_sim.Counters

let sweep_root = 2005
let sweep_count = 120

let line program =
  match Trace.generate ~fuel:Oracle.fuel program with
  | exception e -> "skip " ^ Printexc.to_string e
  | trace, _final when Trace.length trace > Oracle.sim_trace_cap -> "skip trace too long"
  | trace, _final -> (
    match Compiled.run (Compiled.create Wish_sim.Config.default program trace) with
    | exception e -> "raised " ^ Printexc.to_string e
    | core ->
      let m = Compiled.hier_stats core and counts = Compiled.counters core in
      Printf.sprintf "cycles %d | %s | mem %d %d %d %d %d %d" (Compiled.cycles core)
        (String.concat " " (List.map (fun c -> string_of_int (Counters.get counts c)) Counters.all))
        m.l1i_accesses m.l1i_misses m.l1d_accesses m.l1d_misses m.l2_accesses m.l2_misses)

let case i =
  let c = Gen.generate (Gen.case_seed ~root:sweep_root i) in
  match
    Compiler.compile_all ~mem_words:c.Gen.c_mem_words ~fuel:Oracle.fuel ~name:c.Gen.c_name
      ~profile_data:(Program.segments_of_pairs c.Gen.c_profile_data)
      c.Gen.c_ast
  with
  | exception e -> Printf.printf "case %d: skip compile: %s\n" i (Printexc.to_string e)
  | bins ->
    let data = Program.segments_of_pairs c.Gen.c_eval_data in
    List.iter
      (fun kind ->
        Printf.printf "case %d %s: %s\n" i (Policy.kind_name kind)
          (line (Program.with_data (Compiler.binary bins kind) data)))
      [ Policy.Base_def; Policy.Wish_jjl ]

let () =
  Printf.printf
    "# <program>: cycles N | %s | mem l1i_accesses l1i_misses l1d_accesses l1d_misses \
     l2_accesses l2_misses\n"
    (String.concat " " (List.map Counters.name Counters.all));
  for i = 0 to sweep_count - 1 do
    case i
  done;
  Sys.readdir "fuzz_corpus" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".wisc")
  |> List.sort String.compare
  |> List.iter (fun f ->
         let r = Corpus.load (Filename.concat "fuzz_corpus" f) in
         Printf.printf "%s: %s\n" f (line r.Corpus.program))
