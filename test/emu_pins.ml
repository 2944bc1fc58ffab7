(* Pins of the compiled emulator on every workload binary: for each of
   the nine workloads at scale 1 and each of its five binary kinds, run
   on input A, one line of the architectural outcome (memory checksum
   and retired instructions, from [Profile.of_program]) and of the
   predicate-through trace ([Trace.generate]): its length and a digest
   of every entry's pc, next pc, address, guard and direction. The
   runtest rule diffs the output against emu_pins.expected; re-pin with
   [dune promote] after a change that is meant to move them. *)

module Compiler = Wish_compiler.Compiler
module Policy = Wish_compiler.Policy
module Bench = Wish_workloads.Bench
module Workloads = Wish_workloads.Workloads
module State = Wish_emu.State
module Trace = Wish_emu.Trace

(* A 62-bit polynomial fold, entry by entry: any change to one field of
   one entry moves it. *)
let trace_digest trace =
  let h = ref 0 in
  let mix x = h := ((!h * 1_000_003) lxor x) land 0x3FFF_FFFF_FFFF_FFFF in
  for i = 0 to Trace.length trace - 1 do
    mix (Trace.pc trace i);
    mix (Trace.next_pc trace i);
    mix (Trace.addr trace i);
    mix ((if Trace.guard_true trace i then 1 else 0) lor if Trace.taken trace i then 2 else 0)
  done;
  !h

let () =
  print_endline
    "# <bench> <kind>: checksum C retired R (architectural) | trace N entries, digest D \
     (predicate-through)";
  List.iter
    (fun (bench : Bench.t) ->
      let bins =
        Compiler.compile_all ~mem_words:bench.mem_words ~name:bench.name
          ~profile_data:(Bench.profile_data bench) bench.ast
      in
      List.iter
        (fun kind ->
          let program = Bench.program_for bench (Compiler.binary bins kind) "A" in
          let _, st = Wish_emu.Profile.of_program program in
          let o = State.outcome st in
          let trace, _ = Trace.generate program in
          Printf.printf "%s %s: checksum %d retired %d | trace %d entries, digest %x\n" bench.name
            (Policy.kind_name kind) o.memory_checksum o.retired (Trace.length trace)
            (trace_digest trace))
        Compiler.all_kinds)
    (Workloads.all ~scale:1)
