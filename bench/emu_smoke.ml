(* Emulator smoke: the tier-1 guardrail for the compiled emulator. On
   gzip at scale 1 (wish-jjl binary, input A) it requires:

   - identity: the interpreted reference ([Exec.step_into]) and the
     compiled emulator produce the same per-step fact stream
     (checksummed) and outcome in both modes, and every entry of the
     materialized [Trace.generate] trace decodes to exactly the facts the
     interpreter reports for that step in predicate-through mode (so the
     pack/decode path is checked against raw facts, not against itself);
   - speedup: the specialized closures beat the checked build
     ([compile ~checked:true], the same block driver over the
     bounds-checked interpreter core) by a conservative floor (best of
     several interleaved CPU-time trials). Closures that fell back to
     the interpreter core would read about 1x, so this catches the
     optimization being silently disabled or regressed; end-to-end
     timing is bench/perf's job. The baseline is not the interpreted
     loop above: built without -opaque, its whole step inlines into
     that loop, and it runs within about 1.4x of the closures, too
     close to the floor to time reliably on a shared machine.

   Wired into [dune runtest] via the @emu-smoke alias. *)

module State = Wish_emu.State
module Exec = Wish_emu.Exec
module Compiled = Wish_emu.Compiled
module Trace = Wish_emu.Trace

let min_speedup = 1.3

let[@inline] mix acc (o : Exec.out) =
  ((acc * 31) + o.o_pc)
  lxor (o.o_next_pc + (7 * (o.o_addr + 1)) + (if o.o_guard_true then 3 else 0)
       + if o.o_taken then 13 else 0)

let run_interp mode program =
  let code = Wish_isa.Program.code program in
  let st = State.create program in
  let o = Exec.make_out () in
  let acc = ref 0 in
  while not st.halted do
    Exec.step_into mode code st o;
    acc := mix !acc o
  done;
  (st.retired, !acc, State.outcome st)

let run_compiled compiled program =
  let st = State.create program in
  let acc = ref 0 in
  Compiled.run_to_halt compiled st (Exec.make_out ()) ~sink:(fun o -> acc := mix !acc o)
    ~fuel:max_int;
  (st.retired, !acc, State.outcome st)

let program =
  let bench = Wish_workloads.Workloads.find ~scale:1 "gzip" in
  let bins =
    Wish_compiler.Compiler.compile_all ~mem_words:bench.mem_words ~name:bench.name
      ~profile_data:(Wish_workloads.Bench.profile_data bench) bench.ast
  in
  Wish_workloads.Bench.program_for bench
    (Wish_compiler.Compiler.binary bins Wish_compiler.Policy.Wish_jjl)
    "A"

let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "FAIL emu-smoke: %s\n" m; exit 1) fmt

let check_identity mode tag =
  let compiled = Compiled.compile ~mode (Wish_isa.Program.code program) in
  let ri = run_interp mode program in
  let rc = run_compiled compiled program in
  if ri <> rc then fail "%s: compiled run differs from interpreted" tag

let check_trace_identity () =
  let trace, final = Trace.generate program in
  let code = Wish_isa.Program.code program in
  let st = State.create program in
  let o = Exec.make_out () in
  let i = ref 0 in
  while not st.halted do
    Exec.step_into Exec.Predicate_through code st o;
    if !i >= Trace.length trace then fail "trace ends at %d, before the interpreter halts" !i;
    if
      Trace.pc trace !i <> o.o_pc
      || Trace.next_pc trace !i <> o.o_next_pc
      || Trace.addr trace !i <> o.o_addr
      || Trace.guard_true trace !i <> o.o_guard_true
      || Trace.taken trace !i <> o.o_taken
    then fail "trace entry %d differs from the interpreter's facts" !i;
    incr i
  done;
  if Trace.length trace <> !i then fail "trace has %d entries, interpreter %d" (Trace.length trace) !i;
  if State.outcome final <> State.outcome st then fail "trace outcome differs from interpreter"

let cpu_time f =
  let t0 = Sys.time () in
  ignore (f ());
  Sys.time () -. t0

(* Best CPU times of [f] and [g] over [trials] trials each, alternating
   between them so that a slow stretch of a shared machine hits both. *)
let time_best_pair ~trials f g =
  ignore (f ());
  ignore (g ());
  let bf = ref infinity and bg = ref infinity in
  for _ = 1 to trials do
    bf := Float.min !bf (cpu_time f);
    bg := Float.min !bg (cpu_time g)
  done;
  (!bf, !bg)

let check_speedup () =
  let mode = Exec.Architectural in
  let code = Wish_isa.Program.code program in
  let fast = Compiled.compile ~checked:false ~mode code in
  let checked = Compiled.compile ~checked:true ~mode code in
  let tk, tc =
    time_best_pair ~trials:9
      (fun () -> run_compiled checked program)
      (fun () -> run_compiled fast program)
  in
  let speedup = tk /. tc in
  Printf.printf
    "emu-smoke: identity OK; compiled speedup %.2fx over the checked build (floor %.1fx)\n%!"
    speedup min_speedup;
  if speedup < min_speedup then
    fail "compiled emulator only %.2fx over its checked build (floor %.1fx)" speedup min_speedup

let () =
  check_identity Exec.Architectural "arch";
  check_identity Exec.Predicate_through "pt";
  (* The checked build must be equivalent too, not just bounds-safe. *)
  let checked = Compiled.compile ~checked:true ~mode:Exec.Architectural
                  (Wish_isa.Program.code program) in
  if run_compiled checked program <> run_interp Exec.Architectural program then
    fail "checked compiled run differs from interpreted";
  check_trace_identity ();
  check_speedup ()
