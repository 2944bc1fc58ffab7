(* Emulator smoke: the tier-1 guardrail for the compiled emulator. On
   gzip at scale 1 (wish-jjl binary, input A) it requires:

   - identity: interpreted and compiled execution produce the same
     per-step fact stream (checksummed) and outcome in both modes, and
     [Trace.generate] yields word-identical traces with the compiled
     refill and with [Trace.use_interpreter] forced;
   - speedup: the compiled path beats the allocating interpreted loop by
     a conservative floor (best of 3 CPU-time trials; this only catches
     the optimization being silently disabled or regressed — end-to-end
     timing is bench/perf's job).

   Wired into [dune runtest] via the @emu-smoke alias. *)

module State = Wish_emu.State
module Exec = Wish_emu.Exec
module Compiled = Wish_emu.Compiled
module Trace = Wish_emu.Trace

let min_speedup = 1.3

let[@inline] mix acc ~pc ~guard_true ~taken ~next_pc ~addr =
  ((acc * 31) + pc)
  lxor (next_pc + (7 * (addr + 1)) + (if guard_true then 3 else 0) + if taken then 13 else 0)

let run_interp mode program =
  let code = Wish_isa.Program.code program in
  let st = State.create program in
  let acc = ref 0 in
  while not st.halted do
    let s = Exec.step mode code st in
    acc :=
      mix !acc ~pc:s.Exec.pc ~guard_true:s.guard_true ~taken:s.taken ~next_pc:s.next_pc
        ~addr:s.addr
  done;
  (st.retired, !acc, State.outcome st)

let run_compiled compiled program =
  let st = State.create program in
  let o = Exec.make_out () in
  let acc = ref 0 in
  let sink (o : Exec.out) =
    acc :=
      mix !acc ~pc:o.o_pc ~guard_true:o.o_guard_true ~taken:o.o_taken ~next_pc:o.o_next_pc
        ~addr:o.o_addr
  in
  Compiled.run_to_halt compiled st o ~sink ~fuel:max_int;
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
  let with_interp v f =
    let saved = !Trace.use_interpreter in
    Trace.use_interpreter := v;
    Fun.protect ~finally:(fun () -> Trace.use_interpreter := saved) f
  in
  let tc, sc = with_interp false (fun () -> Trace.generate program) in
  let ti, si = with_interp true (fun () -> Trace.generate program) in
  if State.outcome sc <> State.outcome si then fail "trace outcomes differ";
  if Trace.length tc <> Trace.length ti then fail "trace lengths differ";
  for i = 0 to Trace.length tc - 1 do
    if
      Trace.pc tc i <> Trace.pc ti i
      || Trace.next_pc tc i <> Trace.next_pc ti i
      || Trace.addr tc i <> Trace.addr ti i
      || Trace.guard_true tc i <> Trace.guard_true ti i
      || Trace.taken tc i <> Trace.taken ti i
    then fail "trace entry %d differs between compiled and interpreted refill" i
  done

let time_best_of ~trials f =
  ignore (f ());
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = Sys.time () in
    ignore (f ());
    best := min !best (Sys.time () -. t0)
  done;
  !best

let check_speedup () =
  let mode = Exec.Architectural in
  let compiled = Compiled.compile ~checked:false ~mode (Wish_isa.Program.code program) in
  let ti = time_best_of ~trials:3 (fun () -> run_interp mode program) in
  let tc = time_best_of ~trials:3 (fun () -> run_compiled compiled program) in
  let speedup = ti /. tc in
  Printf.printf "emu-smoke: identity OK; compiled speedup %.2fx (floor %.1fx)\n%!" speedup
    min_speedup;
  if speedup < min_speedup then
    fail "compiled emulator only %.2fx over interpreter (floor %.1fx)" speedup min_speedup

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
