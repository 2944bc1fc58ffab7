(* Simulator smoke: the tier-1 guardrail for the compiled timing core. On
   a small workload/binary sample it requires:

   - identity: the compiled core ({!Wish_sim.Compiled}) and the
     interpreted reference ({!Wish_sim.Core}) produce the same cycle
     count, the same event counters and the same memory-hierarchy
     counters — including a repeated compiled run, which exercises the
     machine pool's reset path — under the default configuration and
     under one whose memory latency exceeds the completion wheel's
     horizon, so both cores' drains cross the wheel's overflow path;
   - speedup: a compiled whole run ([Compiled.run], pooled state) beats
     an interpreted one ([Core.run]) by a conservative floor (best of 3
     CPU-time trials; this only catches the optimization being silently
     disabled or regressed — end-to-end timing is bench/perf's job).

   Wired into [dune runtest] via the @sim-smoke alias. *)

module Core = Wish_sim.Core
module Compiled = Wish_sim.Compiled
module Counters = Wish_sim.Counters

let min_speedup = 1.3

let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "FAIL sim-smoke: %s\n" m; exit 1) fmt

let program_for name kind =
  let bench = Wish_workloads.Workloads.find ~scale:1 name in
  let bins =
    Wish_compiler.Compiler.compile_all ~mem_words:bench.mem_words ~name:bench.name
      ~profile_data:(Wish_workloads.Bench.profile_data bench) bench.ast
  in
  Wish_workloads.Bench.program_for bench (Wish_compiler.Compiler.binary bins kind) "A"

let run_interp config program trace =
  let core = Core.create config program trace in
  ignore (Core.run core);
  (Core.cycles core, Core.counters core, Core.hier_stats core)

let run_compiled config program trace =
  let core = Compiled.create config program trace in
  ignore (Compiled.run core);
  (Compiled.cycles core, Compiled.counters core, Compiled.hier_stats core)

let check_identity ?(label = "") name kind config =
  let tag = Printf.sprintf "%s/%s%s" name (Wish_compiler.Policy.kind_name kind) label in
  let program = program_for name kind in
  let trace, _final = Wish_emu.Trace.generate program in
  let ci, si, mi = run_interp config program trace in
  let cc, sc, mc = run_compiled config program trace in
  if ci <> cc then fail "%s: cycles differ (interp %d, compiled %d)" tag ci cc;
  if mi <> mc then fail "%s: hierarchy stats differ" tag;
  if si <> sc then begin
    List.iter
      (fun c ->
        let vi = Counters.get si c and vc = Counters.get sc c in
        if vi <> vc then Printf.eprintf "  %s: interp %d compiled %d\n" (Counters.name c) vi vc)
      Counters.all;
    fail "%s: counters differ" tag
  end;
  (* A second compiled run reuses the pooled machine tables: it must
     reproduce the same numbers exactly (the reset-to-cold guarantee). *)
  let cc2, sc2, mc2 = run_compiled config program trace in
  if (cc, sc, mc) <> (cc2, sc2, mc2) then fail "%s: pooled re-run differs" tag

let time_best f =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Sys.time () in
    f ();
    let dt = Sys.time () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let check_speedup () =
  let program = program_for "gzip" Wish_compiler.Policy.Wish_jjl in
  let trace, _final = Wish_emu.Trace.generate program in
  let config = Wish_sim.Config.default in
  (* One warm-up run per path (fills the machine pool). *)
  ignore (run_compiled config program trace);
  ignore (run_interp config program trace);
  let tc = time_best (fun () -> ignore (Compiled.run (Compiled.create config program trace))) in
  let ti = time_best (fun () -> ignore (Core.run (Core.create config program trace))) in
  let speedup = ti /. tc in
  Printf.printf "sim-smoke: interp %.4fs compiled %.4fs speedup %.2fx\n%!" ti tc speedup;
  if speedup < min_speedup then
    fail "speedup %.2fx below floor %.2fx (compiled path disabled or regressed?)" speedup
      min_speedup

let () =
  let config = Wish_sim.Config.default in
  List.iter
    (fun (name, kind) -> check_identity name kind config)
    [
      ("gzip", Wish_compiler.Policy.Wish_jjl);
      ("gzip", Wish_compiler.Policy.Normal);
      ("mcf", Wish_compiler.Policy.Base_def);
      ("twolf", Wish_compiler.Policy.Wish_jj);
    ];
  (* No default-config run schedules a completion past the wheel's
     1024-cycle horizon; a 1500-cycle memory latency sends every L2 miss
     through the overflow table. *)
  let far = { config with hier = { config.hier with memory_latency = 1500 } } in
  List.iter
    (fun (name, kind) -> check_identity ~label:" (memory latency 1500)" name kind far)
    [ ("gzip", Wish_compiler.Policy.Normal); ("mcf", Wish_compiler.Policy.Base_def) ];
  check_speedup ();
  print_endline "sim-smoke: OK"
