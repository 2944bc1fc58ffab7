(* Sample smoke: gzip and mcf at scale 1, sampled vs exact. Fails if
   the exact run drifts from the seed constants (the sampled-simulation
   machinery must not perturb exact mode) or if the sampled µPC estimate
   errs by more than 2%. Also reruns the sampled mode with the windows
   fanned over a 2-domain pool, and a third time with no trace, so that
   warming runs fused into the compiled emulator (Sampler.run, serial and
   pooled), requiring byte-identical results each time — the
   interval-parallel schedule and the fused warming hooks are both
   supposed to be invisible. Wired into [dune runtest] via the
   @sample-smoke alias. *)

(* Exact-mode seed constants (cycles, retired µops), input A, default
   machine, wish-jjl binary. *)
let golden = [ ("gzip", (140_814, 176_391)); ("mcf", (33_458, 31_854)) ]

(* Dense spec for the short scale-1 traces: most entries measured, the
   rest functionally warmed. *)
let spec = Wish_sim.Sampler.spec ~warm:500 ~detail:16_000

let tolerance_pct = 2.0

let run pool name =
  let bench = Wish_workloads.Workloads.find ~scale:1 name in
  let bins =
    Wish_compiler.Compiler.compile_all ~mem_words:bench.mem_words ~name:bench.name
      ~profile_data:(Wish_workloads.Bench.profile_data bench) bench.ast
  in
  let program =
    Wish_workloads.Bench.program_for bench
      (Wish_compiler.Compiler.binary bins Wish_compiler.Policy.Wish_jjl)
      "A"
  in
  let trace, _ = Wish_emu.Trace.generate program in
  let exact = Wish_sim.Runner.simulate ~trace program in
  let want_cycles, want_retired = List.assoc name golden in
  if exact.cycles <> want_cycles || exact.retired_uops <> want_retired then (
    Printf.eprintf "FAIL %s: exact run differs from seed (%d cycles / %d uops, want %d / %d)\n"
      name exact.cycles exact.retired_uops want_cycles want_retired;
    exit 1);
  let s, r = Wish_sim.Runner.simulate_sampled ~spec ~trace program in
  let err = 100.0 *. (s.upc -. exact.upc) /. exact.upc in
  Printf.printf "%-6s exact uPC %.4f | sampled %.4f +/- %.4f (%d windows, %d/%d measured), err %+.2f%%\n%!"
    name exact.upc s.upc r.r_upc_ci (List.length r.r_windows) r.r_measured_entries
    r.r_total_insts err;
  if Float.abs err > tolerance_pct then (
    Printf.eprintf "FAIL %s: sampled uPC error %+.2f%% exceeds %.1f%%\n" name err tolerance_pct;
    exit 1);
  let s_par, r_par = Wish_sim.Runner.simulate_sampled ~pool ~spec ~trace program in
  if s_par <> s || r_par.r_upc <> r.r_upc
     || r_par.r_est_cycles <> r.r_est_cycles
     || r_par.r_windows <> r.r_windows
  then (
    Printf.eprintf "FAIL %s: interval-parallel sampled run differs from serial\n" name;
    exit 1);
  (* Fused trace-free warming must reproduce the trace-based report bit
     for bit, serially and with pooled windows. *)
  let fused = Wish_sim.Sampler.run ~config:Wish_sim.Config.default ~spec program in
  if compare fused r <> 0 then (
    Printf.eprintf "FAIL %s: fused-warming sampled run differs from trace-based\n" name;
    exit 1);
  let fused_par = Wish_sim.Sampler.run ~pool ~config:Wish_sim.Config.default ~spec program in
  if compare fused_par r <> 0 then (
    Printf.eprintf "FAIL %s: pooled fused-warming sampled run differs from trace-based\n" name;
    exit 1)

let () =
  let pool = Wish_util.Pool.create ~size:2 () in
  Fun.protect
    ~finally:(fun () -> Wish_util.Pool.shutdown pool)
    (fun () ->
      run pool "gzip";
      run pool "mcf")
