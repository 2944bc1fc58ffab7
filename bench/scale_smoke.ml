(* Scale smoke: run a loop-heavy (gzip) and a predication-heavy (mcf)
   kernel at scale 10 through the streaming pipeline, and fail if the
   bounded-memory guarantee regresses — peak trace residency must stay
   within a couple of chunks whatever the dynamic length. Wired into
   [dune runtest] via the @scale-smoke alias; the scale keeps the whole
   thing around a second so tier-1 stays fast. *)

let scale = 10

let lab = Wish_experiments.Lab.create ~scale ()

let run name =
  let program =
    Wish_experiments.Lab.program lab ~bench:name ~kind:Wish_compiler.Policy.Wish_jjl ~input:"A"
  in
  let trace = Wish_emu.Trace.stream program in
  let s = Wish_sim.Runner.simulate ~trace program in
  let peak = Wish_emu.Trace.peak_resident_entries trace in
  let cap = 2 * Wish_emu.Trace.chunk_capacity trace in
  Printf.printf "%-6s scale %d: %d insts, %d cycles, uPC %.3f, peak %d resident entries\n%!"
    name scale s.dynamic_insts s.cycles s.upc peak;
  if s.dynamic_insts < scale * 10_000 then (
    Printf.eprintf "FAIL %s: scale not applied (%d dynamic insts)\n" name s.dynamic_insts;
    exit 1);
  if peak > cap then (
    Printf.eprintf "FAIL %s: peak residency %d exceeds %d (2 chunks) — streaming not bounded\n"
      name peak cap;
    exit 1)

let () =
  run "gzip";
  run "mcf"
