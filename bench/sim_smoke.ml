(* Simulator smoke: the tier-1 guardrail for the compiled timing core.
   For each case below it prints one line — cycles, every event counter
   and the memory-hierarchy counters — that the @sim-smoke rule diffs
   against sim_smoke.expected, and it requires a repeated run on a new
   core, with its own machine tables, to reproduce that line exactly.
   The cases are four workload binaries at the default machine, two at a
   memory latency past the completion wheel's horizon, and two wish-jjl
   binaries under every other machine the tables run. Re-pin with
   [dune promote] after a change that is meant to move the numbers.
   End-to-end timing lives in bench/perf. *)

module Compiled = Wish_sim.Compiled
module Config = Wish_sim.Config
module Counters = Wish_sim.Counters
module Policy = Wish_compiler.Policy

let failed = ref false

let fail fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "FAIL sim-smoke: %s\n%!" m;
      failed := true)
    fmt

let lab = Wish_experiments.Lab.create ()
let program_for name kind = Wish_experiments.Lab.program lab ~bench:name ~kind ~input:"A"

let run_compiled config program trace =
  let core = Compiled.run (Compiled.create config program trace) in
  (Compiled.cycles core, Compiled.counters core, Compiled.hier_stats core)

let line (cycles, counts, (m : Wish_mem.Hierarchy.stats)) =
  Printf.sprintf "cycles %d | %s | mem %d %d %d %d %d %d" cycles
    (String.concat " " (List.map (fun c -> string_of_int (Counters.get counts c)) Counters.all))
    m.l1i_accesses m.l1i_misses m.l1d_accesses m.l1d_misses m.l2_accesses m.l2_misses

let check tag config program trace =
  let r = run_compiled config program trace in
  Printf.printf "%s: %s\n%!" tag (line r);
  if run_compiled config program trace <> r then fail "%s: re-run differs" tag

let case ?(label = "default") config (name, kind) =
  let program = program_for name kind in
  let trace, _final = Wish_emu.Trace.generate program in
  check (Printf.sprintf "%s/%s %s" name (Policy.kind_name kind) label) config program trace

let d = Config.default

(* Every machine of the default tables other than [Config.default]:
   Figure 2's knob sets, perfect confidence, the select-uop mechanism
   with and without it, Figures 14-15's windows and depths, and the
   ablations' loop-predictor, threshold and wish-hardware switches. *)
let table_machines =
  let knobs k = { d with knobs = k } and nk = Config.no_knobs in
  let pconf c = { c with Config.knobs = { c.Config.knobs with perfect_conf = true } } in
  let select = { d with mech = Config.Select_uop } in
  let threshold n = { d with conf = { d.conf with threshold = n } } in
  [
    ("no-depend", knobs { nk with no_depend = true });
    ("no-depend+no-fetch", knobs { nk with no_depend = true; no_fetch = true });
    ("perfect-cbp", knobs { nk with perfect_bp = true });
    ("perfect-conf", pconf d);
    ("select-uop", select);
    ("select-uop+perfect-conf", pconf select);
    ("rob-128", Config.with_rob d 128);
    ("rob-256", Config.with_rob d 256);
    ("rob-256/10-stage", Config.with_pipeline_stages (Config.with_rob d 256) 10);
    ("rob-256/20-stage", Config.with_pipeline_stages (Config.with_rob d 256) 20);
    ("no-loop-predictor", { d with use_loop_predictor = false });
    ("threshold-4", threshold 4);
    ("threshold-15", threshold 15);
    ("no-wish-hardware", { d with wish_hardware = false });
  ]

let () =
  Printf.printf
    "# <case>: cycles N | %s | mem l1i_accesses l1i_misses l1d_accesses l1d_misses l2_accesses \
     l2_misses\n"
    (String.concat " " (List.map Counters.name Counters.all));
  List.iter (case d)
    [
      ("gzip", Policy.Wish_jjl);
      ("gzip", Policy.Normal);
      ("mcf", Policy.Base_def);
      ("twolf", Policy.Wish_jj);
    ];
  (* No default-config run schedules a completion past the wheel's
     1024-cycle horizon; a 1500-cycle memory latency sends every L2 miss
     through the overflow table. *)
  let far = { d with hier = { d.hier with memory_latency = 1500 } } in
  List.iter
    (case ~label:"memory-latency-1500" far)
    [ ("gzip", Policy.Normal); ("mcf", Policy.Base_def) ];
  (* Binaries with a wish branch and a guarded non-branch instruction, so
     Config.observed leaves every table machine as it is. *)
  List.iter
    (fun name ->
      let program = program_for name Policy.Wish_jjl in
      let code = Wish_isa.Program.code program in
      let observed =
        Config.observed
          ~wish:(Wish_isa.Code.static_wish_branches code > 0)
          ~predicated:(Wish_isa.Code.static_guarded_non_branches code > 0)
      in
      let trace, _final = Wish_emu.Trace.generate program in
      List.iter
        (fun (label, config) ->
          let tag = Printf.sprintf "%s/wish-jjl %s" name label in
          if observed config <> config then fail "%s: the binary cannot observe the machine" tag;
          check tag config program trace)
        table_machines)
    [ "mcf"; "gap" ];
  if !failed then exit 1
