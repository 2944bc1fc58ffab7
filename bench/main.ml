(* The benchmark harness.

   Running [dune exec bench/main.exe] regenerates every table and figure of
   the paper's evaluation (the rows the paper reports, on our simulated
   machine and workloads) and then runs a Bechamel micro-benchmark suite
   with one [Test.make] per paper artifact, each timing the hardware
   mechanism that artifact stresses.

   Options:
     bench/main.exe fig10 tab5      regenerate selected artifacts only
     bench/main.exe --scale 2       larger workloads
     bench/main.exe --jobs 4        fan simulations across 4 domains ('auto' works too)
     bench/main.exe --no-cache      ignore the on-disk artifact cache
     bench/main.exe --micro-only    skip regeneration, Bechamel only
     bench/main.exe --quota 0.01    Bechamel per-test time budget (s)

   A malformed option value is a usage error: one line on stderr, exit 2. *)

module Lab = Wish_experiments.Lab
module Figures = Wish_experiments.Figures
module Ablations = Wish_experiments.Ablations

(* ------------------------------------------------------------------ *)
(* Artifact regeneration                                               *)
(* ------------------------------------------------------------------ *)

let regenerate ~scale ~jobs ~use_cache names =
  let cache = if use_cache then Some (Wish_experiments.Cache.create ()) else None in
  let lab = Lab.create ~scale ~jobs ?cache () in
  Fun.protect ~finally:(fun () -> Lab.shutdown lab) @@ fun () ->
  Lab.set_logger lab (fun s -> Printf.eprintf "[lab] %s\n%!" s);
  let catalog = Figures.all @ Ablations.all in
  let selected =
    if names = [] then catalog
    else
      List.filter_map
        (fun n ->
          match List.assoc_opt n catalog with
          | Some f -> Some (n, f)
          | None ->
            Printf.eprintf "unknown artifact %s\n" n;
            None)
        names
  in
  let wall0 = Unix.gettimeofday () in
  let timings =
    List.map
      (fun (name, f) ->
        let t0 = Unix.gettimeofday () in
        (* Fan the artifact's full simulation grid across the worker pool;
           the generator below then renders from warm memo tables. *)
        (match (Figures.jobs_for name lab, Ablations.jobs_for name lab) with
        | [], [] -> ()
        | js, [] | [], js -> Lab.prewarm lab js
        | _ -> assert false (* figure and ablation ids are disjoint *));
        Wish_util.Table.print (f lab);
        let dt = Unix.gettimeofday () -. t0 in
        Printf.printf "(%s regenerated in %.1fs)\n\n%!" name dt;
        (name, dt))
      selected
  in
  (* Machine-readable perf record of the regeneration pass. *)
  let open Wish_util.Perf_json in
  let st = Lab.batch_stats lab in
  let g = Wish_util.Gc_stats.snapshot () in
  write_file "BENCH_regen.json"
    (Obj
       [
         ("bench", String "regen");
         ("scale", Int scale);
         ("jobs", Int jobs);
         ("cache", Bool use_cache);
         ("wall_s", Float (Unix.gettimeofday () -. wall0));
         ("minor_words", Float g.minor_words);
         ("major_words", Float g.major_words);
         ("peak_rss_kb", of_rss (Wish_util.Gc_stats.peak_rss_kb_opt ()));
         ("cache_hits", Int st.cache_hits);
         ("tasks_executed", Int st.executed);
         ("artifacts", Obj (List.map (fun (n, dt) -> (n, Float dt)) timings));
       ])

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the mechanism behind each artifact        *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* fig1/fig10/fig12/fig14/fig15/fig16 all reduce to "simulate a kernel on
   some machine"; their micro-benchmarks time simulator cycles end to end
   on small hand-built kernels exercising the relevant binary flavour. *)

let tiny_hammock ~wish =
  let open Wish_isa in
  let hb ~guard l = if wish then Asm.wish_jump ~guard l else Asm.br ~guard l in
  let items =
    Asm.[
      movi 3 0;
      movi 4 0;
      label "loop";
      alu Inst.And 6 3 (Inst.Imm 255);
      load 7 6 64;
      cmp Inst.Eq ~dst_false:2 1 7 (Inst.Imm 1);
      hb ~guard:1 "then_";
      alu ~guard:2 Inst.Add 4 4 (Inst.Reg 7);
      alu ~guard:2 Inst.Xor 4 4 (Inst.Imm 3);
      (if wish then Asm.wish_join ~guard:2 "join" else Asm.jmp "join");
      label "then_";
      alu ~guard:1 Inst.Sub 4 4 (Inst.Imm 7);
      alu ~guard:1 Inst.Xor 4 4 (Inst.Imm 11);
      label "join";
      alu Inst.Add 3 3 (Inst.Imm 1);
      cmp Inst.Lt 1 3 (Inst.Imm 64);
      br ~guard:1 "loop";
      halt;
    ]
  in
  let rng = Wish_util.Rng.create 5 in
  let data = List.init 256 (fun k -> (64 + k, Wish_util.Rng.int rng 2)) in
  Wish_isa.Program.create ~mem_words:4096 ~data (Wish_isa.Asm.assemble items)

let simulate_once ?(config = Wish_sim.Config.default) program trace () =
  ignore (Wish_sim.Runner.simulate ~config ~trace program)

let sim_test ~name ?config ~wish () =
  let program = tiny_hammock ~wish in
  let trace, _ = Wish_emu.Trace.generate program in
  Test.make ~name (Staged.stage (simulate_once ?config program trace))

let micro_tests () =
  let open Wish_bpred in
  let conf_knob knobs = { Wish_sim.Config.default with Wish_sim.Config.knobs } in
  [
    (* fig1: input-sensitive predicated code = plain simulation of a
       predicated-equivalent kernel. *)
    sim_test ~name:"fig1: simulate normal-branch kernel" ~wish:false ();
    (* fig2: oracle knobs in the rename/fetch path. *)
    sim_test ~name:"fig2: simulate with NO-DEPEND+NO-FETCH oracle"
      ~config:
        (conf_knob { Wish_sim.Config.no_knobs with no_depend = true; no_fetch = true })
      ~wish:false ();
    (* fig10/fig12: the wish-branch machinery end to end. *)
    sim_test ~name:"fig10: simulate wish jump/join kernel" ~wish:true ();
    sim_test ~name:"fig12: simulate wish kernel, perfect confidence"
      ~config:(conf_knob { Wish_sim.Config.no_knobs with perfect_conf = true })
      ~wish:true ();
    (* fig11: the JRS confidence estimator. *)
    (let c = Confidence.create Confidence.default_config in
     let i = ref 0 in
     Test.make ~name:"fig11: JRS estimate+train"
       (Staged.stage (fun () ->
            incr i;
            let pc = !i land 63 in
            ignore (Confidence.is_high_confidence c ~pc ~history:!i);
            Confidence.train c ~pc ~history:!i ~correct:(!i land 3 <> 0))));
    (* fig13: the wish-loop predictor. *)
    (let lp = Loop_pred.create () in
     let i = ref 0 in
     Test.make ~name:"fig13: wish-loop predictor visit"
       (Staged.stage (fun () ->
            incr i;
            for _ = 1 to 4 do
              ignore (Loop_pred.predict_code lp ~pc:7);
              Loop_pred.spec_iterate lp ~pc:7 ~taken:true;
              Loop_pred.train lp ~pc:7 ~taken:true
            done;
            Loop_pred.spec_iterate lp ~pc:7 ~taken:false;
            Loop_pred.train lp ~pc:7 ~taken:false)));
    (* fig14: window scaling = ROB pressure; run the small kernel on a
       128-entry window. *)
    sim_test ~name:"fig14: simulate with 128-entry window"
      ~config:(Wish_sim.Config.with_rob Wish_sim.Config.default 128)
      ~wish:true ();
    (* fig15: pipeline depth = flush penalty; 10-stage machine. *)
    sim_test ~name:"fig15: simulate 10-stage pipeline"
      ~config:(Wish_sim.Config.with_pipeline_stages Wish_sim.Config.default 10)
      ~wish:true ();
    (* fig16: the select-uop translation path. *)
    sim_test ~name:"fig16: simulate with select-uop mechanism"
      ~config:{ Wish_sim.Config.default with Wish_sim.Config.mech = Wish_sim.Config.Select_uop }
      ~wish:true ();
    (* tab4: workload characterization rests on the emulator/tracer. *)
    (let program = tiny_hammock ~wish:true in
     Test.make ~name:"tab4: emulator trace generation"
       (Staged.stage (fun () -> ignore (Wish_emu.Trace.generate program))));
    (* tab5: binary selection rests on the compiler. *)
    (let b = Wish_workloads.Workloads.find ~scale:1 "gzip" in
     Test.make ~name:"tab5: compile all five gzip binaries"
       (Staged.stage (fun () ->
            ignore
              (Wish_compiler.Compiler.compile_all ~mem_words:b.mem_words ~name:b.name
                 ~profile_data:(Wish_workloads.Bench.profile_data b) b.ast))));
  ]

let run_micro ~quota () =
  print_endline "== Bechamel micro-benchmarks (one per paper artifact) ==";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"artifacts" (micro_tests ())) in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) i raw) instances
  in
  let results = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instances results in
  Hashtbl.iter
    (fun _ tbl ->
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-45s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-45s (no estimate)\n" name)
        tbl)
    results

let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("bench: " ^ m);
      exit 2)
    fmt

(* [value flag v parse] — [parse v] or a usage error naming the flag. *)
let value flag v parse =
  match parse v with Ok x -> x | Error e -> usage_error "%s %s: %s" flag v e

let int_arg v = Option.to_result ~none:"expected an integer" (int_of_string_opt v)
let float_arg v = Option.to_result ~none:"expected a number" (float_of_string_opt v)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let scale = ref 1 in
  let jobs = ref (Wish_util.Pool.default_size ()) in
  let use_cache = ref true in
  let micro_only = ref false in
  let no_micro = ref false in
  let quota = ref 0.25 in
  let names = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      scale := value "--scale" v int_arg;
      parse rest
    | "--jobs" :: v :: rest ->
      jobs := value "--jobs" v Wish_util.Pool.jobs_of_string;
      parse rest
    | "--no-cache" :: rest ->
      use_cache := false;
      parse rest
    | "--micro-only" :: rest ->
      micro_only := true;
      parse rest
    | "--no-micro" :: rest ->
      no_micro := true;
      parse rest
    | "--quota" :: v :: rest ->
      quota := value "--quota" v float_arg;
      parse rest
    | x :: rest ->
      names := x :: !names;
      parse rest
  in
  parse args;
  let names = List.rev !names in
  if not !micro_only then regenerate ~scale:!scale ~jobs:!jobs ~use_cache:!use_cache names;
  if (not !no_micro) && names = [] then run_micro ~quota:!quota ()
