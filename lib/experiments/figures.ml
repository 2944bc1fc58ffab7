(** Generators for every table and figure of the paper's evaluation.

    Each generator returns a {!Wish_util.Table.t} whose rows mirror the
    corresponding artifact's bars/series. Execution-time figures report
    times normalized to the normal-branch binary (lower is better), with
    the paper's AVG / AVGnomcf convention. *)

open Wish_compiler
module Table = Wish_util.Table
module Config = Wish_sim.Config
module Counters = Wish_sim.Counters

let pct = Table.fmt_percent
let f3 = Table.fmt_float ~decimals:3

(* Machine-configuration variants. *)

let with_knobs k = { Config.default with Config.knobs = k }
let perfect_conf c = { c with Config.knobs = { c.Config.knobs with Config.perfect_conf = true } }

let select_mech c = { c with Config.mech = Config.Select_uop }

(* ------------------------------------------------------------------ *)
(* Figure 1: predicated code vs inputs on the "real machine"           *)
(* ------------------------------------------------------------------ *)

(** Figure 1: execution time of the aggressively predicated (BASE-MAX)
    binary on inputs A/B/C, each normalized to the normal binary on the
    same input. The paper measured ORC's predicated output on an
    Itanium-II; we use BASE-MAX because our profile-guided BASE-DEF keeps
    every branch in six of the nine workloads. The point is preserved:
    the same predicated binary wins on some inputs and loses on others. *)
let fig1 lab =
  let t =
    Table.create ~title:"Figure 1: predicated (BASE-MAX) binary vs input set"
      ~header:[ "benchmark"; "input-A"; "input-B"; "input-C" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
  in
  List.iter
    (fun name ->
      let v input = Lab.normalized lab ~bench:name ~kind:Policy.Base_max ~input () in
      Table.add_row t [ name; f3 (v "A"); f3 (v "B"); f3 (v "C") ])
    (Lab.bench_names lab);
  t

(* ------------------------------------------------------------------ *)
(* Execution-time comparisons (Figures 2, 10, 12, 14, 15, 16)          *)
(* ------------------------------------------------------------------ *)

type bar = { label : string; kind : Policy.kind; config : Config.t }

(** Figure 2's cases: the sources of predication overhead ideally
    removed (oracle knobs), plus perfect conditional branch prediction. *)
let bars_fig2 =
  let knobs label kind k = { label; kind; config = with_knobs k } in
  [
    knobs "BASE-MAX" Policy.Base_max Config.no_knobs;
    knobs "NO-DEPEND" Policy.Base_max { Config.no_knobs with Config.no_depend = true };
    knobs "NO-DEPEND+NO-FETCH" Policy.Base_max
      { Config.no_knobs with Config.no_depend = true; no_fetch = true };
    knobs "PERFECT-CBP" Policy.Normal { Config.no_knobs with Config.perfect_bp = true };
  ]

let bars_fig10 =
  [
    { label = "BASE-DEF"; kind = Policy.Base_def; config = Config.default };
    { label = "BASE-MAX"; kind = Policy.Base_max; config = Config.default };
    { label = "wish-jj (real-conf)"; kind = Policy.Wish_jj; config = Config.default };
    { label = "wish-jj (perf-conf)"; kind = Policy.Wish_jj; config = perfect_conf Config.default };
  ]

let bars_fig12 =
  [
    { label = "BASE-DEF"; kind = Policy.Base_def; config = Config.default };
    { label = "BASE-MAX"; kind = Policy.Base_max; config = Config.default };
    { label = "wish-jj (real-conf)"; kind = Policy.Wish_jj; config = Config.default };
    { label = "wish-jjl (real-conf)"; kind = Policy.Wish_jjl; config = Config.default };
    { label = "wish-jjl (perf-conf)"; kind = Policy.Wish_jjl; config = perfect_conf Config.default };
  ]

(* [value lab name bar] — [bar]'s execution time on benchmark [name],
   normalized to the normal binary under the same configuration. *)
let value lab name bar = Lab.normalized lab ~bench:name ~kind:bar.kind ~config:bar.config ()

(* The paper's two averages, each with the selected benchmarks it keeps.
   An average that keeps none (AVGnomcf when mcf runs alone) has no row. *)
let averages lab =
  List.filter_map
    (fun (label, keep) ->
      match List.filter keep (Lab.bench_names lab) with
      | [] -> None
      | kept -> Some (label, kept))
    [ ("AVG", fun _ -> true); ("AVGnomcf", fun n -> n <> "mcf") ]

let average lab kept bar = Lab.mean (List.map (fun n -> value lab n bar) kept)

(** Shared renderer: one column per bar, one row per benchmark plus the
    AVG / AVGnomcf rows; values normalized per-benchmark to the normal
    binary under the same configuration. *)
let exec_time_table lab ~title bars =
  let t =
    Table.create ~title
      ~header:("benchmark" :: List.map (fun b -> b.label) bars)
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) bars)
  in
  List.iter
    (fun name -> Table.add_row t (name :: List.map (fun b -> f3 (value lab name b)) bars))
    (Lab.bench_names lab);
  Table.add_separator t;
  List.iter
    (fun (label, kept) ->
      Table.add_row t (label :: List.map (fun b -> f3 (average lab kept b)) bars))
    (averages lab);
  t

let fig2 lab =
  exec_time_table lab ~title:"Figure 2: idealized elimination of predication overhead" bars_fig2

let fig10 lab = exec_time_table lab ~title:"Figure 10: performance of wish jump/join binaries" bars_fig10

let fig12 lab =
  exec_time_table lab ~title:"Figure 12: performance of wish jump/join/loop binaries" bars_fig12

(* The bars of Figures 14 and 15 on one base configuration. *)
let sweep_bars base =
  [
    { label = "BASE-DEF"; kind = Policy.Base_def; config = base };
    { label = "BASE-MAX"; kind = Policy.Base_max; config = base };
    { label = "wish-jjl (real-conf)"; kind = Policy.Wish_jjl; config = base };
    { label = "wish-jjl (perf-conf)"; kind = Policy.Wish_jjl; config = perfect_conf base };
  ]

let windows = [ 128; 256; 512 ]
let bars_fig14 rob = sweep_bars (Config.with_rob Config.default rob)
let depths = [ 10; 20; 30 ]

let bars_fig15 stages =
  sweep_bars (Config.with_pipeline_stages (Config.with_rob Config.default 256) stages)

(** Sweep renderer (Figures 14 and 15): for each swept value [v], the
    AVG and AVGnomcf rows of [bars v], labelled [row v] in the [axis]
    column. *)
let sweep_table lab ~title ~axis ~row values bars =
  let t =
    Table.create ~title
      ~header:[ axis; "average"; "BASE-DEF"; "BASE-MAX"; "wish-jjl (real)"; "wish-jjl (perf)" ]
      ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  List.iter
    (fun v ->
      List.iter
        (fun (label, kept) ->
          Table.add_row t (row v :: label :: List.map (fun b -> f3 (average lab kept b)) (bars v)))
        (averages lab))
    values;
  t

(** Figure 14: effect of instruction window size (128/256/512),
    normalized to the normal binary on the same window size. *)
let fig14 lab =
  sweep_table lab ~title:"Figure 14: effect of instruction window size" ~axis:"window"
    ~row:(fun rob -> string_of_int rob ^ "-entry")
    windows bars_fig14

(** Figure 15: effect of pipeline depth (10/20/30 stages, 256-entry
    window). *)
let fig15 lab =
  sweep_table lab ~title:"Figure 15: effect of pipeline depth (256-entry window)" ~axis:"stages"
    ~row:(fun stages -> string_of_int stages ^ "-stage")
    depths bars_fig15

let bars_fig16 =
  let c = select_mech Config.default in
  [
    { label = "BASE-DEF"; kind = Policy.Base_def; config = c };
    { label = "BASE-MAX"; kind = Policy.Base_max; config = c };
    { label = "wish-jj (real-conf)"; kind = Policy.Wish_jj; config = c };
    { label = "wish-jjl (real-conf)"; kind = Policy.Wish_jjl; config = c };
    { label = "wish-jjl (perf-conf)"; kind = Policy.Wish_jjl; config = perfect_conf c };
  ]

(** Figure 16: the select-µop predication support mechanism. *)
let fig16 lab =
  exec_time_table lab ~title:"Figure 16: performance with the select-uop mechanism" bars_fig16

(* ------------------------------------------------------------------ *)
(* Figures 11 and 13: dynamic wish-branch classification               *)
(* ------------------------------------------------------------------ *)

(* A class's count per million retired µops, "%.0f"-formatted. *)
let per_million s c =
  let retired = Counters.get s Counters.retired_correct in
  Printf.sprintf "%.0f"
    (if retired = 0 then 0.0
     else 1_000_000.0 *. float_of_int (Counters.get s c) /. float_of_int retired)

(** Figure 11: dynamic wish branches per 1M retired µops in the wish
    jump/join binary, classified by confidence estimate and by whether the
    branch predictor's prediction was correct. *)
let fig11 lab =
  let t =
    Table.create
      ~title:"Figure 11: dynamic wish branches per 1M uops (wish jump/join binary)"
      ~header:
        [ "benchmark"; "low (mispred)"; "low (correct)"; "high (mispred)"; "high (correct)" ]
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  List.iter
    (fun name ->
      let v = per_million (Lab.run lab ~bench:name ~kind:Policy.Wish_jj ()).counts in
      Table.add_row t
        [
          name;
          v Counters.wish_low_mispred;
          v Counters.wish_low_correct;
          v Counters.wish_high_mispred;
          v Counters.wish_high_correct;
        ])
    (Lab.bench_names lab);
  t

(** Figure 13: dynamic wish loops per 1M retired µops in the wish
    jump/join/loop binary, classified by confidence and misprediction case
    (early-exit / late-exit / no-exit). *)
let fig13 lab =
  let t =
    Table.create
      ~title:"Figure 13: dynamic wish loops per 1M uops (wish jump/join/loop binary)"
      ~header:
        [
          "benchmark";
          "low (no-exit)";
          "low (late-exit)";
          "low (early-exit)";
          "low (correct)";
          "high (mispred)";
          "high (correct)";
        ]
      ~aligns:
        [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
  in
  List.iter
    (fun name ->
      let v = per_million (Lab.run lab ~bench:name ~kind:Policy.Wish_jjl ()).counts in
      Table.add_row t
        [
          name;
          v Counters.loop_low_noexit;
          v Counters.loop_low_late;
          v Counters.loop_low_early;
          v Counters.loop_low_correct;
          v Counters.loop_high_mispred;
          v Counters.loop_high_correct;
        ])
    (Lab.bench_names lab);
  t

(* ------------------------------------------------------------------ *)
(* Table 4: benchmark characterization                                 *)
(* ------------------------------------------------------------------ *)

let table4 lab =
  let t =
    Table.create ~title:"Table 4: simulated benchmarks (input A)"
      ~header:
        [
          "benchmark";
          "dyn insts";
          "dyn uops";
          "static br";
          "dyn br";
          "misp/1K uops";
          "uPC";
          "static wish (%loop)";
          "dyn wish (%loop)";
        ]
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right;
        ]
  in
  List.iter
    (fun name ->
      let s = Lab.run lab ~bench:name ~kind:Policy.Normal () in
      let sw = Lab.run lab ~bench:name ~kind:Policy.Wish_jjl () in
      let wish = Lab.shape lab ~bench:name ~kind:Policy.Wish_jjl in
      let dyn_wish = Counters.get sw.counts Counters.wish_retired in
      let dyn_loops = Counters.get sw.counts Counters.wish_loop_retired in
      let pct_of part whole = if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole in
      Table.add_row t
        [
          name;
          string_of_int s.dynamic_insts;
          string_of_int s.retired_uops;
          string_of_int (Lab.shape lab ~bench:name ~kind:Policy.Normal).cond_branches;
          string_of_int s.cond_branches;
          Printf.sprintf "%.1f"
            (1000.0 *. float_of_int s.mispredicts /. float_of_int (max 1 s.retired_uops));
          Printf.sprintf "%.2f" s.upc;
          Printf.sprintf "%d (%.0f%%)" wish.wish_branches
            (pct_of wish.wish_loops wish.wish_branches);
          Printf.sprintf "%d (%.0f%%)" dyn_wish (pct_of dyn_loops dyn_wish);
        ])
    (Lab.bench_names lab);
  t

(* ------------------------------------------------------------------ *)
(* Table 5: wish jjl binary vs the best-performing other binary        *)
(* ------------------------------------------------------------------ *)

let table5 lab =
  let names = Lab.bench_names lab in
  let t =
    Table.create
      ~title:"Table 5: exec-time reduction of wish-jjl vs best-performing binaries (real conf)"
      ~header:("comparison" :: names @ [ "AVG" ])
      ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) (names @ [ "AVG" ]))
  in
  let cycles name kind = float_of_int (Lab.run lab ~bench:name ~kind ()).cycles in
  let wish name = cycles name Policy.Wish_jjl in
  let reduction name other = 100.0 *. (1.0 -. (wish name /. other)) in
  let rows =
    [
      ( "vs normal branch binary",
        fun name -> (reduction name (cycles name Policy.Normal), "") );
      ( "vs best predicated binary",
        fun name ->
          let d = cycles name Policy.Base_def and m = cycles name Policy.Base_max in
          if d <= m then (reduction name d, "DEF") else (reduction name m, "MAX") );
      ( "vs best non-wish binary",
        fun name ->
          let candidates =
            [ ("BR", cycles name Policy.Normal); ("DEF", cycles name Policy.Base_def);
              ("MAX", cycles name Policy.Base_max) ]
          in
          let tag, best =
            List.fold_left (fun (bt, bv) (tag, v) -> if v < bv then (tag, v) else (bt, bv))
              (List.hd candidates |> fun (a, b) -> (a, b))
              (List.tl candidates)
          in
          (reduction name best, tag) );
    ]
  in
  List.iter
    (fun (label, f) ->
      let cells = List.map (fun n -> let r, tag = f n in Printf.sprintf "%s%s" (pct r) (if tag = "" then "" else " (" ^ tag ^ ")")) names in
      let avg = Lab.mean (List.map (fun n -> fst (f n)) names) in
      Table.add_row t ((label :: cells) @ [ pct avg ]))
    rows;
  t

(* ------------------------------------------------------------------ *)
(* Job enumerators: the full simulation grid behind each artifact, for  *)
(* Lab.prewarm to fan across worker domains before the (serial, memo-   *)
(* hitting) generator renders the table.                                *)
(* ------------------------------------------------------------------ *)

(** [bar_jobs lab bars] — every benchmark × every bar. *)
let bar_jobs lab bars =
  List.concat_map
    (fun name -> List.map (fun b -> Lab.job ~bench:name ~kind:b.kind ~config:b.config ()) bars)
    (Lab.bench_names lab)

(** [plain_jobs lab kinds] — every benchmark × [kinds], default machine. *)
let plain_jobs lab kinds =
  List.concat_map
    (fun name -> List.map (fun kind -> Lab.job ~bench:name ~kind ()) kinds)
    (Lab.bench_names lab)

let jobs =
  [
    ( "fig1",
      fun lab ->
        List.concat_map
          (fun name ->
            List.map
              (fun input -> Lab.job ~bench:name ~kind:Policy.Base_max ~input ())
              [ "A"; "B"; "C" ])
          (Lab.bench_names lab) );
    ("fig2", fun lab -> bar_jobs lab bars_fig2);
    ("fig10", fun lab -> bar_jobs lab bars_fig10);
    ("fig11", fun lab -> plain_jobs lab [ Policy.Wish_jj ]);
    ("fig12", fun lab -> bar_jobs lab bars_fig12);
    ("fig13", fun lab -> plain_jobs lab [ Policy.Wish_jjl ]);
    ("fig14", fun lab -> List.concat_map (fun rob -> bar_jobs lab (bars_fig14 rob)) windows);
    ("fig15", fun lab -> List.concat_map (fun st -> bar_jobs lab (bars_fig15 st)) depths);
    ("fig16", fun lab -> bar_jobs lab bars_fig16);
    ("tab4", fun lab -> plain_jobs lab [ Policy.Normal; Policy.Wish_jjl ]);
    ( "tab5",
      fun lab ->
        plain_jobs lab [ Policy.Normal; Policy.Base_def; Policy.Base_max; Policy.Wish_jjl ] );
  ]

let jobs_for name = Option.value (List.assoc_opt name jobs) ~default:(fun _ -> [])

(* ------------------------------------------------------------------ *)
(* All artifacts                                                       *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Scale sweep: the long-run workload class                            *)
(* ------------------------------------------------------------------ *)

let sweep_scales = [ 1; 10; 100 ]

(* One loop-heavy and one predication-heavy kernel. *)
let sweep_benches = [ "gzip"; "mcf" ]

(** [scale_sweep] — the wish-jjl headline at scales 1/10/100, each run
    through the streaming pipeline (emulation fused into simulation, no
    materialized trace). The memory columns are the point: trace-resident
    peak stays at a couple of chunks whatever the dynamic length, while
    the process high-water mark ([VmHWM], cumulative over the sweep) shows
    the whole simulator staying flat. Not part of the default artifact
    set — runtime grows linearly with scale; ask for it by name. *)
let scale_sweep _lab =
  let t =
    Table.create ~title:"Scale sweep: wish-jjl through the streaming pipeline (input A)"
      ~header:
        [
          "benchmark"; "scale"; "dyn insts"; "uPC"; "misp/1K uops"; "trace peak (entries)";
          "trace peak (KiB)"; "peak RSS (KiB)";
        ]
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right;
        ]
  in
  (* Ascending scales, so the cumulative RSS high-water on the largest
     row is the sweep's true peak. *)
  List.iter
    (fun scale ->
      List.iter
        (fun name ->
          let bench = Wish_workloads.Workloads.find ~scale name in
          let bins =
            Compiler.compile_all ~mem_words:bench.mem_words ~name:bench.name
              ~profile_data:(Wish_workloads.Bench.profile_data bench) bench.ast
          in
          let program =
            Wish_workloads.Bench.program_for bench
              (Compiler.binary bins Policy.Wish_jjl)
              Lab.eval_input
          in
          let trace = Wish_emu.Trace.stream program in
          let s = Wish_sim.Runner.simulate ~trace program in
          let peak = Wish_emu.Trace.peak_resident_entries trace in
          Table.add_row t
            [
              name;
              string_of_int scale;
              string_of_int s.dynamic_insts;
              Printf.sprintf "%.2f" s.upc;
              Printf.sprintf "%.1f"
                (1000.0 *. float_of_int s.mispredicts /. float_of_int (max 1 s.retired_uops));
              string_of_int peak;
              string_of_int (peak * 8 / 1024);
              string_of_int (Wish_util.Gc_stats.peak_rss_kb ());
            ])
        sweep_benches)
    sweep_scales;
  t

(* ------------------------------------------------------------------ *)
(* Sample sweep: sampled vs exact accuracy and speedup                 *)
(* ------------------------------------------------------------------ *)

(** [sample_sweep] — sampled simulation ({!Wish_sim.Sampler}, auto spec)
    against the exact run for the sweep workloads at scales 1/10/100:
    µPC error, 95% CI, window count, and wall-clock speedups of the
    serial and interval-parallel (pool-fanned windows) sampled modes.
    On-demand only — every cell re-simulates, nothing is cached (the
    timings would be meaningless otherwise). *)
let sample_sweep lab =
  let t =
    Table.create ~title:"Sample sweep: sampled vs exact simulation, wish-jjl (input A)"
      ~header:
        [
          "benchmark"; "scale"; "dyn insts"; "exact uPC"; "sampled uPC"; "95% CI"; "err %";
          "windows"; "speedup"; "speedup par";
        ]
      ~aligns:
        [
          Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Right; Table.Right; Table.Right;
        ]
  in
  let pool = if Lab.jobs lab > 1 then Some (Wish_util.Pool.create ~size:(Lab.jobs lab) ()) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Wish_util.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun scale ->
          List.iter
            (fun name ->
              let bench = Wish_workloads.Workloads.find ~scale name in
              let bins =
                Compiler.compile_all ~mem_words:bench.mem_words ~name:bench.name
                  ~profile_data:(Wish_workloads.Bench.profile_data bench) bench.ast
              in
              let program =
                Wish_workloads.Bench.program_for bench
                  (Compiler.binary bins Policy.Wish_jjl)
                  Lab.eval_input
              in
              let trace, _ = Wish_emu.Trace.generate program in
              let time f =
                let t0 = Unix.gettimeofday () in
                let y = f () in
                (y, Unix.gettimeofday () -. t0)
              in
              let exact, t_exact = time (fun () -> Wish_sim.Runner.simulate ~trace program) in
              let spec = Wish_sim.Sampler.auto ~length:(Wish_emu.Trace.length trace) in
              let (s, r), t_serial =
                time (fun () -> Wish_sim.Runner.simulate_sampled ~spec ~trace program)
              in
              let t_par =
                match pool with
                | None -> None
                | Some pool ->
                  let _, dt =
                    time (fun () -> Wish_sim.Runner.simulate_sampled ~pool ~spec ~trace program)
                  in
                  Some dt
              in
              let err = 100.0 *. (s.upc -. exact.upc) /. exact.upc in
              Table.add_row t
                [
                  name;
                  string_of_int scale;
                  string_of_int exact.dynamic_insts;
                  Printf.sprintf "%.4f" exact.upc;
                  Printf.sprintf "%.4f" s.upc;
                  Printf.sprintf "±%.4f" r.Wish_sim.Sampler.r_upc_ci;
                  Printf.sprintf "%+.2f" err;
                  string_of_int (List.length r.r_windows);
                  Printf.sprintf "%.1fx" (t_exact /. t_serial);
                  (match t_par with
                  | None -> "-"
                  | Some dt -> Printf.sprintf "%.1fx" (t_exact /. dt));
                ])
            sweep_benches)
        sweep_scales);
  t

(* ------------------------------------------------------------------ *)
(* All artifacts                                                       *)
(* ------------------------------------------------------------------ *)

let all =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("tab4", table4);
    ("tab5", table5);
  ]

(* On-demand artifacts: runnable by name, excluded from the default
   everything-run (runtime scales with the workloads they simulate). *)
let extras = [ ("scale-sweep", scale_sweep); ("sample-sweep", sample_sweep) ]

let find name =
  match List.assoc_opt name all with
  | Some _ as g -> g
  | None -> List.assoc_opt name extras
