(** Generators for every table and figure of the paper's evaluation.

    Each artifact is one value: its cells, and a renderer whose rows
    mirror the corresponding artifact's bars/series, reading the cells'
    summaries only. Execution-time figures report times normalized to
    the normal-branch binary (lower is better), with the paper's AVG /
    AVGnomcf convention. *)

open Wish_compiler
module Table = Wish_util.Table
module Config = Wish_sim.Config
module Counters = Wish_sim.Counters
module Runner = Wish_sim.Runner

let pct = Table.fmt_percent
let f3 = Table.fmt_float ~decimals:3

type artifact = {
  cells : Lab.t -> Lab.cell list;
  table : Lab.t -> (Lab.job -> Runner.summary) -> Table.t;
}

let render name a lab = Lab.render lab ~artifact:name (a.cells lab) (a.table lab)

let cycles get j = float_of_int (get j).Runner.cycles
let normalized get j = cycles get j /. cycles get (Lab.baseline_of j)

(* The cells of [names]: each one's jobs [jobs name], made by [cell]. *)
let cells_of names cell jobs = List.concat_map (fun name -> List.map cell (jobs name)) names

(* [rows ~title ~header ?benches cell jobs row] — one row per benchmark
   [name] of [benches lab] (default: all), reading cells [jobs name]
   made by [cell]; [row lab name get] renders its values. *)
let rows ~title ~header ?(benches = Lab.bench_names) cell jobs row =
  {
    cells = (fun lab -> cells_of (benches lab) cell jobs);
    table =
      (fun lab get ->
        let t =
          Table.create ~title ~header:("benchmark" :: header)
            ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) header)
        in
        List.iter (fun name -> Table.add_row t (name :: row lab name get)) (benches lab);
        t);
  }

let normalized_rows ~title ~header ?benches jobs =
  rows ~title ~header ?benches (fun j -> Lab.Normalized j) jobs (fun _ name get ->
      List.map (fun j -> f3 (normalized get j)) (jobs name))

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
let fig1 =
  normalized_rows ~title:"Figure 1: predicated (BASE-MAX) binary vs input set"
    ~header:[ "input-A"; "input-B"; "input-C" ]
    (fun name ->
      List.map (fun input -> Lab.job ~bench:name ~kind:Policy.Base_max ~input ()) [ "A"; "B"; "C" ])

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

let bar_job name bar = Lab.job ~bench:name ~kind:bar.kind ~config:bar.config ()

(* Every benchmark x every bar, each normalized. *)
let bar_cells lab bars =
  cells_of (Lab.bench_names lab) (fun j -> Lab.Normalized j) (fun name -> List.map (bar_job name) bars)

(* The paper's two averages, each with the selected benchmarks it keeps.
   An average that keeps none (AVGnomcf when mcf runs alone) has no row. *)
let averages lab =
  List.filter_map
    (fun (label, keep) ->
      match List.filter keep (Lab.bench_names lab) with
      | [] -> None
      | kept -> Some (label, kept))
    [ ("AVG", fun _ -> true); ("AVGnomcf", fun n -> n <> "mcf") ]

(* [column lab get bar] — [bar]'s normalized value on every benchmark,
   computed once for both its rows and its averages. *)
let column lab get bar = List.map (fun n -> (n, normalized get (bar_job n bar))) (Lab.bench_names lab)

let average column kept = Lab.mean (List.map (fun n -> List.assoc n column) kept)

(** Shared renderer: one column per bar, one row per benchmark plus the
    AVG / AVGnomcf rows; values normalized per-benchmark to the normal
    binary under the same configuration. *)
let exec_time_table ~title bars =
  {
    cells = (fun lab -> bar_cells lab bars);
    table =
      (fun lab get ->
        let t =
          Table.create ~title
            ~header:("benchmark" :: List.map (fun b -> b.label) bars)
            ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) bars)
        in
        let columns = List.map (column lab get) bars in
        List.iter
          (fun name -> Table.add_row t (name :: List.map (fun c -> f3 (List.assoc name c)) columns))
          (Lab.bench_names lab);
        Table.add_separator t;
        List.iter
          (fun (label, kept) ->
            Table.add_row t (label :: List.map (fun c -> f3 (average c kept)) columns))
          (averages lab);
        t);
  }

let fig2 = exec_time_table ~title:"Figure 2: idealized elimination of predication overhead" bars_fig2
let fig10 = exec_time_table ~title:"Figure 10: performance of wish jump/join binaries" bars_fig10
let fig12 = exec_time_table ~title:"Figure 12: performance of wish jump/join/loop binaries" bars_fig12

(* The bars of Figures 14 and 15 on one base configuration. *)
let sweep_bars base =
  [
    { label = "BASE-DEF"; kind = Policy.Base_def; config = base };
    { label = "BASE-MAX"; kind = Policy.Base_max; config = base };
    { label = "wish-jjl (real-conf)"; kind = Policy.Wish_jjl; config = base };
    { label = "wish-jjl (perf-conf)"; kind = Policy.Wish_jjl; config = perfect_conf base };
  ]

(** Sweep renderer (Figures 14 and 15): for each swept value [v], the
    AVG and AVGnomcf rows of [bars v], labelled [row v] in the [axis]
    column. *)
let sweep_table ~title ~axis ~row values bars =
  {
    cells = (fun lab -> List.concat_map (fun v -> bar_cells lab (bars v)) values);
    table =
      (fun lab get ->
        let t =
          Table.create ~title
            ~header:[ axis; "average"; "BASE-DEF"; "BASE-MAX"; "wish-jjl (real)"; "wish-jjl (perf)" ]
            ~aligns:[ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
        in
        List.iter
          (fun v ->
            let columns = List.map (column lab get) (bars v) in
            List.iter
              (fun (label, kept) ->
                Table.add_row t (row v :: label :: List.map (fun c -> f3 (average c kept)) columns))
              (averages lab))
          values;
        t);
  }

(** Figure 14: effect of instruction window size (128/256/512),
    normalized to the normal binary on the same window size. *)
let fig14 =
  sweep_table ~title:"Figure 14: effect of instruction window size" ~axis:"window"
    ~row:(fun rob -> string_of_int rob ^ "-entry")
    [ 128; 256; 512 ]
    (fun rob -> sweep_bars (Config.with_rob Config.default rob))

(** Figure 15: effect of pipeline depth (10/20/30 stages, 256-entry
    window). *)
let fig15 =
  sweep_table ~title:"Figure 15: effect of pipeline depth (256-entry window)" ~axis:"stages"
    ~row:(fun stages -> string_of_int stages ^ "-stage")
    [ 10; 20; 30 ]
    (fun stages -> sweep_bars (Config.with_pipeline_stages (Config.with_rob Config.default 256) stages))

(** Figure 16: the select-µop predication support mechanism. *)
let fig16 =
  let c = select_mech Config.default in
  exec_time_table ~title:"Figure 16: performance with the select-uop mechanism"
    [
      { label = "BASE-DEF"; kind = Policy.Base_def; config = c };
      { label = "BASE-MAX"; kind = Policy.Base_max; config = c };
      { label = "wish-jj (real-conf)"; kind = Policy.Wish_jj; config = c };
      { label = "wish-jjl (real-conf)"; kind = Policy.Wish_jjl; config = c };
      { label = "wish-jjl (perf-conf)"; kind = Policy.Wish_jjl; config = perfect_conf c };
    ]

(* ------------------------------------------------------------------ *)
(* Tables read per binary kind on the default machine                  *)
(* ------------------------------------------------------------------ *)

let plain_job name kind = Lab.job ~bench:name ~kind ()
let kind_jobs kinds name = List.map (plain_job name) kinds

(* [plain ~title ~header kinds row] — one row per benchmark, rendered by
   [row lab name summary] from [kinds]' runs on the default machine. *)
let plain ~title ~header kinds row =
  rows ~title ~header (fun j -> Lab.Plain j) (kind_jobs kinds) (fun lab name get ->
      row lab name (fun kind -> get (plain_job name kind)))

(* A class's count per million retired µops, "%.0f"-formatted. *)
let per_million s c =
  let retired = Counters.get s Counters.retired_correct in
  Printf.sprintf "%.0f"
    (if retired = 0 then 0.0
     else 1_000_000.0 *. float_of_int (Counters.get s c) /. float_of_int retired)

(* [classes ~title kind columns] — [kind]'s count of each class in
   [columns] per 1M retired µops. *)
let classes ~title kind columns =
  plain ~title ~header:(List.map fst columns) [ kind ] (fun _ _ get ->
      List.map (fun (_, c) -> per_million (get kind).counts c) columns)

(** Figure 11: dynamic wish branches per 1M retired µops in the wish
    jump/join binary, classified by confidence estimate and by whether the
    branch predictor's prediction was correct. *)
let fig11 =
  classes ~title:"Figure 11: dynamic wish branches per 1M uops (wish jump/join binary)"
    Policy.Wish_jj
    [
      ("low (mispred)", Counters.wish_low_mispred);
      ("low (correct)", Counters.wish_low_correct);
      ("high (mispred)", Counters.wish_high_mispred);
      ("high (correct)", Counters.wish_high_correct);
    ]

(** Figure 13: dynamic wish loops per 1M retired µops in the wish
    jump/join/loop binary, classified by confidence and misprediction case
    (early-exit / late-exit / no-exit). *)
let fig13 =
  classes ~title:"Figure 13: dynamic wish loops per 1M uops (wish jump/join/loop binary)"
    Policy.Wish_jjl
    [
      ("low (no-exit)", Counters.loop_low_noexit);
      ("low (late-exit)", Counters.loop_low_late);
      ("low (early-exit)", Counters.loop_low_early);
      ("low (correct)", Counters.loop_low_correct);
      ("high (mispred)", Counters.loop_high_mispred);
      ("high (correct)", Counters.loop_high_correct);
    ]

(* Table 4: benchmark characterization. *)
let table4 =
  plain ~title:"Table 4: simulated benchmarks (input A)"
    ~header:
      [
        "dyn insts"; "dyn uops"; "static br"; "dyn br"; "misp/1K uops"; "uPC"; "static wish (%loop)";
        "dyn wish (%loop)";
      ]
    [ Policy.Normal; Policy.Wish_jjl ]
    (fun lab name get ->
      let s = get Policy.Normal and sw = get Policy.Wish_jjl in
      let wish = Lab.shape lab ~bench:name ~kind:Policy.Wish_jjl in
      let dyn_wish = Counters.get sw.counts Counters.wish_retired in
      let dyn_loops = Counters.get sw.counts Counters.wish_loop_retired in
      let pct_of part whole = if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole in
      [
        string_of_int s.dynamic_insts;
        string_of_int s.retired_uops;
        string_of_int (Lab.shape lab ~bench:name ~kind:Policy.Normal).cond_branches;
        string_of_int s.cond_branches;
        Printf.sprintf "%.1f" (1000.0 *. float_of_int s.mispredicts /. float_of_int (max 1 s.retired_uops));
        Printf.sprintf "%.2f" s.upc;
        Printf.sprintf "%d (%.0f%%)" wish.wish_branches (pct_of wish.wish_loops wish.wish_branches);
        Printf.sprintf "%d (%.0f%%)" dyn_wish (pct_of dyn_loops dyn_wish);
      ])

(* ------------------------------------------------------------------ *)
(* Table 5: wish jjl binary vs the best-performing other binary        *)
(* ------------------------------------------------------------------ *)

let table5 =
  let comparisons =
    [
      ("vs normal branch binary", [ ("", Policy.Normal) ]);
      ("vs best predicated binary", [ ("DEF", Policy.Base_def); ("MAX", Policy.Base_max) ]);
      ( "vs best non-wish binary",
        [ ("BR", Policy.Normal); ("DEF", Policy.Base_def); ("MAX", Policy.Base_max) ] );
    ]
  in
  let kinds = [ Policy.Normal; Policy.Base_def; Policy.Base_max; Policy.Wish_jjl ] in
  {
    cells = (fun lab -> cells_of (Lab.bench_names lab) (fun j -> Lab.Plain j) (kind_jobs kinds));
    table =
      (fun lab get ->
        let names = Lab.bench_names lab in
        let t =
          Table.create
            ~title:"Table 5: exec-time reduction of wish-jjl vs best-performing binaries (real conf)"
            ~header:("comparison" :: names @ [ "AVG" ])
            ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) (names @ [ "AVG" ]))
        in
        let cycles name kind = cycles get (plain_job name kind) in
        (* wish-jjl's reduction against the fastest candidate, the first
           on a tie, and that candidate's tag. *)
        let versus candidates name =
          let tag, other =
            List.fold_left
              (fun (bt, bv) (tag, kind) ->
                let v = cycles name kind in
                if v < bv then (tag, v) else (bt, bv))
              ("", infinity) candidates
          in
          (100.0 *. (1.0 -. (cycles name Policy.Wish_jjl /. other)), if tag = "" then "" else " (" ^ tag ^ ")")
        in
        List.iter
          (fun (label, candidates) ->
            let vs = List.map (versus candidates) names in
            Table.add_row t
              ((label :: List.map (fun (r, tag) -> pct r ^ tag) vs) @ [ pct (Lab.mean (List.map fst vs)) ]))
          comparisons;
        t);
  }

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
          let program =
            Lab.program (Lab.create ~scale ~names:[ name ] ()) ~bench:name ~kind:Policy.Wish_jjl
              ~input:Lab.eval_input
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
              let program =
                Lab.program (Lab.create ~scale ~names:[ name ] ()) ~bench:name
                  ~kind:Policy.Wish_jjl ~input:Lab.eval_input
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

let artifacts =
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

let jobs_in artifacts name lab =
  match List.assoc_opt name artifacts with
  | None -> []
  | Some a ->
    List.filter_map
      (function Lab.Plain j | Lab.Normalized j -> if j.Lab.job_wish_n = None then Some j else None)
      (a.cells lab)

let all = List.map (fun (name, a) -> (name, render name a)) artifacts
let jobs_for = jobs_in artifacts

(* On-demand artifacts: runnable by name, excluded from the default
   everything-run (runtime scales with the workloads they simulate). *)
let extras = [ ("scale-sweep", scale_sweep); ("sample-sweep", sample_sweep) ]

let find name =
  match List.assoc_opt name all with
  | Some _ as g -> g
  | None -> List.assoc_opt name extras
