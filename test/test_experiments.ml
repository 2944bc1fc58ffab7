(* Experiment-harness tests on a reduced lab (two benchmarks) so the suite
   stays fast while covering caching, figure structure, and the headline
   directional results. *)

module Lab = Wish_experiments.Lab
module Figures = Wish_experiments.Figures
module Ablations = Wish_experiments.Ablations
module Cache = Wish_experiments.Cache
module Policy = Wish_compiler.Policy
module Config = Wish_sim.Config

let check = Alcotest.check

(* Full-fidelity summary comparison: the headline fields plus every event
   counter. *)
let summary_repr (s : Wish_sim.Runner.summary) =
  Format.asprintf "cycles=%d insts=%d uops=%d flushes=%d misp=%d upc=%.6f@.%a" s.cycles
    s.dynamic_insts s.retired_uops s.flushes s.mispredicts s.upc Wish_sim.Counters.pp s.counts

(* One lab shared by all tests: results are memoized inside. *)
let lab = lazy (Lab.create ~scale:1 ~names:[ "gzip"; "gap" ] ())

let artifacts = Figures.artifacts @ Ablations.artifacts
let render name = Figures.render name (List.assoc name artifacts)
let cells name lab = (List.assoc name artifacts).cells lab

(* One batch over [cells], results discarded. *)
let batch lab cells = ignore (Lab.run_batch_results lab (Lab.cell_jobs cells))

(* A normalized cell's value, read as the tables read it. *)
let normalized lab ~bench ~kind ?config () =
  let j = Lab.job ~bench ~kind ?config () in
  Lab.render lab ~artifact:"test" [ Lab.Normalized j ] (fun get -> Figures.normalized get j)

let test_lab_caches_results () =
  let lab = Lazy.force lab in
  let a = Lab.run lab ~bench:"gap" ~kind:Policy.Normal () in
  let b = Lab.run lab ~bench:"gap" ~kind:Policy.Normal () in
  Alcotest.(check bool) "same physical result" true (a == b);
  let c = Lab.run lab ~bench:"gap" ~kind:Policy.Normal ~config:(Config.with_rob Config.default 128) () in
  Alcotest.(check bool) "different config differs" true (a != c)

let test_normalized_baseline_is_one () =
  let lab = Lazy.force lab in
  check (Alcotest.float 1e-9) "normal/normal = 1" 1.0
    (normalized lab ~bench:"gzip" ~kind:Policy.Normal ())

let test_perfect_bp_wins () =
  let lab = Lazy.force lab in
  let config = { Config.default with knobs = { Config.no_knobs with perfect_bp = true } } in
  Alcotest.(check bool) "PERFECT-CBP below 1" true
    (normalized lab ~bench:"gzip" ~kind:Policy.Normal ~config () < 0.95)

let test_wish_adapts_on_gap () =
  (* gap: predictable branches. BASE-MAX pays predication overhead; the
     wish binary must stay close to normal (the paper's adaptivity claim). *)
  let lab = Lazy.force lab in
  let base_max = normalized lab ~bench:"gap" ~kind:Policy.Base_max () in
  let wish = normalized lab ~bench:"gap" ~kind:Policy.Wish_jj () in
  Alcotest.(check bool) "BASE-MAX pays overhead" true (base_max > 1.1);
  Alcotest.(check bool) "wish avoids most of it" true (wish < 1.1)

let test_wish_wins_on_gzip () =
  let lab = Lazy.force lab in
  let wish = normalized lab ~bench:"gzip" ~kind:Policy.Wish_jjl () in
  Alcotest.(check bool) "wish-jjl beats normal on gzip" true (wish < 1.0)

let row_count table =
  (* Rendered tables have one line per row plus borders; count data lines. *)
  let s = Wish_util.Table.render table in
  List.length (List.filter (fun l -> String.length l > 0 && l.[0] = '|') (String.split_on_char '\n' s))

let test_figure_structure () =
  let lab = Lazy.force lab in
  (* Two benchmarks: per-benchmark figures have 2 data rows + header (+2 avg
     rows for exec-time figures). *)
  List.iter
    (fun (name, rows) -> check Alcotest.int (name ^ " rows") rows (row_count (render name lab)))
    [ ("fig1", 3); ("fig10", 5); ("fig11", 3); ("fig12", 5); ("fig13", 3); ("fig14", 7); ("tab5", 4) ]

(* AVGnomcf keeps no benchmark when mcf runs alone: the row is left out
   rather than printed as the mean of nothing (nan). *)
let test_mcf_alone_has_no_nan () =
  let fig10 = render "fig10" (Lab.create ~scale:1 ~names:[ "mcf" ] ()) in
  let s = Wish_util.Table.render fig10 in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no nan" false (contains "nan");
  Alcotest.(check bool) "no AVGnomcf row" false (contains "AVGnomcf");
  check Alcotest.int "header, mcf and AVG" 3 (row_count fig10);
  Alcotest.check_raises "mean of nothing" (Invalid_argument "Lab.mean: empty list") (fun () ->
      ignore (Lab.mean []))

let test_all_artifacts_listed () =
  check
    Alcotest.(list string)
    "artifact ids"
    [ "fig1"; "fig2"; "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "tab4"; "tab5" ]
    (List.map fst Figures.all);
  Alcotest.(check bool) "find works" true (Figures.find "fig10" <> None);
  Alcotest.(check bool) "find rejects junk" true (Figures.find "fig99" = None)

(* The data rows of a table, cells split. *)
let csv_rows table =
  match String.split_on_char '\n' (String.trim (Wish_util.Table.to_csv table)) with
  | _header :: rows -> List.map (String.split_on_char ',') rows
  | [] -> []

(* Figure 1 divides each input's run by the normal binary's run on that
   input, and each Table 5 comparison measures wish-jjl against its
   fastest candidate, the first on a tie: both against [Lab.run]. *)
let test_fig1_tab5_values () =
  let lab = Lazy.force lab in
  let cycles ?input bench kind = float_of_int (Lab.run lab ~bench ~kind ?input ()).cycles in
  List.iter
    (function
      | bench :: cells ->
        check
          Alcotest.(list string)
          ("fig1 " ^ bench)
          (List.map
             (fun input ->
               Wish_util.Table.fmt_float ~decimals:3
                 (cycles ~input bench Policy.Base_max /. cycles ~input bench Policy.Normal))
             [ "A"; "B"; "C" ])
          cells
      | [] -> ())
    (csv_rows (render "fig1" lab));
  let versus bench candidates =
    let tag, kind =
      List.fold_left
        (fun (t, k) (t', k') -> if cycles bench k' < cycles bench k then (t', k') else (t, k))
        (List.hd candidates) (List.tl candidates)
    in
    Wish_util.Table.fmt_percent
      (100.0 *. (1.0 -. (cycles bench Policy.Wish_jjl /. cycles bench kind)))
    ^ if tag = "" then "" else " (" ^ tag ^ ")"
  in
  let comparisons =
    [
      [ ("", Policy.Normal) ];
      [ ("DEF", Policy.Base_def); ("MAX", Policy.Base_max) ];
      [ ("BR", Policy.Normal); ("DEF", Policy.Base_def); ("MAX", Policy.Base_max) ];
    ]
  in
  List.iter2
    (fun row candidates ->
      match row with
      | label :: cells ->
        check
          Alcotest.(list string)
          ("tab5 " ^ label)
          (List.map (fun bench -> versus bench candidates) (Lab.bench_names lab))
          (List.filteri (fun i _ -> i < List.length (Lab.bench_names lab)) cells)
      | [] -> ())
    (csv_rows (render "tab5" lab))
    comparisons

(* bench/perf's traced pass simulates each job [jobs_for] lists on the
   default binary of its kind: the list is an artifact's cells without
   their baselines and variant binaries. *)
let test_jobs_for_leaves_out_variants () =
  let lab = Lab.create ~scale:1 ~names:[ "gzip"; "gap" ] () in
  List.iter
    (fun (name, (a : Figures.artifact)) ->
      let jobs = Figures.jobs_for name lab @ Ablations.jobs_for name lab in
      let cells = List.map (function Lab.Plain j | Lab.Normalized j -> j) (a.cells lab) in
      Alcotest.(check bool)
        (name ^ ": the cells minus variant binaries")
        true
        (jobs = List.filter (fun (j : Lab.job) -> j.job_wish_n = None) cells);
      Alcotest.(check bool)
        (name ^ ": no variant binary")
        true
        (List.for_all (fun (j : Lab.job) -> j.job_wish_n = None) jobs))
    artifacts;
  check Alcotest.int "abl-wish-n: six cells" 6 (List.length (cells "abl-wish-n" lab));
  check Alcotest.int "abl-wish-n: its two N=5 jobs" 2 (List.length (Ablations.jobs_for "abl-wish-n" lab))

(* Every artifact renders from its cells alone: after one batch over
   the union of all cells, rendering each artifact from its slice of the
   results, or through its own batch (either raises on a read outside
   its cells or a cell it never reads), executes no task, and a config
   allocated afresh but equal to one the batch ran is served from the
   memo. *)
let test_every_artifact_reads_its_cells () =
  let lab = Lab.create ~scale:1 ~names:[ "gap" ] () in
  let renders =
    Lab.renders lab
      (List.map (fun (name, (a : Figures.artifact)) -> (name, a.cells lab, a.table lab)) artifacts)
  in
  let executed = (Lab.batch_stats lab).executed in
  List.iter (fun render -> ignore (render ())) renders;
  List.iter (fun (name, a) -> ignore (Figures.render name a lab)) artifacts;
  check Alcotest.int "no task after the batch" executed (Lab.batch_stats lab).executed;
  Alcotest.(check bool)
    "a rebuilt default config is the default run" true
    (Lab.run lab ~bench:"gap" ~kind:Policy.Normal ~config:(Config.with_rob Config.default 512) ()
    == Lab.run lab ~bench:"gap" ~kind:Policy.Normal ())

(* A table reads exactly its cells: a read of any other job raises,
   naming the artifact and the job, without computing anything; so does
   a cell it never reads. A plain cell does not declare its baseline. *)
let test_render_reads_only_its_cells () =
  let lab = Lazy.force lab in
  let jj = Lab.job ~bench:"gzip" ~kind:Policy.Wish_jj () in
  let reading reads =
    {
      Figures.cells = (fun _ -> [ Lab.Plain jj ]);
      table =
        (fun _ get ->
          List.iter (fun j -> ignore (get j)) reads;
          Wish_util.Table.create ~title:"" ~header:[] ~aligns:[]);
    }
  in
  ignore (Figures.render "declared" (reading [ jj ]) lab);
  let executed = (Lab.batch_stats lab).executed in
  Alcotest.check_raises "a read outside the cells"
    (Invalid_argument "Lab.render: undeclared reads a job it does not declare: gzip/normal input A")
    (fun () -> ignore (Figures.render "undeclared" (reading [ jj; Lab.baseline_of jj ]) lab));
  Alcotest.check_raises "a cell never read"
    (Invalid_argument
       "Lab.render: unread declares a job it never reads: gzip/wish-jump-join input A")
    (fun () -> ignore (Figures.render "unread" (reading []) lab));
  check Alcotest.int "no task executed" executed (Lab.batch_stats lab).executed

let test_fig2_ordering () =
  (* Idealization can only help: NO-DEPEND+NO-FETCH <= NO-DEPEND <= BASE-MAX
     (on gap, where predication overhead is the story). *)
  let lab = Lazy.force lab in
  let v knobs = normalized lab ~bench:"gap" ~kind:Policy.Base_max ~config:{ Config.default with knobs } () in
  let base = v Config.no_knobs in
  let nd = v { Config.no_knobs with no_depend = true } in
  let ndnf = v { Config.no_knobs with no_depend = true; no_fetch = true } in
  Alcotest.(check bool) "no-depend helps" true (nd <= base +. 0.01);
  Alcotest.(check bool) "no-fetch helps further" true (ndnf <= nd +. 0.01)

(* ------------------------------------------------------------------ *)
(* Parallel batch determinism                                          *)
(* ------------------------------------------------------------------ *)

let grid lab =
  let small = Config.with_rob Config.default 128 in
  List.concat_map
    (fun bench ->
      [
        Lab.job ~bench ~kind:Policy.Normal ();
        Lab.job ~bench ~kind:Policy.Wish_jj ();
        Lab.job ~bench ~kind:Policy.Wish_jj ~config:small ();
        Lab.job ~bench ~kind:Policy.Base_max ();
      ])
    (Lab.bench_names lab)

let test_run_batch_matches_serial () =
  (* The same workload grid through 4 worker domains and through plain
     serial [run] must produce identical summaries (the lab's tables are
     bit-identical whatever --jobs is). *)
  let names = [ "gzip" ] in
  let par = Lab.create ~scale:1 ~names ~jobs:4 () in
  let ser = Lab.create ~scale:1 ~names () in
  let batch = Lab.run_batch par (grid par) in
  let serial =
    List.map
      (fun (j : Lab.job) ->
        Lab.run ser ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input ~config:j.job_config ())
      (grid ser)
  in
  Lab.shutdown par;
  List.iteri
    (fun i (a, b) ->
      check Alcotest.string (Printf.sprintf "job %d identical" i) (summary_repr b) (summary_repr a))
    (List.combine batch serial);
  (* run_batch populated the memo tables: a follow-up serial run on the
     parallel lab returns the memoized object itself. *)
  let again = Lab.run par ~bench:"gzip" ~kind:Policy.Normal () in
  Alcotest.(check bool) "memo hit after batch" true (List.nth batch 0 == again)

(* ------------------------------------------------------------------ *)
(* Persistent artifact cache                                           *)
(* ------------------------------------------------------------------ *)

(* Tests run in the build sandbox; a relative directory stays inside it. *)
let cache_dir = "_test_wishcache"

let test_cache_roundtrip () =
  let dir = cache_dir ^ "_rt" in
  let cache = Cache.create ~dir () in
  Cache.clear cache;
  let fresh = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache () in
  let a = Lab.run fresh ~bench:"gzip" ~kind:Policy.Wish_jj () in
  (* A brand-new lab over the same directory must resolve the same key
     from disk, without recompiling or resimulating. *)
  let warm = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache () in
  let hits = ref [] in
  Lab.set_logger warm (fun s -> hits := s :: !hits);
  let b = Lab.run warm ~bench:"gzip" ~kind:Policy.Wish_jj () in
  check Alcotest.string "summary read back equals freshly computed" (summary_repr a)
    (summary_repr b);
  Alcotest.(check bool) "served from cache" true
    (List.exists (fun s -> String.length s >= 9 && String.sub s 0 9 = "cache hit") !hits);
  Alcotest.(check bool) "no simulation ran" false
    (List.exists (fun s -> String.length s >= 10 && String.sub s 0 10 = "simulating") !hits)

let test_cache_version_invalidation () =
  let dir = cache_dir ^ "_ver" in
  let v1 = Cache.create ~dir ~version:1 () in
  Cache.clear v1;
  Cache.store v1 ~kind:"summary" ~key:"k" (42, "payload");
  check
    Alcotest.(option (pair int string))
    "same version hits" (Some (42, "payload"))
    (Cache.find v1 ~kind:"summary" ~key:"k");
  (* A bumped format version must miss (and evict) rather than
     deserialize stale data. *)
  let v2 = Cache.create ~dir ~version:2 () in
  check
    Alcotest.(option (pair int string))
    "bumped version misses" None
    (Cache.find v2 ~kind:"summary" ~key:"k");
  check
    Alcotest.(option (pair int string))
    "stale entry evicted" None
    (Cache.find v1 ~kind:"summary" ~key:"k")

(* ------------------------------------------------------------------ *)
(* Identical binaries                                                  *)
(* ------------------------------------------------------------------ *)

let logged log prefix = List.filter (String.starts_with ~prefix) (List.rev !log)

(* A fig10 batch simulates each distinct (binary, input, config) once,
   with the count derived from the programs' code rather than pinned,
   stores one summary per distinct run and one binary entry per compile
   task, and serves each job the summary its own program simulates to. *)
let test_distinct_binaries_simulated_once () =
  let cache = Cache.create ~dir:(cache_dir ^ "_twins") () in
  Cache.clear cache;
  let lab = Lab.create ~scale:1 ~names:[ "gzip"; "mcf"; "bzip2" ] ~jobs:2 ~cache () in
  let log = ref [] in
  Lab.set_logger lab (fun s -> log := s :: !log);
  let jobs = List.sort_uniq compare (Lab.cell_jobs (cells "fig10" lab)) in
  let summaries = Lab.run_batch lab jobs in
  Lab.shutdown lab;
  let program (j : Lab.job) =
    Lab.program lab ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input
  in
  let same_run (a : Lab.job) (b : Lab.job) =
    let p = program a and q = program b in
    a.job_bench = b.job_bench && a.job_input = b.job_input && a.job_config = b.job_config
    && p.entry = q.entry
    && Wish_isa.Code.equal p.code q.code
  in
  let distinct =
    List.fold_left (fun acc j -> if List.exists (same_run j) acc then acc else j :: acc) [] jobs
  in
  check Alcotest.int "fig10's jobs" 15 (List.length jobs);
  check Alcotest.int "one simulating line per distinct binary, input and config"
    (List.length distinct)
    (List.length (logged log "simulating"));
  let stored kind =
    List.length
      (List.filter (fun (e, _) -> String.starts_with ~prefix:(kind ^ "/") e) (Cache.scan cache))
  in
  check Alcotest.int "a summary stored per distinct run" (List.length distinct) (stored "summary");
  check Alcotest.int "a binary entry per compile task" 3 (stored "binary");
  (* "simulating gzip/normal input A (...)" names gzip/normal input A. *)
  let simulated =
    List.map (fun l -> String.sub l 11 (String.index l '(' - 12)) (logged log "simulating")
  in
  List.iter2
    (fun (j : Lab.job) s ->
      let what =
        Printf.sprintf "%s/%s input %s" j.job_bench (Policy.kind_name j.job_kind) j.job_input
      in
      if not (List.mem what simulated) then
        check Alcotest.string (what ^ " equals its own program's run")
          (summary_repr (Wish_sim.Runner.simulate ~config:j.job_config (program j)))
          (summary_repr s))
    jobs summaries

(* One batch over fig10 and fig12 traces each (bench, binary, input)
   once, however many of its runs read it, and its tasks are exactly
   its compiles, traces and simulations. *)
let test_one_batch_traces_once () =
  let lab = Lab.create ~scale:1 ~names:[ "gzip"; "mcf" ] ~jobs:2 () in
  let log = ref [] in
  Lab.set_logger lab (fun s -> log := s :: !log);
  let cells = cells "fig10" lab @ cells "fig12" lab in
  batch lab cells;
  let jobs = Lab.cell_jobs cells in
  Lab.shutdown lab;
  let digest (j : Lab.job) =
    ( j.job_bench,
      Lab.binary_digest (Lab.program lab ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input),
      j.job_input )
  in
  (* "tracing gzip/normal input A" names the job whose trace it is. *)
  let traced =
    List.map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ _; binary; "input"; input ] ->
          let bench, label =
            match String.split_on_char '/' binary with [ b; k ] -> (b, k) | _ -> (binary, "")
          in
          let kind = List.find (fun k -> Policy.kind_name k = label) Wish_compiler.Compiler.all_kinds in
          digest (Lab.job ~bench ~kind ~input ())
        | _ -> Alcotest.failf "unexpected line %s" l)
      (logged log "tracing")
  in
  let distinct = List.sort_uniq compare (List.map digest jobs) in
  check Alcotest.int "no trace generated twice" (List.length traced)
    (List.length (List.sort_uniq compare traced));
  check Alcotest.int "a trace per (bench, binary, input)" (List.length distinct) (List.length traced);
  let lines prefix = List.length (logged log prefix) in
  check Alcotest.int "executed = compiles + traces + simulations"
    (lines "compiling" + lines "tracing" + lines "simulating")
    (Lab.batch_stats lab).executed

(* Configs that differ only in fields a binary cannot read are one run
   of it: gzip's normal binary has no wish branch and no guarded
   non-branch instruction, so A2's threshold 4 and Fig 16's select-µop
   machine are the default machine to it, but not to its wish-jjl
   binary. A batch of the three normal jobs simulates once. *)
let test_config_twins_share_one_run () =
  let lab = Lab.create ~scale:1 ~names:[ "gzip" ] () in
  let log = ref [] in
  Lab.set_logger lab (fun s -> log := s :: !log);
  let d = Config.default in
  let threshold = { d with conf = { d.conf with threshold = 4 } }
  and select = { d with mech = Config.Select_uop } in
  let job kind config = Lab.job ~bench:"gzip" ~kind ~config () in
  let key kind config = Lab.run_key_of_job lab (job kind config) in
  check Alcotest.string "normal: threshold 4 is the default run" (key Policy.Normal d)
    (key Policy.Normal threshold);
  check Alcotest.string "normal: select-µop is the default run" (key Policy.Normal d)
    (key Policy.Normal select);
  List.iter
    (fun (label, c) ->
      check Alcotest.bool ("wish-jjl: " ^ label ^ " is its own run") true
        (key Policy.Wish_jjl d <> key Policy.Wish_jjl c))
    [ ("threshold 4", threshold); ("select-µop", select) ];
  let summaries = Lab.run_batch lab (List.map (job Policy.Normal) [ d; threshold; select ]) in
  check Alcotest.int "one simulation" 1 (List.length (logged log "simulating"));
  List.iter
    (fun s ->
      check Alcotest.string "the default run's summary" (summary_repr (List.hd summaries))
        (summary_repr s))
    summaries

(* A summary the cache holds for gzip's normal binary serves a fresh
   lab's BASE-DEF job, batched or not, under their shared key: the lab
   reads gzip's binary entry and the summary, and compiles and simulates
   nothing. *)
let test_cached_twin_serves_fresh_lab () =
  List.iter
    (fun (label, base_def) ->
      let cache = Cache.create ~dir:(cache_dir ^ "_cached_twin_" ^ label) () in
      Cache.clear cache;
      let lab () = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache () in
      let normal = Lab.run (lab ()) ~bench:"gzip" ~kind:Policy.Normal () in
      let fresh = lab () in
      let log = ref [] in
      Lab.set_logger fresh (fun s -> log := s :: !log);
      check Alcotest.string (label ^ ": normal's summary") (summary_repr normal)
        (summary_repr (base_def fresh));
      check Alcotest.(list string) (label ^ ": no compile") [] (logged log "compiling");
      check Alcotest.(list string) (label ^ ": no simulation") [] (logged log "simulating");
      check
        Alcotest.(list string)
        (label ^ ": served by the stored twin")
        [ "cache hit: binary gzip"; "cache hit: summary gzip/base-def input A" ]
        (logged log "cache hit"))
    [
      ( "batched",
        fun lab -> List.hd (Lab.run_batch lab [ Lab.job ~bench:"gzip" ~kind:Policy.Base_def () ]) );
      ("serial", fun lab -> Lab.run lab ~bench:"gzip" ~kind:Policy.Base_def ());
    ]

(* A summary stored from outside the lab under a job's label key (as
   bench/perf's traced pass stores them) serves a fresh lab on that cache,
   twins included; the lab itself stores under run keys only. *)
let test_label_keyed_summary_read () =
  let cache = Cache.create ~dir:(cache_dir ^ "_label") () in
  Cache.clear cache;
  let job kind = Lab.job ~bench:"gzip" ~kind () in
  let keys = Lab.create ~scale:1 ~names:[ "gzip" ] () in
  let label j = Lab.summary_key_of_job keys j in
  Alcotest.(check bool) "twins have distinct label keys" true
    (label (job Policy.Normal) <> label (job Policy.Base_def));
  let base_def = Lab.run (Lazy.force lab) ~bench:"gzip" ~kind:Policy.Base_def () in
  Cache.store cache ~kind:"summary" ~key:(label (job Policy.Base_def)) base_def;
  let fresh = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache () in
  let log = ref [] in
  Lab.set_logger fresh (fun s -> log := s :: !log);
  List.iter
    (fun s -> check Alcotest.string "the stored summary" (summary_repr base_def) (summary_repr s))
    (Lab.run_batch fresh [ job Policy.Base_def; job Policy.Normal ]);
  check Alcotest.(list string) "no simulation" [] (logged log "simulating");
  check
    Alcotest.(list string)
    "read once" [ "cache hit: summary gzip/base-def input A" ] (logged log "cache hit: summary");
  ignore (Lab.run fresh ~bench:"gzip" ~kind:Policy.Wish_jj ());
  let stored key =
    Option.is_some (Cache.find cache ~kind:"summary" ~key : Wish_sim.Runner.summary option)
  in
  Alcotest.(check bool) "computed: stored under its run key" true
    (stored (Lab.run_key_of_job fresh (job Policy.Wish_jj)));
  Alcotest.(check bool) "not under its label key" false (stored (label (job Policy.Wish_jj)))

(* After fig10, abl-wish-n over gap simulates nothing: its N=0 and N=100
   variants are gap's WISH-JJ and BASE-MAX binaries, which fig10 ran, so
   each variant compiles and then finds its twin's memoized summary. *)
let test_wish_n_variants_reuse_fig10 () =
  let lab = Lab.create ~scale:1 ~names:[ "gap" ] () in
  ignore (render "fig10" lab);
  let log = ref [] in
  Lab.set_logger lab (fun s -> log := s :: !log);
  ignore (render "abl-wish-n" lab);
  check Alcotest.(list string) "no simulation" [] (logged log "simulating");
  check
    Alcotest.(list string)
    "each variant compiled"
    [
      "compiling gap/wish-jump-join (wish-jump threshold N=0)";
      "compiling gap/wish-jump-join (wish-jump threshold N=100)";
    ]
    (logged log "compiling");
  List.iter
    (fun (n, twin) ->
      Alcotest.(check bool)
        (Printf.sprintf "N=%d served by its default twin's summary" n)
        true
        (Lab.run lab ~bench:"gap" ~kind:Policy.Wish_jj ~wish_threshold_n:n ()
        == Lab.run lab ~bench:"gap" ~kind:twin ()))
    [ (0, Policy.Wish_jj); (100, Policy.Base_max) ]

(* gzip's WISH-JJL compiled with N=100 is none of gzip's five binaries.
   Its jobs batch like any other: one compile and one trace under the
   variant's own label, one simulation per config, each equal to
   simulating the variant directly; a fresh lab on the cache hits. *)
let test_variant_of_its_own () =
  let cache = Cache.create ~dir:(cache_dir ^ "_own_variant") () in
  Cache.clear cache;
  let lab = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache () in
  let log = ref [] in
  Lab.set_logger lab (fun s -> log := s :: !log);
  let configs = [ Config.default; Config.with_rob Config.default 128 ] in
  let jobs =
    List.map
      (fun config -> Lab.job ~bench:"gzip" ~kind:Policy.Wish_jjl ~wish_threshold_n:100 ~config ())
      configs
  in
  let summaries = Lab.run_batch lab jobs in
  let variant =
    let b = Wish_workloads.Workloads.find ~scale:1 "gzip" in
    let code, _ =
      Wish_compiler.Compiler.compile_kind ~mem_words:b.mem_words ~wish_threshold_n:100
        ~name:"gzip" b.ast Policy.Wish_jjl
    in
    Wish_workloads.Bench.program_for b code Lab.eval_input
  in
  List.iter2
    (fun config s ->
      check Alcotest.string "the variant's own run"
        (summary_repr (Wish_sim.Runner.simulate ~config variant))
        (summary_repr s))
    configs summaries;
  check
    Alcotest.(list string)
    "one variant compile"
    [ "compiling gzip/wish-jump-join-loop (wish-jump threshold N=100)" ]
    (logged log "compiling gzip/");
  check
    Alcotest.(list string)
    "one trace, under the variant's label"
    [ "tracing gzip/wish-jump-join-loop.n100 input A" ]
    (logged log "tracing");
  check Alcotest.int "one simulation per config" 2 (List.length (logged log "simulating"));
  let fresh = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache () in
  check Alcotest.string "served from the cache"
    (summary_repr (List.hd summaries))
    (summary_repr (Lab.run fresh ~bench:"gzip" ~kind:Policy.Wish_jjl ~wish_threshold_n:100 ()));
  check Alcotest.int "nothing executed" 0 (Lab.batch_stats fresh).executed

(* ------------------------------------------------------------------ *)
(* Sampled labs                                                        *)
(* ------------------------------------------------------------------ *)

(* A sampled lab warms trace-free: batched and serial runs alike equal
   sampling a materialized trace, it logs no tracing, and its cache
   holds summaries only. *)
let test_sampled_lab_trace_free () =
  let spec = Wish_sim.Sampler.spec ~warm:20_000 ~detail:2_000 in
  List.iter
    (fun (label, sample, spec) ->
      let cache = Cache.create ~dir:(cache_dir ^ "_sampled_" ^ label) () in
      Cache.clear cache;
      let lab = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache ~sample () in
      let log = ref [] in
      Lab.set_logger lab (fun s -> log := s :: !log);
      let batch =
        [ Lab.job ~bench:"gzip" ~kind:Policy.Normal (); Lab.job ~bench:"gzip" ~kind:Policy.Wish_jjl () ]
      in
      let batched = Lab.run_batch lab batch in
      let serial = Lab.run lab ~bench:"gzip" ~kind:Policy.Wish_jj () in
      let jobs = batch @ [ Lab.job ~bench:"gzip" ~kind:Policy.Wish_jj () ] in
      List.iter2
        (fun (j : Lab.job) s ->
          let p = Lab.program lab ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input in
          let trace, _ = Wish_emu.Trace.generate p in
          let want, _ = Wish_sim.Runner.simulate_sampled ?spec ~trace p in
          check Alcotest.string
            (Printf.sprintf "%s %s equals the trace-based run" label
               (Policy.kind_name j.job_kind))
            (summary_repr want) (summary_repr s))
        jobs (batched @ [ serial ]);
      let logged prefix = List.filter (String.starts_with ~prefix) !log in
      check Alcotest.int (label ^ ": one simulating line per job") (List.length jobs)
        (List.length (logged "simulating"));
      check Alcotest.(list string) (label ^ ": no tracing line") [] (logged "tracing");
      let entries = List.map fst (Cache.scan cache) in
      check
        Alcotest.(list string)
        (label ^ ": no trace in the cache") []
        (List.filter (String.starts_with ~prefix:"trace/") entries);
      check Alcotest.int (label ^ ": one summary per job") (List.length jobs)
        (List.length (List.filter (String.starts_with ~prefix:"summary/") entries)))
    [ ("spec", Lab.Sample_spec spec, Some spec); ("auto", Lab.Sample_auto, None) ]

(* ------------------------------------------------------------------ *)
(* Ablation A4 and Table 4 through the lab                             *)
(* ------------------------------------------------------------------ *)

(* A4's N=5 column is the lab's default wish-jj run over the same
   estimator as its baseline: exact in an exact lab, sampled in a sampled
   one. *)
let test_wish_n_default_column () =
  let sampled =
    Lab.create ~scale:1 ~names:[ "gzip"; "gap" ]
      ~sample:(Lab.Sample_spec (Wish_sim.Sampler.spec ~warm:20_000 ~detail:2_000))
      ()
  in
  List.iter
    (fun (label, lab) ->
      let rows = csv_rows (render "abl-wish-n" lab) in
      check Alcotest.int (label ^ ": one row per bench") 2 (List.length rows);
      List.iter
        (function
          | [ bench; _; n5; _ ] ->
            check Alcotest.string
              (Printf.sprintf "%s %s: N=5 is the normalized wish-jj run" label bench)
              (Wish_util.Table.fmt_float ~decimals:3
                 (normalized lab ~bench ~kind:Policy.Wish_jj ()))
              n5
          | row -> Alcotest.failf "%s: unexpected row %s" label (String.concat "," row))
        rows)
    [ ("exact", Lazy.force lab); ("sampled", sampled) ]

(* Table 4's static counts and A4's variant binaries are cached like
   summaries: a second lab on a warm cache renders the same tables
   without compiling, tracing or simulating anything. The cache holds no
   trace: the exact lab traced every default binary, and stored none. *)
let test_warm_lab_computes_nothing () =
  let cache = Cache.create ~dir:(cache_dir ^ "_warm") () in
  Cache.clear cache;
  let render lab =
    List.map (fun a -> Wish_util.Table.render (render a lab)) [ "tab4"; "abl-wish-n" ]
  in
  let names = [ "gzip"; "gap" ] in
  let cold = render (Lab.create ~scale:1 ~names ~cache ()) in
  let warm_lab = Lab.create ~scale:1 ~names ~cache () in
  let log = ref [] in
  Lab.set_logger warm_lab (fun s -> log := s :: !log);
  let warm = render warm_lab in
  check Alcotest.(list string) "same tables" cold warm;
  let work s =
    List.exists (fun p -> String.starts_with ~prefix:p s) [ "compiling"; "tracing"; "simulating" ]
  in
  check Alcotest.(list string) "no compiling, tracing or simulating" []
    (List.filter work (List.rev !log));
  check Alcotest.int "no task executed" 0 (Lab.batch_stats warm_lab).executed;
  let traces = List.filter (fun (e, _) -> String.starts_with ~prefix:"trace/" e) (Cache.scan cache) in
  check Alcotest.int "no trace stored" 0 (List.length traces)

(* An interrupted regeneration resumes from the cache alone. The second
   artifact's batch is stopped as it starts simulating, as SIGINT does
   in [experiments]; a fresh lab on the same cache then simulates
   exactly the jobs left without a stored summary and renders the
   tables of an uninterrupted run. *)
let test_interrupted_batch_resumes () =
  let cache = Cache.create ~dir:(cache_dir ^ "_resume") () in
  Cache.clear cache;
  let names = [ "gzip" ] and artifacts = [ "fig10"; "fig12"; "tab5" ] in
  let regenerate lab = List.map (fun a -> Wish_util.Table.render (render a lab)) artifacts in
  let reference = regenerate (Lab.create ~scale:1 ~names ()) in
  let stopped = Lab.create ~scale:1 ~names ~cache () in
  batch stopped (cells "fig10" stopped);
  Lab.set_logger stopped (fun s ->
      if String.starts_with ~prefix:"simulating" s then Lab.request_stop stopped);
  Alcotest.check_raises "second batch interrupted" Lab.Interrupted (fun () ->
      batch stopped (cells "fig12" stopped));
  let keys =
    List.concat_map (fun a -> Lab.cell_jobs (cells a stopped)) artifacts
    |> List.map (Lab.run_key_of_job stopped)
    |> List.sort_uniq compare
  in
  let missing =
    List.filter
      (fun key -> (Cache.find cache ~kind:"summary" ~key : Wish_sim.Runner.summary option) = None)
      keys
  in
  (* fig10 stored its 4 keys (gzip's BASE-DEF is its normal binary);
     fig12 adds wish-jjl real-conf and perf-conf, two keys of their own,
     and stopped before simulating either. *)
  check Alcotest.int "keys of the three artifacts" 6 (List.length keys);
  check Alcotest.int "jobs left without a summary" 2 (List.length missing);
  let fresh = Lab.create ~scale:1 ~names ~cache () in
  let sims = ref 0 in
  Lab.set_logger fresh (fun s -> if String.starts_with ~prefix:"simulating" s then incr sims);
  check Alcotest.(list string) "same tables as an uninterrupted run" reference (regenerate fresh);
  check Alcotest.int "simulated exactly the jobs left" 2 !sims

(* ------------------------------------------------------------------ *)
(* Concurrent processes on one cache                                   *)
(* ------------------------------------------------------------------ *)

(* This test forks, which OCaml 5 refuses while other domains run, so it
   is registered before any test that spawns a pool. A child reports
   through its exit code and never returns into the runner. *)
let fork_child f =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix._exit
      (try f () with e ->
         prerr_endline (Printexc.to_string e);
         125)
  | pid -> pid

let wait_child pid =
  match Unix.waitpid [] pid with _, Unix.WEXITED n -> n | _ -> -1

(* Two processes started together regenerate fig10 for gzip on one
   fresh cache. Nothing coordinates them, so each may compute every
   run, but their tables agree and every entry they leave is whole:
   fig10's 5 gzip jobs are 4 binaries (BASE-DEF is the normal binary),
   so 4 summaries. A pipe starts both at once. *)
let test_two_processes_share_a_cache () =
  let dir = cache_dir ^ "_shared" in
  let c = Cache.create ~dir () in
  Cache.clear c;
  let go_r, go_w = Unix.pipe () in
  let out i = Filename.concat dir (Printf.sprintf "fig10-%d.csv" i) in
  let run i =
    fork_child (fun () ->
        ignore (Unix.read go_r (Bytes.create 1) 0 1);
        let lab = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache:(Cache.create ~dir ()) () in
        let csv = Wish_util.Table.to_csv (render "fig10" lab) in
        Out_channel.with_open_bin (out i) (fun oc -> output_string oc csv);
        0)
  in
  let pids = [ run 0; run 1 ] in
  ignore (Unix.write go_w (Bytes.of_string "go") 0 2);
  List.iter (fun pid -> check Alcotest.int "child exit" 0 (wait_child pid)) pids;
  Unix.close go_r;
  Unix.close go_w;
  let table i = In_channel.with_open_bin (out i) In_channel.input_all in
  check Alcotest.string "identical tables" (table 0) (table 1);
  let summaries =
    List.filter (fun (e, _) -> String.starts_with ~prefix:"summary/" e) (Cache.scan c)
  in
  check Alcotest.int "a summary for each of the 4 keys" 4 (List.length summaries);
  List.iter
    (fun (e, status) -> Alcotest.(check bool) (e ^ " is whole") true (status = Cache.Entry_ok))
    summaries;
  Alcotest.(check bool) "nothing quarantined" false (Sys.file_exists (Cache.quarantine_dir c))

let () =
  Alcotest.run "wish_experiments"
    [
      ( "parallel",
        [
          Alcotest.test_case "two processes share a cache" `Slow
            test_two_processes_share_a_cache;
          Alcotest.test_case "run_batch = serial run" `Slow test_run_batch_matches_serial;
        ] );
      ( "lab",
        [
          Alcotest.test_case "caches results" `Quick test_lab_caches_results;
          Alcotest.test_case "baseline is one" `Quick test_normalized_baseline_is_one;
        ] );
      ( "identity",
        [
          Alcotest.test_case "each distinct binary simulated once" `Slow
            test_distinct_binaries_simulated_once;
          Alcotest.test_case "one batch traces each binary once" `Slow test_one_batch_traces_once;
          Alcotest.test_case "a cached twin serves a fresh lab" `Slow
            test_cached_twin_serves_fresh_lab;
          Alcotest.test_case "wish-n variants reuse fig10" `Slow test_wish_n_variants_reuse_fig10;
          Alcotest.test_case "a variant of its own binary" `Slow test_variant_of_its_own;
          Alcotest.test_case "config twins share one run" `Slow test_config_twins_share_one_run;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round-trip fidelity" `Slow test_cache_roundtrip;
          Alcotest.test_case "version invalidation" `Quick test_cache_version_invalidation;
          Alcotest.test_case "interrupted batch resumes" `Slow test_interrupted_batch_resumes;
          Alcotest.test_case "a label-keyed summary is read" `Slow test_label_keyed_summary_read;
        ] );
      ("sampled", [ Alcotest.test_case "lab is trace-free" `Slow test_sampled_lab_trace_free ]);
      ( "ablations",
        [
          Alcotest.test_case "wish-n N=5 is the wish-jj run" `Slow test_wish_n_default_column;
          Alcotest.test_case "warm lab computes nothing" `Slow test_warm_lab_computes_nothing;
        ] );
      ( "direction",
        [
          Alcotest.test_case "perfect bp wins" `Slow test_perfect_bp_wins;
          Alcotest.test_case "wish adapts on gap" `Slow test_wish_adapts_on_gap;
          Alcotest.test_case "wish wins on gzip" `Slow test_wish_wins_on_gzip;
          Alcotest.test_case "fig2 ordering" `Slow test_fig2_ordering;
        ] );
      ( "figures",
        [
          Alcotest.test_case "structure" `Slow test_figure_structure;
          Alcotest.test_case "artifact list" `Quick test_all_artifacts_listed;
          Alcotest.test_case "mcf alone has no nan" `Slow test_mcf_alone_has_no_nan;
          Alcotest.test_case "fig1 and tab5 values" `Slow test_fig1_tab5_values;
          Alcotest.test_case "jobs_for leaves out variants" `Quick test_jobs_for_leaves_out_variants;
          Alcotest.test_case "render reads only its cells" `Slow test_render_reads_only_its_cells;
          Alcotest.test_case "every artifact reads its cells" `Slow
            test_every_artifact_reads_its_cells;
        ] );
    ]
