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
    (Lab.normalized lab ~bench:"gzip" ~kind:Policy.Normal ())

let test_perfect_bp_wins () =
  let lab = Lazy.force lab in
  let config = { Config.default with knobs = { Config.no_knobs with perfect_bp = true } } in
  Alcotest.(check bool) "PERFECT-CBP below 1" true
    (Lab.normalized lab ~bench:"gzip" ~kind:Policy.Normal ~config () < 0.95)

let test_wish_adapts_on_gap () =
  (* gap: predictable branches. BASE-MAX pays predication overhead; the
     wish binary must stay close to normal (the paper's adaptivity claim). *)
  let lab = Lazy.force lab in
  let base_max = Lab.normalized lab ~bench:"gap" ~kind:Policy.Base_max () in
  let wish = Lab.normalized lab ~bench:"gap" ~kind:Policy.Wish_jj () in
  Alcotest.(check bool) "BASE-MAX pays overhead" true (base_max > 1.1);
  Alcotest.(check bool) "wish avoids most of it" true (wish < 1.1)

let test_wish_wins_on_gzip () =
  let lab = Lazy.force lab in
  let wish = Lab.normalized lab ~bench:"gzip" ~kind:Policy.Wish_jjl () in
  Alcotest.(check bool) "wish-jjl beats normal on gzip" true (wish < 1.0)

let row_count table =
  (* Rendered tables have one line per row plus borders; count data lines. *)
  let s = Wish_util.Table.render table in
  List.length (List.filter (fun l -> String.length l > 0 && l.[0] = '|') (String.split_on_char '\n' s))

let test_figure_structure () =
  let lab = Lazy.force lab in
  (* Two benchmarks: per-benchmark figures have 2 data rows + header (+2 avg
     rows for exec-time figures). *)
  check Alcotest.int "fig1 rows" 3 (row_count (Figures.fig1 lab));
  check Alcotest.int "fig10 rows" 5 (row_count (Figures.fig10 lab));
  check Alcotest.int "fig11 rows" 3 (row_count (Figures.fig11 lab));
  check Alcotest.int "fig12 rows" 5 (row_count (Figures.fig12 lab));
  check Alcotest.int "fig13 rows" 3 (row_count (Figures.fig13 lab));
  check Alcotest.int "fig14 rows" 7 (row_count (Figures.fig14 lab));
  check Alcotest.int "tab5 rows" 4 (row_count (Figures.table5 lab))

(* AVGnomcf keeps no benchmark when mcf runs alone: the row is left out
   rather than printed as the mean of nothing (nan). *)
let test_mcf_alone_has_no_nan () =
  let fig10 = Figures.fig10 (Lab.create ~scale:1 ~names:[ "mcf" ] ()) in
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

let test_fig2_ordering () =
  (* Idealization can only help: NO-DEPEND+NO-FETCH <= NO-DEPEND <= BASE-MAX
     (on gap, where predication overhead is the story). *)
  let lab = Lazy.force lab in
  let v knobs = Lab.normalized lab ~bench:"gap" ~kind:Policy.Base_max
      ~config:{ Config.default with knobs } () in
  let base = v Config.no_knobs in
  let nd = v { Config.no_knobs with no_depend = true } in
  let ndnf = v { Config.no_knobs with no_depend = true; no_fetch = true } in
  Alcotest.(check bool) "no-depend helps" true (nd <= base +. 0.01);
  Alcotest.(check bool) "no-fetch helps further" true (ndnf <= nd +. 0.01)

(* Each default artifact is described twice: by its generator, and by
   the job grid [Lab.prewarm] fans out. A job missing from a grid would
   silently run serially while the table renders, so after prewarming
   its grid a fresh lab renders each artifact without executing a task.
   abl-wish-n is left out: its grid omits its variant binaries by
   design. *)
let test_grids_cover_tables () =
  List.iter
    (fun (name, render) ->
      if name <> "abl-wish-n" then begin
        let lab = Lab.create ~scale:1 ~names:[ "gap" ] () in
        Lab.prewarm lab (Figures.jobs_for name lab @ Ablations.jobs_for name lab);
        let prewarmed = (Lab.batch_stats lab).executed in
        ignore (render lab);
        check Alcotest.int (name ^ " renders from its grid") prewarmed (Lab.batch_stats lab).executed
      end)
    (Figures.all @ Ablations.all)

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
  ignore (Cache.try_lease v1 ~key:"k");
  Cache.clear v1;
  Alcotest.(check bool) "clear removes the leases" false
    (Sys.file_exists (Filename.concat dir "lease"));
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
  let jobs =
    List.sort_uniq compare (Lab.with_baselines (Figures.jobs_for "fig10" lab))
  in
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
  let jobs = Lab.with_baselines (Figures.jobs_for "fig10" lab @ Figures.jobs_for "fig12" lab) in
  Lab.prewarm lab jobs;
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
  Lab.prewarm lab (Figures.jobs_for "fig10" lab);
  ignore (Figures.fig10 lab);
  let log = ref [] in
  Lab.set_logger lab (fun s -> log := s :: !log);
  Lab.prewarm lab (Ablations.jobs_for "abl-wish-n" lab);
  ignore (Ablations.wish_threshold_n lab);
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

(* The data rows of a table, cells split. *)
let csv_rows table =
  match String.split_on_char '\n' (String.trim (Wish_util.Table.to_csv table)) with
  | _header :: rows -> List.map (String.split_on_char ',') rows
  | [] -> []

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
      let rows = csv_rows (Ablations.wish_threshold_n lab) in
      check Alcotest.int (label ^ ": one row per bench") 2 (List.length rows);
      List.iter
        (function
          | [ bench; _; n5; _ ] ->
            check Alcotest.string
              (Printf.sprintf "%s %s: N=5 is the normalized wish-jj run" label bench)
              (Wish_util.Table.fmt_float ~decimals:3
                 (Lab.normalized lab ~bench ~kind:Policy.Wish_jj ()))
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
    List.map (fun f -> Wish_util.Table.render (f lab)) [ Figures.table4; Ablations.wish_threshold_n ]
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
  let regenerate lab =
    List.map
      (fun a ->
        Lab.prewarm lab (Figures.jobs_for a lab);
        Wish_util.Table.render (List.assoc a Figures.all lab))
      artifacts
  in
  let reference = regenerate (Lab.create ~scale:1 ~names ()) in
  let stopped = Lab.create ~scale:1 ~names ~cache () in
  Lab.prewarm stopped (Figures.jobs_for "fig10" stopped);
  Lab.set_logger stopped (fun s ->
      if String.starts_with ~prefix:"simulating" s then Lab.request_stop stopped);
  Alcotest.check_raises "second batch interrupted" Lab.Interrupted (fun () ->
      Lab.prewarm stopped (Figures.jobs_for "fig12" stopped));
  let keys =
    List.concat_map (fun a -> Lab.with_baselines (Figures.jobs_for a stopped)) artifacts
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
(* Leases: concurrent processes on one cache                           *)
(* ------------------------------------------------------------------ *)

(* These tests fork, which OCaml 5 refuses while other domains run, so
   they are registered before any test that spawns a pool. A child
   reports through its exit code and never returns into the runner. *)
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

(* 0 when a fresh process got the lease on [key], 1 when it was held. *)
let other_process_leases c key =
  wait_child (fork_child (fun () -> if Cache.try_lease c ~key then 0 else 1))

let test_lease_acquire_release () =
  let c = Cache.create ~dir:(cache_dir ^ "_lease") () in
  Cache.clear c;
  Alcotest.(check bool) "acquired" true (Cache.try_lease c ~key:"k");
  Alcotest.(check bool) "its holder may take it again" true (Cache.try_lease c ~key:"k");
  Alcotest.(check int) "another process finds it held" 1 (other_process_leases c "k");
  ignore (wait_child (fork_child (fun () -> Cache.release_lease c ~key:"k"; 0)));
  Alcotest.(check int) "only the holder can release it" 1 (other_process_leases c "k");
  Cache.release_lease c ~key:"k";
  Alcotest.(check int) "released" 0
    (Array.length (Sys.readdir (Filename.concat (Cache.dir c) "lease")));
  Alcotest.(check int) "then another process gets it" 0 (other_process_leases c "k")

let test_lease_stale_takeover () =
  let c = Cache.create ~dir:(cache_dir ^ "_stale") () in
  Cache.clear c;
  (* The child takes the lease and exits without releasing it; once it
     is reaped, its pid is dead and the lease is stale. *)
  Alcotest.(check int) "child took the lease" 0 (other_process_leases c "k");
  Alcotest.(check bool) "dead holder's lease taken over" true (Cache.try_lease c ~key:"k");
  Alcotest.(check int) "and now held here" 1 (other_process_leases c "k");
  Cache.release_lease c ~key:"k"

(* Two processes regenerate fig10 for gzip on one cache at once: the
   tables agree, and between them every distinct binary is simulated
   once. fig10's 5 gzip jobs are 4 binaries (BASE-DEF is the normal
   binary), so 4 keys, whichever process leases which. *)
let test_lease_coalesces_processes () =
  let dir = cache_dir ^ "_coalesce" in
  Cache.clear (Cache.create ~dir ());
  let out i = Filename.concat dir (Printf.sprintf "out%d" i) in
  let run i =
    fork_child (fun () ->
        let lab = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache:(Cache.create ~dir ()) () in
        let sims = ref 0 in
        Lab.set_logger lab (fun s -> if String.starts_with ~prefix:"simulating" s then incr sims);
        Lab.prewarm lab (Figures.jobs_for "fig10" lab);
        let csv = Wish_util.Table.to_csv (Figures.fig10 lab) in
        Out_channel.with_open_bin (out i) (fun oc -> Printf.fprintf oc "%d\n%s" !sims csv);
        0)
  in
  let pids = [ run 0; run 1 ] in
  List.iter (fun pid -> check Alcotest.int "child exit" 0 (wait_child pid)) pids;
  let read i =
    let s = In_channel.with_open_bin (out i) In_channel.input_all in
    let nl = String.index s '\n' in
    (int_of_string (String.sub s 0 nl), String.sub s (nl + 1) (String.length s - nl - 1))
  in
  let sims0, table0 = read 0 and sims1, table1 = read 1 in
  check Alcotest.string "identical tables" table0 table1;
  check Alcotest.int "each distinct binary simulated once" 4 (sims0 + sims1);
  let summaries =
    List.filter
      (fun (e, _) -> String.starts_with ~prefix:"summary/" e)
      (Cache.scan (Cache.create ~dir ()))
  in
  check Alcotest.int "a summary stored for each of the 4 keys" 4 (List.length summaries)

(* Two processes that ask for one bench's binaries on an empty cache at
   once compile it once between them: the first leases the bench's
   [binary] entry and compiles, the other waits on the lease and reads
   the entry. A pipe starts both together. *)
let test_lease_one_compile () =
  let dir = cache_dir ^ "_one_compile" in
  Cache.clear (Cache.create ~dir ());
  let go_r, go_w = Unix.pipe () in
  let out i = Filename.concat dir (Printf.sprintf "compiles%d" i) in
  let run i =
    fork_child (fun () ->
        ignore (Unix.read go_r (Bytes.create 1) 0 1);
        let lab = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache:(Cache.create ~dir ()) () in
        let compiles = ref 0 in
        Lab.set_logger lab (fun s -> if String.starts_with ~prefix:"compiling" s then incr compiles);
        ignore (Lab.shape lab ~bench:"gzip" ~kind:Policy.Wish_jj);
        Out_channel.with_open_bin (out i) (fun oc -> Printf.fprintf oc "%d" !compiles);
        0)
  in
  let pids = [ run 0; run 1 ] in
  ignore (Unix.write go_w (Bytes.of_string "go") 0 2);
  List.iter (fun pid -> check Alcotest.int "child exit" 0 (wait_child pid)) pids;
  Unix.close go_r;
  Unix.close go_w;
  let compiles i = int_of_string (In_channel.with_open_bin (out i) In_channel.input_all) in
  check Alcotest.int "one compiling line between them" 1 (compiles 0 + compiles 1);
  check Alcotest.int "no lease left" 0 (Array.length (Sys.readdir (Filename.concat dir "lease")))

(* While another live process holds the lease of gzip/normal's key, a
   process asking for gzip/base-def, the same binary and so the same
   key, batched or not, takes no lease of its own and never simulates:
   it is served the summary stored under that key. *)
let test_twins_share_one_lease () =
  let normal = Lab.job ~bench:"gzip" ~kind:Policy.Normal () in
  let base_def = Lab.job ~bench:"gzip" ~kind:Policy.Base_def () in
  let summary = List.hd (Lab.run_batch (Lab.create ~scale:1 ~names:[ "gzip" ] ()) [ normal ]) in
  List.iter
    (fun (label, ask) ->
      let dir = cache_dir ^ "_one_lease_" ^ label in
      let c = Cache.create ~dir () in
      Cache.clear c;
      (* Naming the key compiles gzip and stores its binary entry, so the
         child reaches its job without compiling. *)
      let lab = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache:c () in
      let key = Lab.run_key_of_job lab normal in
      check Alcotest.string (label ^ ": twins share the key") key
        (Lab.run_key_of_job lab base_def);
      Alcotest.(check bool) (label ^ ": normal leased here") true (Cache.try_lease c ~key);
      let out = Filename.concat dir "log" in
      let pid =
        fork_child (fun () ->
            let lab = Lab.create ~scale:1 ~names:[ "gzip" ] ~cache:(Cache.create ~dir ()) () in
            let log = ref [] in
            Lab.set_logger lab (fun s -> log := s :: !log);
            let s = ask lab in
            Out_channel.with_open_bin out (fun oc ->
                List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !log));
            if summary_repr s = summary_repr summary then 0 else 1)
      in
      (* Time for the child to reach its job and find the lease held. *)
      Unix.sleepf 0.5;
      check Alcotest.int (label ^ ": the one lease is this process's") 1
        (Array.length (Sys.readdir (Filename.concat dir "lease")));
      Cache.store c ~kind:"summary" ~key summary;
      Cache.release_lease c ~key;
      check Alcotest.int (label ^ ": child exit (served the stored summary)") 0 (wait_child pid);
      let log = ref (List.rev (In_channel.with_open_bin out In_channel.input_lines)) in
      check Alcotest.(list string) (label ^ ": never compiled") [] (logged log "compiling");
      check Alcotest.(list string) (label ^ ": never simulated") [] (logged log "simulating");
      check Alcotest.int
        (label ^ ": served from the cache")
        1
        (List.length (logged log "cache hit: summary gzip/base-def input A")))
    [
      ("batched", fun lab -> List.hd (Lab.run_batch lab [ Lab.job ~bench:"gzip" ~kind:Policy.Base_def () ]));
      ("serial", fun lab -> Lab.run lab ~bench:"gzip" ~kind:Policy.Base_def ());
    ]

let () =
  Alcotest.run "wish_experiments"
    [
      ( "lease",
        [
          Alcotest.test_case "acquire, held, release" `Quick test_lease_acquire_release;
          Alcotest.test_case "stale takeover" `Quick test_lease_stale_takeover;
          Alcotest.test_case "two processes coalesce" `Slow test_lease_coalesces_processes;
          Alcotest.test_case "twins share one lease" `Slow test_twins_share_one_lease;
          Alcotest.test_case "two processes compile a bench once" `Slow test_lease_one_compile;
        ] );
      ( "lab",
        [
          Alcotest.test_case "caches results" `Quick test_lab_caches_results;
          Alcotest.test_case "baseline is one" `Quick test_normalized_baseline_is_one;
        ] );
      ( "parallel",
        [ Alcotest.test_case "run_batch = serial run" `Slow test_run_batch_matches_serial ] );
      ( "identity",
        [
          Alcotest.test_case "each distinct binary simulated once" `Slow
            test_distinct_binaries_simulated_once;
          Alcotest.test_case "one batch traces each binary once" `Slow test_one_batch_traces_once;
          Alcotest.test_case "a cached twin serves a fresh lab" `Slow
            test_cached_twin_serves_fresh_lab;
          Alcotest.test_case "wish-n variants reuse fig10" `Slow test_wish_n_variants_reuse_fig10;
          Alcotest.test_case "a variant of its own binary" `Slow test_variant_of_its_own;
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
          Alcotest.test_case "job grids cover their tables" `Slow test_grids_cover_tables;
        ] );
    ]
