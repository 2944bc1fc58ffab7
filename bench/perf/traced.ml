(* The traced pass: the workload's work driven serially, in this process,
   through each layer's public functions, with every call timed from
   here (there are no spans inside lib/). It produces the per-layer
   metrics plus what the harness needs to prove the pass did the same
   work as the untraced run: the hash of the rendered tables, the
   simulated instruction total, and the stream runs' results. *)

module J = Wish_util.Perf_json
module Lab = Wish_experiments.Lab
module Cache = Wish_experiments.Cache
module Figures = Wish_experiments.Figures
module Ablations = Wish_experiments.Ablations
module Bench = Wish_workloads.Bench
module Compiler = Wish_compiler.Compiler
module Policy = Wish_compiler.Policy
module Runner = Wish_sim.Runner
module Trace = Wish_emu.Trace

type layer = { mutable s : float; mutable calls : int; mutable minor : float }

let table : (string, layer) Hashtbl.t = Hashtbl.create 16

(* Work counts and per-layer extras, by metric name. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v = Hashtbl.replace counts name (v +. Option.value (Hashtbl.find_opt counts name) ~default:0.0)
let counted name = Option.value (Hashtbl.find_opt counts name) ~default:0.0

(* [span layer f] — run [f], charging its wall time, one call and its
   minor-heap allocation to [layer]. Spans never nest. *)
let span name f =
  let l =
    match Hashtbl.find_opt table name with
    | Some l -> l
    | None ->
      let l = { s = 0.0; calls = 0; minor = 0.0 } in
      Hashtbl.add table name l;
      l
  in
  let m0 = Gc.minor_words () in
  let t0 = Proc.now () in
  let y = f () in
  l.s <- l.s +. (Proc.now () -. t0);
  l.calls <- l.calls + 1;
  l.minor <- l.minor +. (Gc.minor_words () -. m0);
  y

let kind_of_name n =
  match List.find_opt (fun k -> Policy.kind_name k = n) Compiler.all_kinds with
  | Some k -> k
  | None -> invalid_arg ("unknown binary kind " ^ n)

(* Compiler.compile_all, one public call at a time. *)
let compile (b : Bench.t) =
  let kind ?profile k =
    span "compiler.compile" (fun () ->
        Compiler.compile_kind ~mem_words:b.mem_words ?profile ~name:b.name b.ast k)
  in
  let normal, bmap = kind Policy.Normal in
  let profile =
    span "compiler.profile" (fun () ->
        Compiler.profile_of_run (Wish_isa.Program.with_data normal (Bench.profile_data b)) bmap)
  in
  let other k = fst (kind ~profile k) in
  let base_def = other Policy.Base_def in
  let base_max = other Policy.Base_max in
  let wish_jj = other Policy.Wish_jj in
  let wish_jjl = other Policy.Wish_jjl in
  { Compiler.source_name = b.name; normal; base_def; base_max; wish_jj; wish_jjl }

let md5 s = Digest.to_hex (Digest.string s)

(* Order-preserving grouping by [key]. *)
let group key xs =
  let order = ref [] and tbl = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some l -> Hashtbl.replace tbl k (x :: l)
      | None ->
        order := k :: !order;
        Hashtbl.add tbl k [ x ])
    xs;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

(* [] is experiments' default selection. *)
let artifacts_of names =
  let catalog = Figures.all @ Ablations.all in
  if names = [] then catalog else List.map (fun n -> (n, List.assoc n catalog)) names

(* Regeneration: when [cold], compile → trace → simulate → store every
   unique job the artifacts need, as experiments' prewarm does; then read
   every summary back and render the tables through a fresh Lab on the
   cache. Returns the rendered stdout's MD5 and the instructions the
   simulations covered. *)
let regen ~scale ~benches ~artifacts ~sample ~cache ~cold =
  let names = if benches = [] then Wish_workloads.Workloads.names else benches in
  let bench_list =
    List.map (fun n -> span "workloads.build" (fun () -> Wish_workloads.Workloads.find ~scale n)) names
  in
  let sample =
    Option.map
      (fun s ->
        match Wish_sim.Sampler.of_string s with
        | Ok spec -> spec
        | Error e -> invalid_arg e)
      sample
  in
  let sampling = Option.map (fun s -> Lab.Sample_spec s) sample in
  let keys = span "lab.create" (fun () -> Lab.create ~scale ~names ?sample:sampling ()) in
  let bins = List.map (fun (b : Bench.t) -> (b.name, (b, compile b))) bench_list in
  let artifacts = artifacts_of artifacts in
  let jobs =
    List.concat_map
      (fun (a, _) -> Lab.with_baselines (Figures.jobs_for a keys @ Ablations.jobs_for a keys))
      artifacts
    |> group (Lab.summary_key_of_job keys)
    |> List.map (fun (key, js) -> (key, List.hd js))
  in
  let sim_insts = ref 0 in
  if cold then
    List.iter
      (fun ((bench, kind_n, input), js) ->
        let b, bin = List.assoc bench bins in
        let program = Bench.program_for b (Compiler.binary bin (kind_of_name kind_n)) input in
        let tr, _ =
          span "emu.trace" (fun () -> Trace.generate ~hint:b.approx_dyn_insts program)
        in
        count "emu.trace.minsts" (float_of_int (Trace.length tr) /. 1e6);
        (* Lab's trace-key format, so the cache holds the same files as
           the untraced run's. *)
        let tkey = Printf.sprintf "%s|%s|%s|scale%d" bench kind_n input scale in
        span "cache.write" (fun () -> Cache.store cache ~kind:"trace" ~key:tkey tr);
        List.iter
          (fun (key, (j : Lab.job)) ->
            let config = j.job_config in
            let s =
              match sample with
              | None -> span "sim.exact" (fun () -> Runner.simulate ~config ~trace:tr program)
              | Some spec ->
                let s, r =
                  span "sim.sampled" (fun () ->
                      Runner.simulate_sampled ~config ~spec ~trace:tr program)
                in
                count "sim.sampled.measured" (float_of_int r.Wish_sim.Sampler.r_measured_entries);
                count "sim.sampled.windows" (float_of_int (List.length r.r_windows));
                s
            in
            sim_insts := !sim_insts + s.Runner.dynamic_insts;
            span "cache.write" (fun () ->
                Cache.store cache ~kind:"summary" ~key s;
                Cache.journal_append cache key))
          js)
      (group
         (fun (_, (j : Lab.job)) -> (j.job_bench, Policy.kind_name j.job_kind, j.job_input))
         jobs);
  let hits =
    List.length
      (List.filter
         (fun (key, _) ->
           span "cache.read" (fun () ->
               Option.is_some (Cache.find cache ~kind:"summary" ~key : Runner.summary option)))
         jobs)
  in
  count "cache.read.hit_frac" (float_of_int hits /. float_of_int (max 1 (List.length jobs)));
  let lab = span "lab.create" (fun () -> Lab.create ~scale ~names ~cache ?sample:sampling ()) in
  let out = Buffer.create 65536 in
  List.iter
    (fun (a, f) ->
      let t0 = Proc.now () in
      let t = span "experiments.render" (fun () -> f lab) in
      if a = "abl-wish-n" then count "experiments.render.abl-wish-n.s" (Proc.now () -. t0);
      Buffer.add_string out (Wish_util.Table.render t);
      Buffer.add_char out '\n')
    artifacts;
  (md5 (Buffer.contents out), !sim_insts, [])

(* Streaming runs: what each wishsim --stream process does — build the
   workload, create its Lab, compile the five binaries, then simulate
   through a streaming trace. *)
let stream ~scale ~runs ~input =
  let peak = ref 0 in
  let results =
    List.map
      (fun (bench, kind_n) ->
        let b = span "workloads.build" (fun () -> Wish_workloads.Workloads.find ~scale bench) in
        (* wishsim compiles through a serial Lab; created here for its cost. *)
        ignore (span "lab.create" (fun () -> Lab.create ~scale ~names:[ bench ] ()));
        let bin = compile b in
        let program = Bench.program_for b (Compiler.binary bin (kind_of_name kind_n)) input in
        let s =
          span "sim.stream" (fun () ->
              let trace = Trace.stream program in
              let s = Runner.simulate ~streaming:true ~trace program in
              peak := max !peak (Trace.peak_resident_entries trace);
              s)
        in
        (bench, kind_n, s))
      runs
  in
  count "sim.stream.peak_entries" (float_of_int !peak);
  let sim_insts = List.fold_left (fun acc (_, _, s) -> acc + s.Runner.dynamic_insts) 0 results in
  ( "",
    sim_insts,
    List.map
      (fun (bench, kind_n, (s : Runner.summary)) ->
        J.Obj
          [
            ("run", J.String (Workload.run_id input (bench, kind_n)));
            ("dynamic_insts", J.Int s.dynamic_insts);
            ("cycles", J.Int s.cycles);
          ])
      results )

let layer l = Option.value (Hashtbl.find_opt table l) ~default:{ s = 0.0; calls = 0; minor = 0.0 }

(* [run w ~cache_dir ~cold] — the whole pass; the JSON object the
   [traced] subcommand prints. Metrics of layers the workload does not
   exercise read 0. *)
let run (w : Workload.t) ~cache_dir ~cold =
  let t0 = Proc.now () in
  let cache = Cache.create ~dir:cache_dir () in
  let tables_md5, sim_insts, runs =
    match w.shape with
    | Workload.Regen r ->
      regen ~scale:r.scale ~benches:r.benches ~artifacts:r.artifacts ~sample:r.sample ~cache ~cold
    | Workload.Stream s -> stream ~scale:s.scale ~runs:s.runs ~input:s.input
  in
  let wall = Proc.now () -. t0 in
  let sim =
    match w.shape with
    | Workload.Stream _ -> "sim.stream"
    | Workload.Regen { sample = Some _; _ } -> "sim.sampled"
    | Workload.Regen _ -> "sim.exact"
  in
  let minsts = float_of_int sim_insts /. 1e6 in
  let rate minsts l = if (layer l).s > 0.0 then minsts /. (layer l).s else 0.0 in
  let gc = Gc.quick_stat () in
  let measured =
    List.concat_map
      (fun l ->
        let x = layer l in
        [ (l ^ ".s", x.s); (l ^ ".calls", float_of_int x.calls); (l ^ ".minor_mwords", x.minor /. 1e6) ])
      Workload.layers
    @ List.of_seq (Hashtbl.to_seq counts)
    @ [
        ("emu.trace.minsts_per_s", rate (counted "emu.trace.minsts") "emu.trace");
        (sim ^ ".minsts", minsts);
        (sim ^ ".minsts_per_s", rate minsts sim);
        ( "sim.exact.runs_per_trace",
          if sim = "sim.exact" && (layer "emu.trace").calls > 0 then
            float_of_int (layer sim).calls /. float_of_int (layer "emu.trace").calls
          else 0.0 );
        ( "sim.sampled.measured_frac",
          if sim_insts > 0 then counted "sim.sampled.measured" /. float_of_int sim_insts else 0.0 );
        ("cache.write.mb", if cold then float_of_int (Proc.disk_bytes cache_dir) /. 1e6 else 0.0);
        ("gc.top_heap_mb", float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
        ("gc.major_mwords", gc.Gc.major_words /. 1e6);
        ("traced.wall_s", wall);
        ( "traced.coverage",
          List.fold_left (fun acc l -> acc +. (layer l).s) 0.0 Workload.layers /. wall );
      ]
  in
  (* Catalog order; the harness adds compiler.profile.minsts (a pinned
     count) and traced.overhead (it needs the untraced run). *)
  let metrics =
    List.filter_map
      (fun (m : Workload.metric) ->
        if m.m_name = "compiler.profile.minsts" || m.m_name = "traced.overhead" then None
        else
          Some
            ( m.m_name,
              J.Float (Option.value (List.assoc_opt m.m_name measured) ~default:0.0) ))
      Workload.per_layer
  in
  J.Obj
    [
      ("metrics", J.Obj metrics);
      ("tables_md5", J.String tables_md5);
      ("sim_insts", J.Int sim_insts);
      ("runs", J.List runs);
    ]
