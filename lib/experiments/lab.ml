(** The lab: compiles each workload's five binaries once, memoizes emulator
    traces, simulation results and static branch counts, and hands figure
    generators their data.

    Evaluation protocol (mirroring the paper's methodology):
    - binaries are compiled with profile feedback from each workload's
      designated training input (input B by convention);
    - unless a figure says otherwise (Figure 1 sweeps inputs), simulations
      run on input A — an input the compiler did not train on;
    - execution times are reported normalized to the normal-branch binary
      under the same machine configuration.

    One miss path: {!run} is a memo lookup or a one-job batch, so every
    summary the lab computes comes out of {!run_batch_results}, ablation
    A4's variant binaries included. On top of the memo tables:
    - an optional {!Wish_util.Pool} of worker domains: a batch fans its
      independent compile/trace/simulate tasks across it and folds the
      results back into the tables on the coordinating domain, so the
      tables are only ever mutated single-threaded and the outputs are
      bit-identical whatever the pool size;
    - an optional persistent {!Cache}: summaries and static shapes are
      looked up by (bench, kind, input, scale[, config]) before being
      recomputed and stored after, making repeated runs incremental
      across processes; concurrent processes on one cache coalesce
      duplicate jobs through its leases. Traces are never stored: the
      emulator regenerates one about as fast as the cache loads it, so a
      trace lives only in the in-memory memo, shared by every run of its
      binary and input. A sampled lab has no trace stage at all: its
      simulations warm trace-free;
    - identity by content: binaries compiled to the same code and entry
      are one binary, traced and simulated once per input and config,
      with the summary stored under each binary's own key.

    Fault tolerance (the lab's {!policy}): every stage runs under
    supervision — a job that raises (or whose worker domain dies; the
    {!Wish_util.Pool} requeues and respawns underneath us) fails that job
    only, is retried up to [retries] times, and is reported as a
    structured {!failure} if it never succeeds. Because every
    recomputation is deterministic, a retry runs at once, and any fault
    schedule that eventually succeeds yields byte-identical tables. *)

open Wish_compiler
module Pool = Wish_util.Pool
module Faultpoint = Wish_util.Faultpoint

let fp_compile =
  Faultpoint.register "lab.compile"
    ~doc:"a compile job raises mid-batch (fails the jobs of that bench, or of that variant)"

let fp_trace =
  Faultpoint.register "lab.trace" ~doc:"a trace-generation job raises mid-batch"

let fp_simulate =
  Faultpoint.register "lab.simulate" ~doc:"a simulation job raises mid-batch"

(* --------------------------------------------------------------- *)
(* Supervision policy and outcomes                                  *)
(* --------------------------------------------------------------- *)

type policy = { retries : int; keep_going : bool }

let default_policy = { retries = 2; keep_going = false }

type failure = {
  failed_stage : string;
  failed_what : string;
  failed_attempts : int;
  failed_reason : string;
}

exception Job_failed of failure
exception Interrupted

let pp_failure ppf f =
  Format.fprintf ppf "%s %s failed after %d attempt%s: %s" f.failed_stage f.failed_what
    f.failed_attempts
    (if f.failed_attempts = 1 then "" else "s")
    f.failed_reason

let () =
  Printexc.register_printer (function
    | Job_failed f -> Some (Format.asprintf "Lab.Job_failed (%a)" pp_failure f)
    | Interrupted -> Some "Lab.Interrupted"
    | _ -> None)

type batch_stats = {
  mutable executed : int; (* stage tasks actually run (attempts included) *)
  mutable retried : int; (* extra attempts beyond each task's first *)
  mutable failed : int; (* tasks that exhausted their retry budget *)
  mutable cache_hits : int;
  mutable same_binary : int; (* runs served by an identical binary's summary *)
}

(** How the lab simulates: [Sample_auto] scales a sampling spec to each
    run's dynamic length; [Sample_spec] uses one fixed spec everywhere. *)
type sampling = Sample_auto | Sample_spec of Wish_sim.Sampler.spec

let sampling_key = function
  | Sample_auto -> "auto"
  | Sample_spec s -> Wish_sim.Sampler.to_string s

type shape = { cond_branches : int; wish_branches : int; wish_loops : int }

type t = {
  scale : int;
  names : string list;
  policy : policy;
  binaries : (string, Compiler.binaries) Hashtbl.t;
  identities : (string * string, string * Wish_isa.Program.t) Hashtbl.t;
      (* (bench, label) -> the label of the first binary compiled to the
         same code (a kind in Table 3 order, else the variant itself),
         and that binary; filled as binaries compile *)
  traces : (string * string * string, Wish_emu.Trace.t) Hashtbl.t; (* by identity *)
  results : (string * string * string * Wish_sim.Config.t, Wish_sim.Runner.summary) Hashtbl.t;
  shapes : (string, shape) Hashtbl.t; (* by cache key *)
  mutable log : string -> unit;
  pool : Pool.t option;
  cache : Cache.t option;
  stop : bool Atomic.t;
  stats : batch_stats;
  sample : sampling option;
}

let eval_input = "A"

let create ?(scale = 1) ?names ?(jobs = 1) ?cache ?(policy = default_policy) ?sample () =
  if policy.retries < 0 then invalid_arg "Lab: policy.retries < 0";
  let names = Option.value names ~default:Wish_workloads.Workloads.names in
  (* Benches are built on first use, so a process that only reads
     summaries never pays for one. An unknown name or a scale below 1
     still fails here, with [Workloads.check]'s diagnostic. *)
  List.iter (Wish_workloads.Workloads.check ~scale) names;
  {
    scale;
    names;
    policy;
    binaries = Hashtbl.create 16;
    identities = Hashtbl.create 64;
    traces = Hashtbl.create 64;
    results = Hashtbl.create 256;
    shapes = Hashtbl.create 32;
    log = ignore;
    pool = (if jobs > 1 then Some (Pool.create ~size:jobs ()) else None);
    cache;
    stop = Atomic.make false;
    stats = { executed = 0; retried = 0; failed = 0; cache_hits = 0; same_binary = 0 };
    sample;
  }

let jobs t = match t.pool with Some p -> Pool.size p | None -> 1
let shutdown t = match t.pool with Some p -> Pool.shutdown p | None -> ()

(* A copy: callers cannot perturb the accumulators. *)
let batch_stats t = { t.stats with executed = t.stats.executed }

let request_stop t = Atomic.set t.stop true
let check_stop t = if Atomic.get t.stop then raise Interrupted

let set_logger t f = t.log <- f

let bench_names t = t.names

(* [Workloads.find] memoizes, so every lab in the process shares one
   build per (bench, scale). *)
let bench t name =
  if List.mem name t.names then Wish_workloads.Workloads.find ~scale:t.scale name
  else invalid_arg ("Lab: unknown bench " ^ name)

(* --------------------------------------------------------------- *)
(* Jobs and cache keys                                              *)
(* --------------------------------------------------------------- *)

type job = {
  job_bench : string;
  job_kind : Policy.kind;
  job_wish_n : int option;
  job_input : string;
  job_config : Wish_sim.Config.t;
}

let job ~bench ~kind ?wish_threshold_n ?(input = eval_input) ?(config = Wish_sim.Config.default) ()
    =
  let job_wish_n =
    match wish_threshold_n with
    | Some n when n <> Policy.default_wish_threshold_n -> Some n
    | _ -> None
  in
  { job_bench = bench; job_kind = kind; job_wish_n; job_input = input; job_config = config }

(* A binary's label: its kind, suffixed [.nN] for a variant compiled
   with wish-jump threshold N, e.g. [wish-jump-join.n0]. *)
let job_label j =
  match j.job_wish_n with
  | None -> Policy.kind_name j.job_kind
  | Some n -> Printf.sprintf "%s.n%d" (Policy.kind_name j.job_kind) n

let binary_name j = Printf.sprintf "%s/%s" j.job_bench (job_label j)
let describe_job j = Printf.sprintf "%s input %s" (binary_name j) j.job_input
let memo_key j = (j.job_bench, job_label j, j.job_input, j.job_config)

(** The baseline run {!normalized} divides by: the normal binary on the
    same input and machine, with the oracle idealization knobs stripped. *)
let baseline_of j =
  {
    j with
    job_kind = Policy.Normal;
    job_wish_n = None;
    job_config = { j.job_config with Wish_sim.Config.knobs = Wish_sim.Config.no_knobs };
  }

let with_baselines js = List.concat_map (fun j -> [ j; baseline_of j ]) js

(* Sampled results live under distinct keys (suffix [|sampleW:D] or
   [|sampleauto]); exact summaries keep their historical keys, so a
   cache survives turning sampling on and off. *)
let summary_cache_key t ~bench ~kind ~input ~config =
  let base =
    Printf.sprintf "%s|%s|%s|scale%d|cfg%s" bench kind input t.scale (Cache.digest_of config)
  in
  match t.sample with None -> base | Some s -> base ^ "|sample" ^ sampling_key s

(* The persistent-cache identity of a job's summary — also the key its
   lease is taken on. *)
let summary_key_of_job t j =
  summary_cache_key t ~bench:j.job_bench ~kind:(job_label j) ~input:j.job_input
    ~config:j.job_config

let cached_summary t key =
  match t.cache with None -> None | Some c -> Cache.find c ~kind:"summary" ~key

let cached_shape t key =
  match t.cache with None -> None | Some c -> Cache.find c ~kind:"shape" ~key

let store_summary t key s =
  Option.iter (fun c -> Cache.store c ~kind:"summary" ~key s) t.cache

(* --------------------------------------------------------------- *)
(* Binaries and their identities                                    *)
(* --------------------------------------------------------------- *)

let compile t name =
  let b = bench t name in
  t.log (Printf.sprintf "compiling %s (5 binaries, profile input %s)" name b.profile_input);
  Compiler.compile_all ~mem_words:b.mem_words ~name
    ~profile_data:(Wish_workloads.Bench.profile_data b) b.ast

(* Equal code at an equal entry is one binary: on the same input and
   machine it simulates to the same summary, whatever it was compiled
   as. *)
let same_binary (p : Wish_isa.Program.t) (q : Wish_isa.Program.t) =
  p.entry = q.entry && Wish_isa.Code.equal p.code q.code

(* [p]'s identity: the first kind in Table 3 order compiled to it, with
   that kind's binary, or [label] itself when no kind is. *)
let identity_of bins label p =
  match List.find_opt (fun k -> same_binary (Compiler.binary bins k) p) Compiler.all_kinds with
  | Some k -> (Policy.kind_name k, Compiler.binary bins k)
  | None -> (label, p)

let add_binaries t name bins =
  Hashtbl.replace t.binaries name bins;
  List.iter
    (fun k ->
      let label = Policy.kind_name k in
      Hashtbl.replace t.identities (name, label) (identity_of bins label (Compiler.binary bins k)))
    Compiler.all_kinds

(* A variant maps to its identity like a kind; its bench is compiled. *)
let add_variant t j p =
  let label = job_label j in
  Hashtbl.replace t.identities (j.job_bench, label)
    (identity_of (Hashtbl.find t.binaries j.job_bench) label p)

let binaries t name =
  match Hashtbl.find_opt t.binaries name with
  | Some b -> b
  | None ->
    t.stats.executed <- t.stats.executed + 1;
    let bins = compile t name in
    add_binaries t name bins;
    bins

let program t ~bench:name ~kind ~input =
  let b = bench t name in
  Wish_workloads.Bench.program_for b (Compiler.binary (binaries t name) kind) input

(* A compiled job's identity label and binary. *)
let identity t j = Hashtbl.find t.identities (j.job_bench, job_label j)

(* The kinds compiled to identity [id]'s binary, in Table 3 order. *)
let class_of t name id =
  List.filter
    (fun k -> fst (Hashtbl.find t.identities (name, Policy.kind_name k)) = id)
    Compiler.all_kinds

(* [j] as a run of the default binary of kind [k]. *)
let as_kind j k = { j with job_kind = k; job_wish_n = None }

(* The first of [kinds] (in Table 3 order) whose run of [j]'s input and
   config [find] has a summary for, with that kind's label. *)
let first_twin find j kinds =
  List.find_map (fun k -> Option.map (fun s -> (Policy.kind_name k, s)) (find (as_kind j k))) kinds

(* A summary one of [kinds] already has: memoized in this process, or
   stored in the cache. *)
let memo_twin t = first_twin (fun j -> Hashtbl.find_opt t.results (memo_key j))
let cached_twin t = first_twin (fun j -> cached_summary t (summary_key_of_job t j))

(* A job served by the summary of the identical binary labelled [twin]:
   memoized, and stored under the job's own key. *)
let serve t j ~twin s =
  t.stats.same_binary <- t.stats.same_binary + 1;
  t.log (Printf.sprintf "same binary as %s/%s: %s" j.job_bench twin (describe_job j));
  Hashtbl.replace t.results (memo_key j) s;
  store_summary t (summary_key_of_job t j) s

(* The [simulating] log line's note on what the run covers. *)
let run_note = function
  | Some tr -> Printf.sprintf "%d dynamic insts" (Wish_emu.Trace.length tr)
  | None -> "sampled, trace-free"

(* --------------------------------------------------------------- *)
(* Batched (parallel, supervised) execution                         *)
(* --------------------------------------------------------------- *)

let pmap t f xs = match t.pool with Some p -> Pool.map p f xs | None -> List.map f xs

(* Order-preserving dedup. *)
let uniq key xs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

(* Fan [f] over [xs] on the pool under the lab's policy: each item is
   attempted up to [1 + retries] times, each failed round retried at
   once (recomputation is deterministic, so a retried success is
   bit-identical and waiting buys nothing). Workers never see an
   exception: every attempt is folded to a [result] inside the task, so
   one job's crash (or its worker's injected death, handled a layer down
   by the pool) cannot abandon the batch. Returns per-item
   [Ok y | Error failure] in order; under fail-fast, raises [Job_failed]
   on the first exhausted item instead. *)
let supervised_map t ~stage ~describe f xs =
  if xs = [] then []
  else begin
    check_stop t;
    let { retries; keep_going } = t.policy in
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let attempts = Array.make n 0 in
    let pending = ref (List.init n Fun.id) in
    let round = ref 0 in
    while !pending <> [] && !round <= retries do
      check_stop t;
      let outs =
        pmap t
          (fun i ->
            match f items.(i) with
            | y -> Ok y
            | exception Faultpoint.Injected { site; hit } ->
              Error (Printf.sprintf "injected fault at %s (hit %d)" site hit)
            | exception e -> Error (Printexc.to_string e))
          !pending
      in
      let failed_now = ref [] in
      List.iter2
        (fun i out ->
          attempts.(i) <- attempts.(i) + 1;
          t.stats.executed <- t.stats.executed + 1;
          results.(i) <- Some out;
          match out with
          | Ok _ -> ()
          | Error reason ->
            failed_now := i :: !failed_now;
            t.log
              (Printf.sprintf "%s %s: attempt %d/%d failed (%s)" stage (describe items.(i))
                 attempts.(i) (1 + retries) reason))
        !pending outs;
      let failed_now = List.rev !failed_now in
      if failed_now <> [] && !round < retries then
        t.stats.retried <- t.stats.retried + List.length failed_now;
      pending := failed_now;
      incr round
    done;
    List.init n (fun i ->
        match results.(i) with
        | Some (Ok y) -> Ok y
        | Some (Error reason) ->
          let fl =
            {
              failed_stage = stage;
              failed_what = describe items.(i);
              failed_attempts = attempts.(i);
              failed_reason = reason;
            }
          in
          t.stats.failed <- t.stats.failed + 1;
          if not keep_going then raise (Job_failed fl);
          Error fl
        | None -> assert false)
  end

(* A batch's unit of simulation: the jobs of one binary, input and
   configuration. Only the leader is simulated: the member whose kind
   comes first in Table 3 order, or the first variant when no member is
   a default kind. *)
type group = { leader : job; members : job list }

(* [todo] grouped by bench, identity, input and configuration, in order
   of first appearance. Every job's binary must be compiled. *)
let group_by_binary t todo =
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun j ->
      let g = (j.job_bench, fst (identity t j), j.job_input, j.job_config) in
      match Hashtbl.find_opt groups g with
      | Some js -> Hashtbl.replace groups g (j :: js)
      | None ->
        Hashtbl.add groups g [ j ];
        order := g :: !order)
    todo;
  List.rev_map
    (fun g ->
      let members = List.rev (Hashtbl.find groups g) in
      let first k = List.find_opt (fun j -> job_label j = Policy.kind_name k) members in
      let leader =
        match List.find_map first Compiler.all_kinds with Some j -> j | None -> List.hd members
      in
      { leader; members })
    !order

(* The kinds compiled to [g]'s binary, in Table 3 order. *)
let group_class t { leader = j; _ } = class_of t j.job_bench (fst (identity t j))

(* With a cache, the earliest kind wins across processes. A group waits
   while another live process holds the lease of a kind before its
   leader (every kind, for a variant leader) that compiles to the same
   binary. Otherwise it takes those leases into [guards], to hold until
   its summary is stored, so that no concurrent run starts the binary
   under an earlier label; and under them, a summary a concurrent run
   stored for any other twin serves it. Returns the groups left to
   simulate here and the jobs to wait for. *)
let claim_groups t c ~guards groups =
  (* All or none: a group that waits holds no lease. *)
  let take_guards g =
    let leader = job_label g.leader in
    let rec before = function
      | k :: rest when Policy.kind_name k <> leader -> k :: before rest
      | _ -> []
    in
    let rec take taken = function
      | [] ->
        guards := taken @ !guards;
        true
      | key :: rest ->
        if Cache.try_lease c ~key then take (key :: taken) rest
        else begin
          List.iter (fun key -> Cache.release_lease c ~key) taken;
          false
        end
    in
    take []
      (List.map (fun k -> summary_key_of_job t (as_kind g.leader k)) (before (group_class t g)))
  in
  let served g =
    let others =
      List.filter
        (fun k -> not (List.exists (fun j -> job_label j = Policy.kind_name k) g.members))
        (group_class t g)
    in
    match cached_twin t g.leader others with
    | Some (twin, s) ->
      List.iter (fun j -> serve t j ~twin s) g.members;
      true
    | None -> false
  in
  let ready, waiting = List.partition take_guards groups in
  (List.filter (fun g -> not (served g)) ready, List.concat_map (fun g -> g.members) waiting)

let hit_from_concurrent_run t j s =
  t.stats.cache_hits <- t.stats.cache_hits + 1;
  t.log (Printf.sprintf "cache hit: summary %s (from a concurrent run)" (describe_job j));
  Hashtbl.add t.results (memo_key j) s

(* Seconds between looks at a summary another process holds the lease
   on. *)
let lease_poll = 0.05

(** [run_batch_results t jobs] — the one place the lab computes a
    summary: resolves every job (memo table, then disk cache, then
    compile/trace/simulate fanned over the worker pool, each stage under
    the lab's policy) and returns per-job outcomes in [jobs] order. Jobs
    whose binaries are one binary share one trace and one simulation.
    All memo and cache mutation happens on the calling domain. *)
let run_batch_results t jobs =
  check_stop t;
  (* Stage 1: resolve summaries from memo and disk; what is left needs
     computing. *)
  let todo =
    uniq memo_key (List.filter (fun j -> not (Hashtbl.mem t.results (memo_key j))) jobs)
  in
  let todo =
    List.filter
      (fun j ->
        match cached_summary t (summary_key_of_job t j) with
        | Some s ->
          t.stats.cache_hits <- t.stats.cache_hits + 1;
          t.log (Printf.sprintf "cache hit: summary %s" (describe_job j));
          Hashtbl.add t.results (memo_key j) s;
          false
        | None -> true)
      todo
  in
  (* Failures by compile task (a bench, or a variant's [binary_name]),
     by trace identity, and by job. *)
  let failed_compiles : (string, failure) Hashtbl.t = Hashtbl.create 4 in
  let failed_traces : (string * string * string, failure) Hashtbl.t = Hashtbl.create 4 in
  let failed_runs : (string * string * string * Wish_sim.Config.t, failure) Hashtbl.t =
    Hashtbl.create 4
  in
  let compile_failure j =
    match Hashtbl.find_opt failed_compiles j.job_bench with
    | Some _ as fl -> fl
    | None -> Hashtbl.find_opt failed_compiles (binary_name j)
  in
  (* A job replays its identity's trace; a job whose binary is not
     compiled has none yet. *)
  let trace_failure j =
    match Hashtbl.find_opt t.identities (j.job_bench, job_label j) with
    | None -> None
    | Some (id, _) -> Hashtbl.find_opt failed_traces (j.job_bench, id, j.job_input)
  in
  let compile_round ~describe f add xs =
    List.iter2
      (fun x -> function
        | Ok y -> add x y
        | Error fl -> Hashtbl.replace failed_compiles (describe x) fl)
      xs
      (supervised_map t ~stage:"compile" ~describe
         (fun x ->
           Faultpoint.cut fp_compile;
           f x)
         xs)
  in
  let compilable = List.filter (fun j -> compile_failure j = None) in
  (* A variant job's binary. No profile: the wish kinds read none. *)
  let compile_variant j =
    let b = bench t j.job_bench in
    let n = Option.get j.job_wish_n in
    t.log
      (Printf.sprintf "compiling %s/%s (wish-jump threshold N=%d)" j.job_bench
         (Policy.kind_name j.job_kind) n);
    fst
      (Compiler.compile_kind ~mem_words:b.mem_words ~wish_threshold_n:n ~name:j.job_bench b.ast
         j.job_kind)
  in
  (* The exact/sampled switch. Exact runs replay the memoized [trace].
     Sampled runs get none: [Runner.simulate_sampled] warms inside the
     compiled emulator and materializes chunks only for each window's
     span, so a sampled lab never generates, memoizes or stores a
     trace. *)
  let simulate ~config ?trace p =
    match t.sample with
    | None -> Wish_sim.Runner.simulate ~config ?trace p
    | Some s ->
      let spec = match s with Sample_spec sp -> Some sp | Sample_auto -> None in
      fst (Wish_sim.Runner.simulate_sampled ~config ?spec p)
  in
  (* Stages 2-5 for [todo]: compile missing binaries, serve jobs whose
     binary already has a summary, generate missing traces, then
     simulate one job per group. A job whose binary or trace already
     failed in this batch (before its lease was taken over) is not
     retried. Returns the jobs left to a concurrent run (cache only). *)
  let compute todo =
    let todo = List.filter (fun j -> trace_failure j = None) (compilable todo) in
    (* Stage 2: one compile per bench, then one per variant, each binary
       mapped to its identity. A failed compile poisons only the jobs
       that needed its binary. *)
    compile_round ~describe:Fun.id (compile t) (add_binaries t)
      (uniq Fun.id
         (List.filter_map
            (fun j -> if Hashtbl.mem t.binaries j.job_bench then None else Some j.job_bench)
            todo));
    let todo = compilable todo in
    compile_round ~describe:binary_name compile_variant (add_variant t)
      (uniq binary_name
         (List.filter
            (fun j ->
              j.job_wish_n <> None && not (Hashtbl.mem t.identities (j.job_bench, job_label j)))
            todo));
    let todo = compilable todo in
    (* Stage 3: a job whose binary an earlier batch simulated as another
       kind is served by that summary. *)
    let todo =
      List.filter
        (fun j ->
          let twins =
            List.filter
              (fun k -> Policy.kind_name k <> job_label j)
              (class_of t j.job_bench (fst (identity t j)))
          in
          match memo_twin t j twins with
          | Some (twin, s) ->
            serve t j ~twin s;
            false
          | None -> true)
        todo
    in
    let groups = group_by_binary t todo in
    let guards = ref [] in
    Fun.protect
      ~finally:(fun () ->
        Option.iter (fun c -> List.iter (fun key -> Cache.release_lease c ~key) !guards) t.cache)
      (fun () ->
        let groups, deferred =
          match t.cache with None -> (groups, []) | Some c -> claim_groups t c ~guards groups
        in
        let trace_key j = (j.job_bench, fst (identity t j), j.job_input) in
        let bound_program j =
          Wish_workloads.Bench.program_for (bench t j.job_bench) (snd (identity t j)) j.job_input
        in
        (* Stage 4 (exact labs only): one trace per (bench, identity,
           input), shared by every kind and configuration it serves. *)
        let tasks =
          if t.sample <> None then []
          else
            List.filter_map
              (fun { leader = j; _ } ->
                let ((name, id, input) as key) = trace_key j in
                if Hashtbl.mem t.traces key then None
                else begin
                  t.log (Printf.sprintf "tracing %s/%s input %s" name id input);
                  Some (key, (bench t name).approx_dyn_insts, bound_program j)
                end)
              (uniq (fun g -> trace_key g.leader) groups)
        in
        List.iter2
          (fun (key, _, _) -> function
            | Ok tr -> Hashtbl.replace t.traces key tr
            | Error fl -> Hashtbl.replace failed_traces key fl)
          tasks
          (supervised_map t ~stage:"trace"
             ~describe:(fun ((name, id, input), _, _) ->
               Printf.sprintf "%s/%s input %s" name id input)
             (fun (_, hint, p) ->
               Faultpoint.cut fp_trace;
               fst (Wish_emu.Trace.generate ~hint p))
             tasks);
        (* Stage 5: simulate each group's leader whose trace, if it needs
           one, did not fail; every member gets its summary, or its
           failure. *)
        let tasks =
          List.filter_map
            (fun g ->
              let j = g.leader in
              if trace_failure j <> None then None
              else begin
                let trace = Hashtbl.find_opt t.traces (trace_key j) in
                t.log (Printf.sprintf "simulating %s (%s)" (describe_job j) (run_note trace));
                Some (g, trace, bound_program j)
              end)
            groups
        in
        List.iter2
          (fun (g, _, _) -> function
            | Ok s ->
              let leader = job_label g.leader in
              List.iter
                (fun j ->
                  if job_label j = leader then begin
                    Hashtbl.replace t.results (memo_key j) s;
                    store_summary t (summary_key_of_job t j) s
                  end
                  else serve t j ~twin:leader s)
                g.members
            | Error fl ->
              List.iter (fun j -> Hashtbl.replace failed_runs (memo_key j) fl) g.members)
          tasks
          (supervised_map t ~stage:"simulate"
             ~describe:(fun (g, _, _) -> describe_job g.leader)
             (fun (g, trace, p) ->
               Faultpoint.cut fp_simulate;
               simulate ~config:g.leader.job_config ?trace p)
             tasks);
        deferred)
  in
  (* With a cache, every miss whose lease this process gets is computed
     in one pass; a miss whose lease another process holds builds nothing
     here and is polled for until its summary lands, or until its holder
     dies and the lease can be taken over. *)
  let rec settle c pending =
    if pending <> [] then begin
      check_stop t;
      let mine = ref [] and rest = ref [] in
      List.iter
        (fun j ->
          let key = summary_key_of_job t j in
          let leased = Cache.try_lease c ~key in
          match cached_summary t key with
          | Some s ->
            if leased then Cache.release_lease c ~key;
            hit_from_concurrent_run t j s
          | None when leased -> mine := j :: !mine
          | None -> rest := j :: !rest)
        pending;
      let mine = List.rev !mine in
      let deferred =
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun j -> Cache.release_lease c ~key:(summary_key_of_job t j)) mine)
          (fun () -> compute mine)
      in
      let rest = deferred @ List.rev !rest in
      (* Nothing settled this round: give the other runs time. *)
      if List.length deferred = List.length mine && rest <> [] then Unix.sleepf lease_poll;
      settle c rest
    end
  in
  (match t.cache with None -> ignore (compute todo) | Some c -> settle c todo);
  (* Assemble per-job outcomes, [jobs] order. *)
  List.map
    (fun j ->
      match Hashtbl.find_opt t.results (memo_key j) with
      | Some s -> Ok s
      | None -> (
        let failure =
          match Hashtbl.find_opt failed_runs (memo_key j) with
          | Some _ as fl -> fl
          | None -> (
            match compile_failure j with Some _ as fl -> fl | None -> trace_failure j)
        in
        match failure with Some fl -> Error fl | None -> assert false))
    jobs

(** [run_batch t jobs] — {!run_batch_results}, failures raised: the first
    failing job (in [jobs] order) aborts with [Job_failed]. *)
let run_batch t jobs =
  List.map (function Ok s -> s | Error fl -> raise (Job_failed fl)) (run_batch_results t jobs)

(* Under fail-fast, a failure raises inside the batch; under keep-going,
   failures are data, and the tables report them when they render. *)
let prewarm t jobs = ignore (run_batch_results t (with_baselines jobs))

(** [run t ~bench ~kind ?wish_threshold_n ?input ?config ()] — a memo
    lookup, or a one-job batch. *)
let run t ~bench ~kind ?wish_threshold_n ?input ?config () =
  let j = job ~bench ~kind ?wish_threshold_n ?input ?config () in
  match Hashtbl.find_opt t.results (memo_key j) with
  | Some s -> s
  | None -> List.hd (run_batch t [ j ])

(* --------------------------------------------------------------- *)
(* Static shape                                                     *)
(* --------------------------------------------------------------- *)

(** [shape t ~bench ~kind] — static branch counts of one binary, memoized
    and cached under [bench|kind|scaleN]; binaries are compiled only on a
    miss. *)
let shape t ~bench:name ~kind =
  let kind_n = Policy.kind_name kind in
  let ckey = Printf.sprintf "%s|%s|scale%d" name kind_n t.scale in
  match Hashtbl.find_opt t.shapes ckey with
  | Some s -> s
  | None ->
    let s =
      match cached_shape t ckey with
      | Some s ->
        t.stats.cache_hits <- t.stats.cache_hits + 1;
        t.log (Printf.sprintf "cache hit: shape %s/%s" name kind_n);
        s
      | None ->
        let code = Wish_isa.Program.code (Compiler.binary (binaries t name) kind) in
        let s =
          {
            cond_branches = Wish_isa.Code.static_conditional_branches code;
            wish_branches = Wish_isa.Code.static_wish_branches code;
            wish_loops = Wish_isa.Code.static_wish_loops code;
          }
        in
        Option.iter (fun c -> Cache.store c ~kind:"shape" ~key:ckey s) t.cache;
        s
    in
    Hashtbl.add t.shapes ckey s;
    s

(* --------------------------------------------------------------- *)
(* Derived metrics                                                  *)
(* --------------------------------------------------------------- *)

(** Execution time normalized to the normal-branch binary on the same input
    and the same machine — with the oracle idealization knobs stripped from
    the baseline (the paper normalizes PERFECT-CBP and perf-conf bars to
    the real normal-binary run). *)
let normalized t ~bench:name ~kind ?input ?(config = Wish_sim.Config.default) () =
  let s = run t ~bench:name ~kind ?input ~config () in
  let baseline = { config with Wish_sim.Config.knobs = Wish_sim.Config.no_knobs } in
  let n = run t ~bench:name ~kind:Policy.Normal ?input ~config:baseline () in
  float_of_int s.cycles /. float_of_int n.cycles

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
