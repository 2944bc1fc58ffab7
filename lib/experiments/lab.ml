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
    - an optional persistent {!Cache}: summaries are looked up by (bench,
      input, scale, binary digest, config[, sampling]) before being
      recomputed and stored after (a summary stored from outside the
      lab under its job's kind-label key is read too), and each compile
      task stores one [binary] entry with its binaries' digests and
      static shapes, read before compiling. Repeated runs are
      incremental across processes, and concurrent processes on one
      cache coalesce duplicate jobs through its leases. Traces are
      never stored: the emulator regenerates one about as fast as the
      cache loads it, so a trace lives only in the in-memory memo,
      shared by every run of its binary and input. A sampled lab has
      no trace stage at all: its simulations warm trace-free.

    A run is named by its binary's digest (code and entry), not by the
    kind it was compiled as: binaries compiled to the same code share one
    memo slot, one trace per input, one cache key and one lease.

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
}

(** How the lab simulates: [Sample_auto] scales a sampling spec to each
    run's dynamic length; [Sample_spec] uses one fixed spec everywhere. *)
type sampling = Sample_auto | Sample_spec of Wish_sim.Sampler.spec

let sampling_key = function
  | Sample_auto -> "auto"
  | Sample_spec s -> Wish_sim.Sampler.to_string s

type shape = { cond_branches : int; wish_branches : int; wish_loops : int }

(* What a compile task's [binary] entry stores per label. *)
type binary = { digest : string; shape : shape }

type t = {
  scale : int;
  names : string list;
  policy : policy;
  binaries : (string * string, binary) Hashtbl.t; (* by (bench, label) *)
  programs : (string * string, Wish_isa.Program.t) Hashtbl.t; (* compiled, by (bench, label) *)
  traces : (string * string * string, Wish_emu.Trace.t) Hashtbl.t; (* by (bench, digest, input) *)
  results : (string * string * string * Wish_sim.Config.t, Wish_sim.Runner.summary) Hashtbl.t;
      (* by (bench, digest, input, config) *)
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
    binaries = Hashtbl.create 64;
    programs = Hashtbl.create 64;
    traces = Hashtbl.create 64;
    results = Hashtbl.create 256;
    log = ignore;
    pool = (if jobs > 1 then Some (Pool.create ~size:jobs ()) else None);
    cache;
    stop = Atomic.make false;
    stats = { executed = 0; retried = 0; failed = 0; cache_hits = 0 };
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
(* Jobs and their compile tasks                                     *)
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
let label_key j = (j.job_bench, job_label j)

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

(* A job's compile task: its bench's five binaries, or its variant alone.
   [task_name] names the task in logs and failures, [task_labels] lists
   its binaries in the order its [binary] entry stores them, and
   [binary_key] is that entry's key. *)
let task_name j = if j.job_wish_n = None then j.job_bench else binary_name j

let task_labels j =
  if j.job_wish_n = None then List.map Policy.kind_name Compiler.all_kinds else [ job_label j ]

let binary_key t j =
  if j.job_wish_n = None then Printf.sprintf "%s|scale%d" j.job_bench t.scale
  else Printf.sprintf "%s|%s|scale%d" j.job_bench (job_label j) t.scale

let binary_digest (p : Wish_isa.Program.t) = Cache.digest_of (p.entry, p.code)

(* [j]'s compile task, run on a worker: each of its programs, with its
   digest and static shape. A variant is compiled without a profile: the
   wish kinds read none. *)
let compile t j =
  let b = bench t j.job_bench in
  let programs =
    match j.job_wish_n with
    | None ->
      t.log (Printf.sprintf "compiling %s (5 binaries, profile input %s)" j.job_bench b.profile_input);
      let bins =
        Compiler.compile_all ~mem_words:b.mem_words ~name:j.job_bench
          ~profile_data:(Wish_workloads.Bench.profile_data b) b.ast
      in
      List.map (Compiler.binary bins) Compiler.all_kinds
    | Some n ->
      t.log
        (Printf.sprintf "compiling %s/%s (wish-jump threshold N=%d)" j.job_bench
           (Policy.kind_name j.job_kind) n);
      [
        fst
          (Compiler.compile_kind ~mem_words:b.mem_words ~wish_threshold_n:n ~name:j.job_bench b.ast
             j.job_kind);
      ]
  in
  List.map
    (fun (p : Wish_isa.Program.t) ->
      let code = p.code in
      ( p,
        {
          digest = binary_digest p;
          shape =
            {
              cond_branches = Wish_isa.Code.static_conditional_branches code;
              wish_branches = Wish_isa.Code.static_wish_branches code;
              wish_loops = Wish_isa.Code.static_wish_loops code;
            };
        } ))
    programs

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

(* Compile [tasks] (one job naming each) under the lab's policy. A
   success memoizes its programs and binaries by label and, with a
   cache, stores the task's [binary] entry; a failure is recorded in
   [failed] under the task's name. *)
let compile_round t failed tasks =
  List.iter2
    (fun j -> function
      | Ok compiled ->
        List.iter2
          (fun label (p, b) ->
            Hashtbl.replace t.programs (j.job_bench, label) p;
            Hashtbl.replace t.binaries (j.job_bench, label) b)
          (task_labels j) compiled;
        Option.iter
          (fun c -> Cache.store c ~kind:"binary" ~key:(binary_key t j) (List.map snd compiled))
          t.cache
      | Error fl -> Hashtbl.replace failed (task_name j) fl)
    tasks
    (supervised_map t ~stage:"compile" ~describe:task_name
       (fun j ->
         Faultpoint.cut fp_compile;
         compile t j)
       tasks)

(* Every job's binary: memoized, else read from its task's [binary]
   entry, else compiled, once per task. *)
let resolve t failed jobs =
  let read j =
    match
      Option.bind t.cache (fun c ->
          (Cache.find c ~kind:"binary" ~key:(binary_key t j) : binary list option))
    with
    | None -> false
    | Some bs ->
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      t.log (Printf.sprintf "cache hit: binary %s" (task_name j));
      List.iter2 (fun label b -> Hashtbl.replace t.binaries (j.job_bench, label) b) (task_labels j) bs;
      true
  in
  compile_round t failed
    (List.filter
       (fun j -> not (read j))
       (uniq task_name (List.filter (fun j -> not (Hashtbl.mem t.binaries (label_key j))) jobs)))

(* [stage] run for [j] alone, its compile failure raised. *)
let for_one t stage j =
  let failed = Hashtbl.create 1 in
  stage t failed [ j ];
  Option.iter (fun fl -> raise (Job_failed fl)) (Hashtbl.find_opt failed (task_name j))

let binary t j =
  match Hashtbl.find_opt t.binaries (label_key j) with
  | Some b -> b
  | None ->
    for_one t resolve j;
    Hashtbl.find t.binaries (label_key j)

let compiled t j =
  if not (Hashtbl.mem t.programs (label_key j)) then for_one t compile_round j;
  Hashtbl.find t.programs (label_key j)

let program t ~bench:name ~kind ~input =
  Wish_workloads.Bench.program_for (bench t name) (compiled t (job ~bench:name ~kind ())) input

(* Sampled results carry a [|sampleW:D] or [|sampleauto] suffix, so a
   cache survives turning sampling on and off. *)
let with_sampling t key =
  match t.sample with None -> key | Some s -> key ^ "|sample" ^ sampling_key s

(* The persistent-cache identity of a run's summary, also the key its
   lease is taken on. *)
let run_key_of_job t j =
  with_sampling t
    (Printf.sprintf "%s|%s|scale%d|bin%s|cfg%s" j.job_bench j.job_input t.scale (binary t j).digest
       (Cache.digest_of j.job_config))

(* A job's key by label, for summaries stored from outside the lab; it
   needs no binary. *)
let summary_key_of_job t j =
  with_sampling t
    (Printf.sprintf "%s|%s|%s|scale%d|cfg%s" j.job_bench (job_label j) j.job_input t.scale
       (Cache.digest_of j.job_config))

let memo_key t j = (j.job_bench, (binary t j).digest, j.job_input, j.job_config)
let trace_key t j = (j.job_bench, (binary t j).digest, j.job_input)

(* A summary this process already has for [j], if its binary is known. *)
let memoized t j =
  match Hashtbl.find_opt t.binaries (label_key j) with
  | Some b -> Hashtbl.find_opt t.results (j.job_bench, b.digest, j.job_input, j.job_config)
  | None -> None

let cached_summary t key =
  match t.cache with None -> None | Some c -> Cache.find c ~kind:"summary" ~key

(* [j]'s summary in the cache: under its run key, else under its label
   key, where only a writer outside the lab stores. *)
let stored_summary t j =
  match t.cache with
  | None -> None
  | Some c -> (
    let find key = Cache.find c ~kind:"summary" ~key in
    match find (run_key_of_job t j) with None -> find (summary_key_of_job t j) | hit -> hit)

let cache_hit t j s ~note =
  t.stats.cache_hits <- t.stats.cache_hits + 1;
  t.log (Printf.sprintf "cache hit: summary %s%s" (describe_job j) note);
  Hashtbl.add t.results (memo_key t j) s

(* Seconds between looks at a summary another process holds the lease
   on. *)
let lease_poll = 0.05

(** [run_batch_results t jobs] — the one place the lab computes a
    summary: resolves every job's binary (memo, [binary] entry, compile),
    then its summary (memo table, then disk cache, then trace/simulate
    fanned over the worker pool, each stage under the lab's policy) and
    returns per-job outcomes in [jobs] order. Jobs with one key share one
    simulation. All memo and cache mutation happens on the calling
    domain. *)
let run_batch_results t jobs =
  check_stop t;
  (* Failures by compile task, by trace and by run. *)
  let failed_compiles : (string, failure) Hashtbl.t = Hashtbl.create 4 in
  let failed_traces = Hashtbl.create 4 and failed_runs = Hashtbl.create 4 in
  let compile_failure j = Hashtbl.find_opt failed_compiles (task_name j) in
  let trace_failure j = Hashtbl.find_opt failed_traces (trace_key t j) in
  (* Stage 1: every job's binary. A failed compile fails exactly the
     jobs of its task. *)
  resolve t failed_compiles jobs;
  (* Stage 2: the memo, then the cache, on the digest key; what is left
     needs computing. *)
  let todo =
    List.filter
      (fun j -> Hashtbl.mem t.binaries (label_key j) && memoized t j = None)
      jobs
    |> uniq (memo_key t)
    |> List.filter (fun j ->
           match stored_summary t j with
           | Some s ->
             cache_hit t j s ~note:"";
             false
           | None -> true)
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
  let bound_program j =
    Wish_workloads.Bench.program_for (bench t j.job_bench) (compiled t j) j.job_input
  in
  (* Stage 3 for [todo], one job per key: compile the binaries known
     only from their entries, generate missing traces, then simulate and
     store each key once. A job whose binary or trace already failed in
     this batch (before its lease was taken over) is not retried. *)
  let compute todo =
    let live = List.filter (fun j -> compile_failure j = None && trace_failure j = None) in
    let todo = live todo in
    compile_round t failed_compiles
      (uniq task_name (List.filter (fun j -> not (Hashtbl.mem t.programs (label_key j))) todo));
    let todo = live todo in
    (* Exact labs only: one trace per (bench, digest, input), shared by
       every configuration it serves. *)
    let tasks =
      if t.sample <> None then []
      else
        List.filter_map
          (fun j ->
            if Hashtbl.mem t.traces (trace_key t j) then None
            else begin
              t.log ("tracing " ^ describe_job j);
              Some (j, (bench t j.job_bench).approx_dyn_insts, bound_program j)
            end)
          (uniq (trace_key t) todo)
    in
    List.iter2
      (fun (j, _, _) -> function
        | Ok tr -> Hashtbl.replace t.traces (trace_key t j) tr
        | Error fl -> Hashtbl.replace failed_traces (trace_key t j) fl)
      tasks
      (supervised_map t ~stage:"trace"
         ~describe:(fun (j, _, _) -> describe_job j)
         (fun (_, hint, p) ->
           Faultpoint.cut fp_trace;
           fst (Wish_emu.Trace.generate ~hint p))
         tasks);
    let tasks =
      List.filter_map
        (fun j ->
          if trace_failure j <> None then None
          else begin
            let trace = Hashtbl.find_opt t.traces (trace_key t j) in
            t.log (Printf.sprintf "simulating %s (%s)" (describe_job j) (run_note trace));
            Some (j, trace, bound_program j)
          end)
        todo
    in
    List.iter2
      (fun (j, _, _) -> function
        | Ok s ->
          Hashtbl.replace t.results (memo_key t j) s;
          Option.iter (fun c -> Cache.store c ~kind:"summary" ~key:(run_key_of_job t j) s) t.cache
        | Error fl -> Hashtbl.replace failed_runs (memo_key t j) fl)
      tasks
      (supervised_map t ~stage:"simulate"
         ~describe:(fun (j, _, _) -> describe_job j)
         (fun (j, trace, p) ->
           Faultpoint.cut fp_simulate;
           simulate ~config:j.job_config ?trace p)
         tasks)
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
          let key = run_key_of_job t j in
          let leased = Cache.try_lease c ~key in
          match cached_summary t key with
          | Some s ->
            if leased then Cache.release_lease c ~key;
            cache_hit t j s ~note:" (from a concurrent run)"
          | None when leased -> mine := j :: !mine
          | None -> rest := j :: !rest)
        pending;
      let mine = List.rev !mine in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun j -> Cache.release_lease c ~key:(run_key_of_job t j)) mine)
        (fun () -> compute mine);
      (* Nothing settled this round: give the other runs time. *)
      if mine = [] && !rest <> [] then Unix.sleepf lease_poll;
      settle c (List.rev !rest)
    end
  in
  (match t.cache with None -> compute todo | Some c -> settle c todo);
  (* Assemble per-job outcomes, [jobs] order. *)
  List.map
    (fun j ->
      match memoized t j with
      | Some s -> Ok s
      | None -> (
        match compile_failure j with
        | Some fl -> Error fl
        | None -> (
          match Hashtbl.find_opt failed_runs (memo_key t j) with
          | Some fl -> Error fl
          | None -> Error (Option.get (trace_failure j)))))
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
  match memoized t j with Some s -> s | None -> List.hd (run_batch t [ j ])

(** [shape t ~bench ~kind] — static branch counts of one binary, read
    from its bench's [binary] entry; the bench is compiled only on a
    miss. *)
let shape t ~bench ~kind = (binary t (job ~bench ~kind ())).shape

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

let mean = function
  | [] -> invalid_arg "Lab.mean: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
