(** The lab: compiles each workload's five binaries once, memoizes
    simulation results and static branch counts, and hands figure
    generators their data.

    Evaluation protocol (mirroring the paper's methodology):
    - binaries are compiled with profile feedback from each workload's
      designated training input (input B by convention);
    - unless a figure says otherwise (Figure 1 sweeps inputs), simulations
      run on input A — an input the compiler did not train on;
    - execution times are reported normalized to the normal-branch binary
      under the same machine configuration.

    One miss path: every summary the lab computes comes out of
    {!run_batch_results}. An artifact declares its cells, and {!render}
    runs them in one batch and reads nothing else; {!run}, a memo lookup
    or a one-job batch, serves tests and examples. On top of the memo
    tables:
    - an optional {!Wish_util.Pool} of worker domains: a batch fans its
      compile tasks, then one task per trace, across it and folds the
      results into the tables on the coordinating domain, so the outputs
      are bit-identical whatever the pool size. A trace lives only for
      its task, which generates it and simulates every run that reads
      it: at most one trace per worker is live, and none is stored (the
      emulator regenerates one about as fast as a cache would load it);
    - an optional persistent {!Cache}: summaries are looked up by run
      key before being recomputed and stored after (a summary stored
      from outside the lab under its job's kind-label key is read too),
      and each compile task stores one [binary] entry with its binaries'
      digests and static shapes, read before compiling. Processes that
      share a cache coordinate nothing: each computes what it misses,
      and the cache's atomic writes keep every entry whole.

    A run is named by one string, its run key ({!run_key_of_job}): the
    bench, input and scale, its binary's digest (code and entry), not
    the kind it was compiled as, and the digest of the machine that
    binary can observe ({!Wish_sim.Config.observed}), not the whole
    config. Binaries compiled to the same code, and configs that differ
    only in fields the binary never reads, share one memo slot, one
    trace per input and one cache entry, all under that key.
    A batch computes each job's key once, on the coordinating domain,
    and its pool tasks carry it.

    Fault tolerance (the lab's {!policy}): every compile, trace and
    simulation runs under supervision — one that raises (or whose worker
    domain dies; the {!Wish_util.Pool} requeues and respawns underneath
    us) fails its jobs only, is retried up to [retries] times, and is
    reported as a structured {!failure} if it never succeeds; the lab
    keeps that failure, so nothing computes the job again. Any fault
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

type shape = {
  cond_branches : int;
  wish_branches : int;
  wish_loops : int;
  guarded_non_branches : int;
}

(* What a compile task's [binary] entry stores per label. *)
type binary = { digest : string; shape : shape }

(* Tables keyed by config value. [Hashtbl.hash] reads a config's first
   ten ints only, so table configs that differ later would share a
   bucket. [compare] skips the sub-records two configs share physically,
   which [=] walks; a config holds no float, so the two agree. *)
module Configs = Hashtbl.Make (struct
  type t = Wish_sim.Config.t

  let equal a b = compare a b = 0
  let hash = Wish_sim.Config.hash
end)

type t = {
  scale : int;
  names : string list;
  policy : policy;
  binaries : (string * string, binary) Hashtbl.t; (* by (bench, label) *)
  programs : (string * string, Wish_isa.Program.t) Hashtbl.t; (* compiled, by (bench, label) *)
  scale_key : string; (* [|scaleN] *)
  key_tails : string Configs.t;
      (* each observed config met: its run keys' [|cfg<digest>] and sampling suffix *)
  results : (string, Wish_sim.Runner.summary) Hashtbl.t; (* by run key *)
  (* Final failures, kept for the lab's life so that no later batch or
     [run] computes them again: by compile task name, by trace (bench,
     digest, input) and by run key. *)
  failed_compiles : (string, failure) Hashtbl.t;
  failed_traces : (string * string * string, failure) Hashtbl.t;
  failed_runs : (string, failure) Hashtbl.t;
  mutable log : (string -> unit) option;
  pool : Pool.t option;
  cache : Cache.t option;
  stop : bool Atomic.t;
  stats : batch_stats; (* workers count under [lock] *)
  lock : Mutex.t; (* orders workers' log lines and counts *)
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
    scale_key = "|scale" ^ string_of_int scale;
    key_tails = Configs.create 64;
    results = Hashtbl.create 512;
    failed_compiles = Hashtbl.create 4;
    failed_traces = Hashtbl.create 4;
    failed_runs = Hashtbl.create 4;
    log = None;
    pool = (if jobs > 1 then Some (Pool.create ~size:jobs ()) else None);
    cache;
    stop = Atomic.make false;
    stats = { executed = 0; retried = 0; failed = 0; cache_hits = 0 };
    lock = Mutex.create ();
    sample;
  }

let jobs t = match t.pool with Some p -> Pool.size p | None -> 1
let shutdown t = match t.pool with Some p -> Pool.shutdown p | None -> ()

(* A copy: callers cannot perturb the accumulators. *)
let batch_stats t = { t.stats with executed = t.stats.executed }

let request_stop t = Atomic.set t.stop true
let check_stop t = if Atomic.get t.stop then raise Interrupted

let set_logger t f = t.log <- Some (fun s -> Mutex.protect t.lock (fun () -> f s))

(* A log line is formatted only when a logger is set. *)
let log t line = Option.iter (fun f -> f (line ())) t.log

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

(** The baseline run a normalized cell divides by: the normal binary on
    the same input and machine, with the oracle idealization knobs
    stripped. *)
let baseline_of j =
  {
    j with
    job_kind = Policy.Normal;
    job_wish_n = None;
    job_config = { j.job_config with Wish_sim.Config.knobs = Wish_sim.Config.no_knobs };
  }

let with_baselines js = List.concat_map (fun j -> [ j; baseline_of j ]) js

type cell = Plain of job | Normalized of job

(* The jobs [cells] read, a normalized cell's baseline after it unless
   the cell before read it too (a table's bars on one bench share it). *)
let cell_jobs cells =
  let last = ref None in
  List.concat_map
    (function
      | Plain j -> [ j ]
      | Normalized j -> (
        let b = baseline_of j in
        match !last with
        | Some l when compare l b = 0 -> [ j ]
        | _ ->
          last := Some b;
          [ j; b ]))
    cells

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
      log t (fun () ->
          Printf.sprintf "compiling %s (5 binaries, profile input %s)" j.job_bench b.profile_input);
      let bins =
        Compiler.compile_all ~mem_words:b.mem_words ~name:j.job_bench
          ~profile_data:(Wish_workloads.Bench.profile_data b) b.ast
      in
      List.map (Compiler.binary bins) Compiler.all_kinds
    | Some n ->
      log t (fun () ->
          Printf.sprintf "compiling %s/%s (wish-jump threshold N=%d)" j.job_bench
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
              guarded_non_branches = Wish_isa.Code.static_guarded_non_branches code;
            };
        } ))
    programs

(* A job of a batch with its run key ({!run_key_of_job}), computed once
   on the coordinating domain. *)
type run = { key : string; job : job }

(* One pool task a round: a trace and the runs that read it, or in a
   sampled lab, which has no trace, one run. The trace dies with the
   task unless a run that read it awaits a retry. *)
type group = {
  lead : job; (* names the trace in logs and failures *)
  program : Wish_isa.Program.t;
  trace : Wish_emu.Trace.t option;
  tries : int; (* trace attempts made *)
  sims : (run * int) list; (* runs left, with the attempts made on each *)
}

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

(* What one attempt at a supervised task came to: [Retry] is a failure
   with retries left, [Final] one without, [Skipped] no attempt (the
   batch is stopping). *)
type 'a verdict = Done of 'a | Retry | Final of failure | Skipped

(* One attempt at a task, on a worker, after [tries] earlier ones; the
   first logs [line]. A raise becomes the verdict, so one job's crash
   cannot abandon the batch. The first final failure under fail-fast goes
   in [halt], which skips the round's attempts not yet begun. *)
let attempt t halt ~stage ~what ~tries ?line f =
  if tries = 0 then Option.iter (log t) line;
  if Atomic.get t.stop || Option.is_some (Atomic.get halt) then Skipped
  else begin
    let { retries; keep_going } = t.policy in
    let v =
      match f () with
      | y -> Done y
      | exception e ->
        let reason =
          match e with
          | Faultpoint.Injected { site; hit } -> Printf.sprintf "injected fault at %s (hit %d)" site hit
          | e -> Printexc.to_string e
        in
        log t (fun () ->
            Printf.sprintf "%s %s: attempt %d/%d failed (%s)" stage what (tries + 1) (1 + retries)
              reason);
        if tries < retries then Retry
        else
          Final
            { failed_stage = stage; failed_what = what; failed_attempts = tries + 1; failed_reason = reason }
    in
    let st = t.stats in
    Mutex.protect t.lock (fun () ->
        st.executed <- st.executed + 1;
        match v with
        | Retry -> st.retried <- st.retried + 1
        | Final fl ->
          st.failed <- st.failed + 1;
          if not keep_going then ignore (Atomic.compare_and_set halt None (Some fl))
        | Done _ | Skipped -> ());
    v
  end

(* Supervise [items] on the pool in rounds: [step halt item] runs on a
   worker and returns what [item] has left to retry in the next round
   (deterministic work: waiting buys nothing) and a commit that folds its
   outcome into the tables on this domain. A final failure under
   fail-fast raises [Job_failed] after its round; a stop, [Interrupted]. *)
let rec rounds t step items =
  check_stop t;
  if items <> [] then begin
    let halt = Atomic.make None in
    let outs = pmap t (step halt) items in
    List.iter (fun (_, commit) -> commit ()) outs;
    Option.iter (fun fl -> raise (Job_failed fl)) (Atomic.get halt);
    rounds t step (List.filter_map fst outs)
  end

(* Compile [tasks] (one job naming each) under the lab's policy. A
   success memoizes its programs and binaries by label and, with a
   cache, stores the task's [binary] entry; a failure is recorded under
   the task's name. *)
let compile_round t tasks =
  rounds t
    (fun halt (j, tries) ->
      let v =
        attempt t halt ~stage:"compile" ~what:(task_name j) ~tries (fun () ->
            Faultpoint.cut fp_compile;
            compile t j)
      in
      ( (if v = Retry then Some (j, tries + 1) else None),
        fun () ->
          (match v with
          | Done compiled ->
            List.iter2
              (fun label (p, b) ->
                Hashtbl.replace t.programs (j.job_bench, label) p;
                Hashtbl.replace t.binaries (j.job_bench, label) b)
              (task_labels j) compiled;
            Option.iter
              (fun c -> Cache.store c ~kind:"binary" ~key:(binary_key t j) (List.map snd compiled))
              t.cache
          | Final fl -> Hashtbl.replace t.failed_compiles (task_name j) fl
          | Retry | Skipped -> ()) ))
    (List.map (fun j -> (j, 0)) tasks)

let compile_failure t j = Hashtbl.find_opt t.failed_compiles (task_name j)

(* Every job's binary: memoized, else read from its task's [binary]
   entry, else compiled, once per task. A task whose compile failed is
   not tried again. *)
let resolve t jobs =
  let read j =
    match
      Option.bind t.cache (fun c ->
          (Cache.find c ~kind:"binary" ~key:(binary_key t j) : binary list option))
    with
    | None -> false
    | Some bs ->
      t.stats.cache_hits <- t.stats.cache_hits + 1;
      log t (fun () -> "cache hit: binary " ^ task_name j);
      List.iter2 (fun label b -> Hashtbl.replace t.binaries (j.job_bench, label) b) (task_labels j) bs;
      true
  in
  jobs
  |> List.filter (fun j -> (not (Hashtbl.mem t.binaries (label_key j))) && compile_failure t j = None)
  |> uniq task_name
  |> List.filter (fun j -> not (read j))
  |> compile_round t

(* [stage] run for [j] alone, unless its compile already failed; that
   failure raised. *)
let for_one t stage j =
  if compile_failure t j = None then stage t [ j ];
  Option.iter (fun fl -> raise (Job_failed fl)) (compile_failure t j)

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

(* The machine [b] can observe under [config]: the fields it never
   reads reset, so configs that differ only there name one run. *)
let observed b config =
  Wish_sim.Config.observed ~wish:(b.shape.wish_branches > 0)
    ~predicated:(b.shape.guarded_non_branches > 0) config

(* [j]'s run key, given its binary [b]: the lab's one name for the run
   and the persistent-cache key of its summary,
   [bench|input|scaleN|bin<digest>|cfg<digest>] plus the sampling
   suffix. The tail from [|cfg] on is made once per distinct observed
   config; [observed] and the table machines allocate fresh configs, so
   it is looked up by value. *)
let run_key t j b =
  let config = observed b j.job_config in
  let tail =
    match Configs.find_opt t.key_tails config with
    | Some tail -> tail
    | None ->
      let tail = with_sampling t ("|cfg" ^ Cache.digest_of config) in
      Configs.add t.key_tails config tail;
      tail
  in
  String.concat "" [ j.job_bench; "|"; j.job_input; t.scale_key; "|bin"; b.digest; tail ]

let run_key_of_job t j = run_key t j (binary t j)

(* A job's key by label, for summaries stored from outside the lab; it
   needs no binary. *)
let summary_key_of_job t j =
  with_sampling t
    (Printf.sprintf "%s|%s|%s|scale%d|cfg%s" j.job_bench (job_label j) j.job_input t.scale
       (Cache.digest_of j.job_config))

(* [j]'s run key, once its binary is known. *)
let key_of t j = Option.map (run_key t j) (Hashtbl.find_opt t.binaries (label_key j))

let trace_key t j = (j.job_bench, (binary t j).digest, j.job_input)

(* The final failure of [j]'s compile, trace or run (key [key]), if the
   lab has one. *)
let failure t j key =
  match compile_failure t j with
  | Some _ as fl -> fl
  | None -> (
    match Hashtbl.find_opt t.failed_runs key with
    | Some _ as fl -> fl
    | None -> Hashtbl.find_opt t.failed_traces (trace_key t j))

(* Whether the cache holds [r]'s summary, which it then memoizes: under
   its run key, else under its label key, where only a writer outside
   the lab stores. *)
let stored t r =
  let read c =
    let find key = Cache.find c ~kind:"summary" ~key in
    match find r.key with None -> find (summary_key_of_job t r.job) | hit -> hit
  in
  match Option.bind t.cache read with
  | Some s ->
    t.stats.cache_hits <- t.stats.cache_hits + 1;
    log t (fun () -> "cache hit: summary " ^ describe_job r.job);
    Hashtbl.replace t.results r.key s;
    true
  | None -> false

(* Stage 3's runs: one task per group, the longest first so the batch
   ends with every worker busy. A failed trace fails or retries exactly
   its group's runs; a failed run is retried with the trace kept. A task
   reads no lab table: its runs carry their keys. *)
let run_groups t groups =
  let hint g = (bench t g.lead.job_bench).approx_dyn_insts in
  (* Exact runs replay their group's trace; sampled runs warm inside
     the compiled emulator and have none. *)
  let simulate ~config ?trace p =
    match t.sample with
    | None -> Wish_sim.Runner.simulate ~config ?trace p
    | Some s ->
      let spec = match s with Sample_spec sp -> Some sp | Sample_auto -> None in
      fst (Wish_sim.Runner.simulate_sampled ~config ?spec p)
  in
  rounds t
    (fun halt g ->
      let what = describe_job g.lead in
      (* This round's trace attempt, if it makes one. *)
      let traced =
        if t.sample <> None || g.trace <> None then Done g.trace
        else
          attempt t halt ~stage:"trace" ~what ~tries:g.tries
            ~line:(fun () -> "tracing " ^ what)
            (fun () ->
              Faultpoint.cut fp_trace;
              Some (fst (Wish_emu.Trace.generate ~hint:(hint g) g.program)))
      in
      let sims =
        match traced with
        | Done trace ->
          let note =
            match trace with
            | Some tr -> Printf.sprintf "%d dynamic insts" (Wish_emu.Trace.length tr)
            | None -> "sampled, trace-free"
          in
          List.map
            (fun (r, tries) ->
              ( r,
                tries,
                attempt t halt ~stage:"simulate" ~what:(describe_job r.job) ~tries
                  ~line:(fun () -> Printf.sprintf "simulating %s (%s)" (describe_job r.job) note)
                  (fun () ->
                    Faultpoint.cut fp_simulate;
                    let s = simulate ~config:r.job.job_config ?trace g.program in
                    Option.iter (fun c -> Cache.store c ~kind:"summary" ~key:r.key s) t.cache;
                    s) ))
            g.sims
        | Retry | Final _ | Skipped -> []
      in
      let retry = List.filter_map (fun (r, n, v) -> if v = Retry then Some (r, n + 1) else None) sims in
      let trace_failure = match traced with Final fl -> Some fl | _ -> None in
      ( (match traced with
        | Retry -> Some { g with tries = g.tries + 1 }
        | Done trace when retry <> [] -> Some { g with trace; sims = retry }
        | Done _ | Final _ | Skipped -> None),
        (* The commit runs when the round is over, so it holds no trace:
           that would keep every trace of the round alive until then. *)
        fun () ->
          Option.iter (Hashtbl.replace t.failed_traces (trace_key t g.lead)) trace_failure;
          List.iter
            (fun (r, _, v) ->
              match v with
              | Done s -> Hashtbl.replace t.results r.key s
              | Final fl -> Hashtbl.replace t.failed_runs r.key fl
              | Retry | Skipped -> ())
            sims ))
    (List.stable_sort
       (fun a b -> compare (hint b * List.length b.sims) (hint a * List.length a.sims))
       groups)

(* Runs the batch ({!run_batch_results}); returns each job with its run
   key, [None] when its binary's compile failed. *)
let batch t jobs =
  check_stop t;
  (* Stage 1: every job's binary. A failed compile fails exactly the
     jobs of its task. *)
  resolve t jobs;
  (* Stage 2: each job's run key, once; a key that the memo, the lab's
     failures and then the cache all miss needs computing, once. *)
  let keyed = List.map (fun j -> (j, key_of t j)) jobs in
  let todo =
    List.filter_map
      (fun (job, key) ->
        match key with
        | Some key when not (Hashtbl.mem t.results key) -> Some { key; job }
        | _ -> None)
      keyed
    |> uniq (fun r -> r.key)
    |> List.filter (fun r -> failure t r.job r.key = None && not (stored t r))
  in
  (* Stage 3: compile the binaries known only from their entries, then
     run one group per trace (per run in a sampled lab) for the jobs
     whose compile did not fail. *)
  compile_round t
    (uniq task_name
       (List.filter_map
          (fun r -> if Hashtbl.mem t.programs (label_key r.job) then None else Some r.job)
          todo));
  let todo = List.filter (fun r -> compile_failure t r.job = None) todo in
  let group_key r = (trace_key t r.job, if t.sample = None then None else Some r.key) in
  run_groups t
    (List.map
       (fun first ->
         let lead = first.job and k = group_key first in
         let b = bench t lead.job_bench in
         let program = Wish_workloads.Bench.program_for b (compiled t lead) lead.job_input in
         let sims = List.filter (fun r -> group_key r = k) todo in
         { lead; program; trace = None; tries = 0; sims = List.map (fun r -> (r, 0)) sims })
       (uniq group_key todo));
  keyed

(* What the lab has for [j] (run key [key]): its summary, or its final
   failure. *)
let outcome t (j, key) =
  match key with
  | None -> Error (Option.get (compile_failure t j))
  | Some key -> (
    match Hashtbl.find_opt t.results key with
    | Some s -> Ok s
    | None -> Error (Option.get (failure t j key)))

let run_batch_results t jobs = List.map (outcome t) (batch t jobs)

(** [run_batch t jobs] — {!run_batch_results}, failures raised: the first
    failing job (in [jobs] order) aborts with [Job_failed]. *)
let run_batch t jobs =
  List.map (function Ok s -> s | Error fl -> raise (Job_failed fl)) (run_batch_results t jobs)

(* A render's lookup holds its artifact's jobs only, and each must be
   read: a table reads exactly the cells it declares. *)
type slot = { outcome : (Wish_sim.Runner.summary, failure) result; mutable read : bool }

let lookup ~artifact jobs outcomes f =
  let slots = Hashtbl.create (List.length jobs) in
  List.iteri (fun i j -> Hashtbl.replace slots j { outcome = outcomes.(i); read = false }) jobs;
  let misread j why =
    invalid_arg (Printf.sprintf "Lab.render: %s %s %s" artifact why (describe_job j))
  in
  let y =
    f (fun j ->
        match Hashtbl.find_opt slots j with
        | None -> misread j "reads a job it does not declare:"
        | Some c -> (
          c.read <- true;
          match c.outcome with Ok s -> s | Error fl -> raise (Job_failed fl)))
  in
  Hashtbl.iter (fun j c -> if not c.read then misread j "declares a job it never reads:") slots;
  y

(* Under fail-fast, a failure raises inside the batch; under keep-going,
   failures are data, and each table reports its own when it renders.
   The batch's results are the artifacts' jobs in order, so each
   artifact's are one contiguous slice. *)
let renders t artifacts =
  let jobs = List.map (fun (_, cells, _) -> cell_jobs cells) artifacts in
  let outcomes = Array.of_list (run_batch_results t (List.concat jobs)) in
  let next = ref 0 in
  List.map2
    (fun (artifact, _, f) js ->
      let mine = Array.sub outcomes !next (List.length js) in
      next := !next + Array.length mine;
      fun () -> lookup ~artifact js mine f)
    artifacts jobs

let render t ~artifact cells f = List.hd (renders t [ (artifact, cells, f) ]) ()

(** [run t ~bench ~kind ?wish_threshold_n ?input ?config ()] — a memo
    lookup, or a one-job batch. *)
let run t ~bench ~kind ?wish_threshold_n ?input ?config () =
  let j = job ~bench ~kind ?wish_threshold_n ?input ?config () in
  match Option.bind (key_of t j) (Hashtbl.find_opt t.results) with
  | Some s -> s
  | None -> List.hd (run_batch t [ j ])

(** [shape t ~bench ~kind] — static branch counts of one binary, read
    from its bench's [binary] entry; the bench is compiled only on a
    miss. *)
let shape t ~bench ~kind = (binary t (job ~bench ~kind ())).shape

let mean = function
  | [] -> invalid_arg "Lab.mean: empty list"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
