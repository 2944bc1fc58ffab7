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

    One miss path: {!run} is a memo lookup or a one-job batch, so every
    summary the lab computes comes out of {!run_batch_results}, ablation
    A4's variant binaries included. On top of the memo tables:
    - an optional {!Wish_util.Pool} of worker domains: a batch fans its
      compile tasks, then one task per trace, across it and folds the
      results into the tables on the coordinating domain, so the outputs
      are bit-identical whatever the pool size. A trace lives only for
      its task, which generates it and simulates every run that reads
      it: at most one trace per worker is live, and none is stored (the
      emulator regenerates one about as fast as a cache would load it);
    - an optional persistent {!Cache}: summaries are looked up by (bench,
      input, scale, binary digest, config[, sampling]) before being
      recomputed and stored after (a summary stored from outside the
      lab under its job's kind-label key is read too), and each compile
      task stores one [binary] entry with its binaries' digests and
      static shapes, read before compiling. Concurrent processes on one
      cache coalesce duplicate compiles and runs through its leases.

    A run is named by its binary's digest (code and entry), not by the
    kind it was compiled as: binaries compiled to the same code share one
    memo slot, one trace per input, one cache key and one lease.

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

type shape = { cond_branches : int; wish_branches : int; wish_loops : int }

(* What a compile task's [binary] entry stores per label. *)
type binary = { digest : string; shape : shape }

type t = {
  scale : int;
  names : string list;
  policy : policy;
  binaries : (string * string, binary) Hashtbl.t; (* by (bench, label) *)
  programs : (string * string, Wish_isa.Program.t) Hashtbl.t; (* compiled, by (bench, label) *)
  results : (string * string * string * Wish_sim.Config.t, Wish_sim.Runner.summary) Hashtbl.t;
      (* by (bench, digest, input, config) *)
  (* Final failures, kept for the lab's life so that no later batch or
     [run] computes them again: by compile task name, by trace (bench,
     digest, input) and by run, keyed as [results]. *)
  failed_compiles : (string, failure) Hashtbl.t;
  failed_traces : (string * string * string, failure) Hashtbl.t;
  failed_runs : (string * string * string * Wish_sim.Config.t, failure) Hashtbl.t;
  mutable log : string -> unit;
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
    results = Hashtbl.create 256;
    failed_compiles = Hashtbl.create 4;
    failed_traces = Hashtbl.create 4;
    failed_runs = Hashtbl.create 4;
    log = ignore;
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

let set_logger t f = t.log <- (fun s -> Mutex.protect t.lock (fun () -> f s))

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

(* One pool task a round: a trace and the runs that read it, or in a
   sampled lab, which has no trace, one run. The trace dies with the
   task unless a run that read it awaits a retry. *)
type group = {
  lead : job; (* names the trace in logs and failures *)
  program : Wish_isa.Program.t;
  trace : Wish_emu.Trace.t option;
  tries : int; (* trace attempts made *)
  sims : (job * int) list; (* runs left, with the attempts made on each *)
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
  if tries = 0 then Option.iter t.log line;
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
        t.log
          (Printf.sprintf "%s %s: attempt %d/%d failed (%s)" stage what (tries + 1) (1 + retries)
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

(* [pending] under [c]'s leases: every item whose lease (on [key item])
   this process gets, and whose entry [found] does not find once it has
   it, is computed, in one [compute] call; an item another live process
   holds the lease on is polled for with [found] every 50 ms until its
   entry lands, or until its holder dies and the lease is taken over. *)
let rec settle t c ~key ~found compute pending =
  if pending <> [] then begin
    check_stop t;
    let mine, rest = List.partition (fun x -> Cache.try_lease c ~key:(key x)) pending in
    let mine =
      List.filter (fun x -> not (found x) || (Cache.release_lease c ~key:(key x); false)) mine
    in
    let rest = List.filter (fun x -> not (found x)) rest in
    Fun.protect
      ~finally:(fun () -> List.iter (fun x -> Cache.release_lease c ~key:(key x)) mine)
      (fun () -> compute mine);
    (* Nothing settled this round: give the other runs time. *)
    if mine = [] && rest <> [] then Unix.sleepf 0.05;
    settle t c ~key ~found compute rest
  end

let compile_failure t j = Hashtbl.find_opt t.failed_compiles (task_name j)

(* Every job's binary: memoized, else read from its task's [binary]
   entry, else compiled, once per task and, with a cache, under the
   lease of the entry's key. A task whose compile failed is not tried
   again. *)
let resolve t jobs =
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
  let missing =
    List.filter
      (fun j -> not (read j))
      (uniq task_name
         (List.filter
            (fun j -> compile_failure t j = None && not (Hashtbl.mem t.binaries (label_key j)))
            jobs))
  in
  match t.cache with
  | None -> compile_round t missing
  | Some c -> settle t c ~key:(binary_key t) ~found:read (compile_round t) missing

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

(* The final failure of [j]'s compile, run or trace, if the lab has one. *)
let failure_of t j =
  match compile_failure t j with
  | Some _ as fl -> fl
  | None when not (Hashtbl.mem t.binaries (label_key j)) -> None
  | None -> (
    match Hashtbl.find_opt t.failed_runs (memo_key t j) with
    | Some _ as fl -> fl
    | None -> Hashtbl.find_opt t.failed_traces (trace_key t j))

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

(* Stage 3's runs: one task per group, the longest first so the batch
   ends with every worker busy. A failed trace fails or retries exactly
   its group's runs; a failed run is retried with the trace kept. *)
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
      let lead = g.lead and what = describe_job g.lead in
      (* This round's trace attempt, if it makes one. *)
      let traced =
        if t.sample <> None || g.trace <> None then Done g.trace
        else
          attempt t halt ~stage:"trace" ~what ~tries:g.tries ~line:("tracing " ^ what) (fun () ->
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
            (fun (j, tries) ->
              ( j,
                tries,
                attempt t halt ~stage:"simulate" ~what:(describe_job j) ~tries
                  ~line:(Printf.sprintf "simulating %s (%s)" (describe_job j) note) (fun () ->
                    Faultpoint.cut fp_simulate;
                    let s = simulate ~config:j.job_config ?trace g.program in
                    Option.iter
                      (fun c -> Cache.store c ~kind:"summary" ~key:(run_key_of_job t j) s)
                      t.cache;
                    s) ))
            g.sims
        | Retry | Final _ | Skipped -> []
      in
      let retry = List.filter_map (fun (j, n, v) -> if v = Retry then Some (j, n + 1) else None) sims in
      let trace_failure = match traced with Final fl -> Some fl | _ -> None in
      ( (match traced with
        | Retry -> Some { g with tries = g.tries + 1 }
        | Done trace when retry <> [] -> Some { g with trace; sims = retry }
        | Done _ | Final _ | Skipped -> None),
        (* The commit runs when the round is over, so it holds no trace:
           that would keep every trace of the round alive until then. *)
        fun () ->
          Option.iter (Hashtbl.replace t.failed_traces (trace_key t lead)) trace_failure;
          List.iter
            (fun (j, _, v) ->
              match v with
              | Done s -> Hashtbl.replace t.results (memo_key t j) s
              | Final fl -> Hashtbl.replace t.failed_runs (memo_key t j) fl
              | Retry | Skipped -> ())
            sims ))
    (List.stable_sort
       (fun a b -> compare (hint b * List.length b.sims) (hint a * List.length a.sims))
       groups)

(* Runs the batch ({!run_batch_results}); returns each job's outcome. *)
let batch t jobs =
  check_stop t;
  (* Stage 1: every job's binary. A failed compile fails exactly the
     jobs of its task. *)
  resolve t jobs;
  (* Stage 2: the memo and the lab's failures, then the cache, on the
     digest key; what is left needs computing. *)
  let todo =
    List.filter
      (fun j -> Hashtbl.mem t.binaries (label_key j) && memoized t j = None && failure_of t j = None)
      jobs
    |> uniq (memo_key t)
    |> List.filter (fun j ->
           match stored_summary t j with
           | Some s ->
             cache_hit t j s ~note:"";
             false
           | None -> true)
  in
  (* Stage 3 for [todo], one job per key: compile the binaries known
     only from their entries, then run one group per trace (per job in
     a sampled lab). A job whose binary or trace already failed (before
     its lease was taken over) is not retried. *)
  let compute todo =
    let live = List.filter (fun j -> failure_of t j = None) in
    let todo = live todo in
    compile_round t
      (uniq task_name (List.filter (fun j -> not (Hashtbl.mem t.programs (label_key j))) todo));
    let todo = live todo in
    let group_key j = (trace_key t j, if t.sample = None then None else Some j.job_config) in
    run_groups t
      (List.map
         (fun lead ->
           let b = bench t lead.job_bench and k = group_key lead in
           let program = Wish_workloads.Bench.program_for b (compiled t lead) lead.job_input in
           let sims = List.filter (fun j -> group_key j = k) todo in
           { lead; program; trace = None; tries = 0; sims = List.map (fun j -> (j, 0)) sims })
         (uniq group_key todo))
  in
  (match t.cache with
  | None -> compute todo
  | Some c ->
    settle t c ~key:(run_key_of_job t)
      ~found:(fun j ->
        match Cache.find c ~kind:"summary" ~key:(run_key_of_job t j) with
        | Some s ->
          cache_hit t j s ~note:" (from a concurrent run)";
          true
        | None -> false)
      compute todo);
  fun j ->
    match memoized t j with Some s -> Ok s | None -> Error (Option.get (failure_of t j))

let run_batch_results t jobs = List.map (batch t jobs) jobs

(** [run_batch t jobs] — {!run_batch_results}, failures raised: the first
    failing job (in [jobs] order) aborts with [Job_failed]. *)
let run_batch t jobs =
  List.map (function Ok s -> s | Error fl -> raise (Job_failed fl)) (run_batch_results t jobs)

(* Under fail-fast, a failure raises inside the batch; under keep-going,
   failures are data, and the tables report them when they render. *)
let prewarm t jobs =
  let (_ : job -> _) = batch t (with_baselines jobs) in
  ()

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
