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

    Performance machinery on top of the memo tables:
    - an optional {!Wish_util.Pool} of worker domains: {!run_batch} and
      {!prewarm} fan independent compile/trace/simulate jobs across it and
      fold the results back into the tables on the coordinating domain, so
      the tables are only ever mutated single-threaded and the outputs are
      bit-identical to the serial path;
    - an optional persistent {!Cache}: summaries and static shapes are
      looked up by (bench, kind, input, scale[, config]) before being
      recomputed and stored after, making repeated runs incremental
      across processes; concurrent processes on one cache coalesce
      duplicate jobs through its leases. Traces are never stored: the
      emulator regenerates one about as fast as the cache loads it, so a
      trace lives only in the in-memory memo, shared by every run of its
      binary and input. A sampled lab has no trace stage at all: its
      simulations warm trace-free.

    Fault tolerance ({!policy}): every batched stage runs under
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
  Faultpoint.register "lab.compile" ~doc:"a compile job raises mid-batch (fails that bench's jobs)"

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
  mutable executed : int; (* stage tasks actually run, batched or serial (attempts included) *)
  mutable retried : int; (* extra attempts beyond each task's first *)
  mutable failed : int; (* tasks that exhausted their retry budget *)
  mutable cache_hits : int;
  mutable resumed : int; (* journaled jobs served from the cache *)
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
  binaries : (string, Compiler.binaries) Hashtbl.t;
  traces : (string * string * string, Wish_emu.Trace.t) Hashtbl.t;
  results : (string * string * string * Wish_sim.Config.t, Wish_sim.Runner.summary) Hashtbl.t;
  shapes : (string, shape) Hashtbl.t; (* by cache key *)
  mutable log : string -> unit;
  pool : Pool.t option;
  cache : Cache.t option;
  journal : (string, unit) Hashtbl.t; (* completed-job keys loaded for --resume *)
  stop : bool Atomic.t;
  stats : batch_stats;
  sample : sampling option;
}

let eval_input = "A"

let create ?(scale = 1) ?names ?(jobs = 1) ?cache ?(resume = false) ?sample () =
  let names = Option.value names ~default:Wish_workloads.Workloads.names in
  (* Benches are built on first use, so a process that only reads
     summaries never pays for one. An unknown name or a scale below 1
     still fails here, with [Workloads.check]'s diagnostic. *)
  List.iter (Wish_workloads.Workloads.check ~scale) names;
  let journal =
    match (resume, cache) with
    | true, Some c -> Cache.journal_load c
    | _ -> Hashtbl.create 1
  in
  {
    scale;
    names;
    binaries = Hashtbl.create 16;
    traces = Hashtbl.create 64;
    results = Hashtbl.create 256;
    shapes = Hashtbl.create 32;
    log = ignore;
    pool = (if jobs > 1 then Some (Pool.create ~size:jobs ()) else None);
    cache;
    journal;
    stop = Atomic.make false;
    stats = { executed = 0; retried = 0; failed = 0; cache_hits = 0; resumed = 0 };
    sample;
  }

let sampling t = t.sample

let jobs t = match t.pool with Some p -> Pool.size p | None -> 1
let shutdown t = match t.pool with Some p -> Pool.shutdown p | None -> ()
let journaled_jobs t = Hashtbl.length t.journal

let batch_stats t =
  (* A copy: callers cannot perturb the accumulators. *)
  let s = t.stats in
  {
    executed = s.executed;
    retried = s.retried;
    failed = s.failed;
    cache_hits = s.cache_hits;
    resumed = s.resumed;
  }

let request_stop t = Atomic.set t.stop true
let stop_requested t = Atomic.get t.stop
let check_stop t = if Atomic.get t.stop then raise Interrupted

let set_logger t f = t.log <- f

(* One stage task (compile, trace or simulate) run outside a batch:
   counted where it is started, since the batched stages count their own
   through [supervised_map]. *)
let serial_task t = t.stats.executed <- t.stats.executed + 1

let bench_names t = t.names

(* [Workloads.find] memoizes, so every lab in the process shares one
   build per (bench, scale). *)
let bench t name =
  if List.mem name t.names then Wish_workloads.Workloads.find ~scale:t.scale name
  else invalid_arg ("Lab: unknown bench " ^ name)

(* --------------------------------------------------------------- *)
(* Cache keys                                                       *)
(* --------------------------------------------------------------- *)

(* Sampled results live under distinct keys (suffix [|sampleW:D] or
   [|sampleauto]); exact summaries keep their historical keys, so a
   cache survives turning sampling on and off. *)
let summary_cache_key t ~bench ~kind ~input ~config =
  let base =
    Printf.sprintf "%s|%s|%s|scale%d|cfg%s" bench kind input t.scale (Cache.digest_of config)
  in
  match t.sample with None -> base | Some s -> base ^ "|sample" ^ sampling_key s

(* The exact/sampled switch, shared by the serial and batched paths.
   Exact runs replay the lab's memoized [trace]. Sampled runs get none:
   [Runner.simulate_sampled] warms inside the compiled emulator and
   materializes chunks only for each window's span, so a sampled lab
   never generates, memoizes or stores a trace. *)
let simulate_with t ~config ?trace p =
  match t.sample with
  | None -> Wish_sim.Runner.simulate ~config ?trace p
  | Some s ->
    let spec = match s with Sample_spec sp -> Some sp | Sample_auto -> None in
    fst (Wish_sim.Runner.simulate_sampled ~config ?spec p)

(* The [simulating] log line's note on what the run covers. *)
let run_note t = function
  | Some tr -> Printf.sprintf "%d dynamic insts" (Wish_emu.Trace.length tr)
  | None when t.sample <> None -> "sampled, trace-free"
  | None -> "own trace, not kept"

let cached_summary t key =
  match t.cache with None -> None | Some c -> Cache.find c ~kind:"summary" ~key

let cached_shape t key =
  match t.cache with None -> None | Some c -> Cache.find c ~kind:"shape" ~key

(* Summaries are the unit of batch completion: storing one also journals
   its key, which is what lets an interrupted batch resume. *)
let store_summary t key s =
  match t.cache with
  | None -> ()
  | Some c ->
    Cache.store c ~kind:"summary" ~key s;
    Cache.journal_append c key

let hit_from_concurrent_run t what s =
  t.stats.cache_hits <- t.stats.cache_hits + 1;
  t.log (Printf.sprintf "cache hit: summary %s (from a concurrent run)" what);
  s

(* Seconds between looks at a summary another process holds the lease
   on. *)
let lease_poll = 0.05

(* [key]'s summary, computed by [compute] only under its lease. While
   another live process holds the lease, nothing is built here: the
   cache is polled until that process's summary lands, or until it dies
   and the lease can be taken over. *)
let rec leased_summary t c ~key ~what compute =
  if Cache.try_lease c ~key then
    Fun.protect
      ~finally:(fun () -> Cache.release_lease c ~key)
      (fun () ->
        match cached_summary t key with
        | Some s -> hit_from_concurrent_run t what s
        | None -> compute ())
  else
    match cached_summary t key with
    | Some s -> hit_from_concurrent_run t what s
    | None ->
      check_stop t;
      Unix.sleepf lease_poll;
      leased_summary t c ~key ~what compute

(* --------------------------------------------------------------- *)
(* Serial (memoized, cache-backed) accessors                        *)
(* --------------------------------------------------------------- *)

let compile t name =
  let b = bench t name in
  t.log (Printf.sprintf "compiling %s (5 binaries, profile input %s)" name b.profile_input);
  Compiler.compile_all ~mem_words:b.mem_words ~name
    ~profile_data:(Wish_workloads.Bench.profile_data b) b.ast

let binaries t name =
  match Hashtbl.find_opt t.binaries name with
  | Some b -> b
  | None ->
    serial_task t;
    let bins = compile t name in
    Hashtbl.add t.binaries name bins;
    bins

let program t ~bench:name ~kind ~input =
  let b = bench t name in
  Wish_workloads.Bench.program_for b (Compiler.binary (binaries t name) kind) input

let trace t ~bench:name ~kind ~input =
  let kind_n = Policy.kind_name kind in
  let key = (name, kind_n, input) in
  match Hashtbl.find_opt t.traces key with
  | Some tr -> tr
  | None ->
    let hint = (bench t name).approx_dyn_insts in
    let p = program t ~bench:name ~kind ~input in
    t.log (Printf.sprintf "tracing %s/%s input %s" name kind_n input);
    serial_task t;
    let tr, _ = Wish_emu.Trace.generate ~hint p in
    Hashtbl.add t.traces key tr;
    tr

(* The trace a simulation replays: exact labs only. *)
let trace_for t ~bench ~kind ~input =
  match t.sample with None -> Some (trace t ~bench ~kind ~input) | Some _ -> None

(* A binary compiled with a non-default wish-jump threshold N, bound to
   [input]. No profile: the wish kinds read none. It is compiled on each
   use, and only its summary is ever memoized or stored. *)
let variant_program t ~bench:name ~kind ~n ~input =
  let b = bench t name in
  t.log
    (Printf.sprintf "compiling %s/%s (wish-jump threshold N=%d)" name (Policy.kind_name kind) n);
  serial_task t;
  let code, _ = Compiler.compile_kind ~mem_words:b.mem_words ~wish_threshold_n:n ~name b.ast kind in
  Wish_workloads.Bench.program_for b code input

(** [run t ~bench ~kind ?wish_threshold_n ?input ?config ()] — memoized
    simulation. A non-default [wish_threshold_n] names a variant binary,
    keyed by kind as e.g. [wish-jump-join.n0]; an exact variant simulates
    from a trace of its own that is never kept. *)
let run t ~bench:name ~kind ?wish_threshold_n ?(input = eval_input)
    ?(config = Wish_sim.Config.default) () =
  let variant =
    match wish_threshold_n with
    | Some n when n <> Policy.default_wish_threshold_n -> Some n
    | _ -> None
  in
  let kind_n =
    match variant with
    | None -> Policy.kind_name kind
    | Some n -> Printf.sprintf "%s.n%d" (Policy.kind_name kind) n
  in
  let key = (name, kind_n, input, config) in
  match Hashtbl.find_opt t.results key with
  | Some s -> s
  | None ->
    let ckey = summary_cache_key t ~bench:name ~kind:kind_n ~input ~config in
    let s =
      match cached_summary t ckey with
      | Some s ->
        t.stats.cache_hits <- t.stats.cache_hits + 1;
        t.log (Printf.sprintf "cache hit: summary %s/%s input %s" name kind_n input);
        s
      | None -> (
        let compute () =
          let trace, p =
            match variant with
            | None -> (trace_for t ~bench:name ~kind ~input, program t ~bench:name ~kind ~input)
            | Some n -> (None, variant_program t ~bench:name ~kind ~n ~input)
          in
          t.log
            (Printf.sprintf "simulating %s/%s input %s (%s)" name kind_n input (run_note t trace));
          serial_task t;
          let s = simulate_with t ~config ?trace p in
          store_summary t ckey s;
          s
        in
        match t.cache with
        | None -> compute ()
        | Some c ->
          let what = Printf.sprintf "%s/%s input %s" name kind_n input in
          leased_summary t c ~key:ckey ~what compute)
    in
    Hashtbl.add t.results key s;
    s

(* --------------------------------------------------------------- *)
(* Batched (parallel, supervised) execution                         *)
(* --------------------------------------------------------------- *)

type job = {
  job_bench : string;
  job_kind : Policy.kind;
  job_input : string;
  job_config : Wish_sim.Config.t;
}

let job ~bench ~kind ?(input = eval_input) ?(config = Wish_sim.Config.default) () =
  { job_bench = bench; job_kind = kind; job_input = input; job_config = config }

(** The baseline run {!normalized} divides by: the normal binary on the
    same input and machine, with the oracle idealization knobs stripped. *)
let baseline_of j =
  {
    j with
    job_kind = Policy.Normal;
    job_config = { j.job_config with Wish_sim.Config.knobs = Wish_sim.Config.no_knobs };
  }

let with_baselines js = List.concat_map (fun j -> [ j; baseline_of j ]) js

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

let memo_key j = (j.job_bench, Policy.kind_name j.job_kind, j.job_input, j.job_config)

(* The persistent-cache identity of a job's summary — also the key its
   lease is taken on. *)
let summary_key_of_job t j =
  summary_cache_key t ~bench:j.job_bench ~kind:(Policy.kind_name j.job_kind) ~input:j.job_input
    ~config:j.job_config

(* Fan [f] over [xs] on the pool under [policy]: each item is attempted
   up to [1 + retries] times, each failed round retried at once
   (recomputation is deterministic, so a retried success is
   bit-identical and waiting buys nothing). Workers never see an
   exception: every attempt is folded to a [result] inside the task, so
   one job's crash (or its worker's injected death, handled a layer down
   by the pool) cannot abandon the batch. Returns per-item
   [Ok y | Error failure] in order; under fail-fast, raises [Job_failed]
   on the first exhausted item instead. *)
let supervised_map t ~policy ~stage ~describe f xs =
  if xs = [] then []
  else begin
    check_stop t;
    let items = Array.of_list xs in
    let n = Array.length items in
    let results = Array.make n None in
    let attempts = Array.make n 0 in
    let pending = ref (List.init n Fun.id) in
    let round = ref 0 in
    while !pending <> [] && !round <= policy.retries do
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
                 attempts.(i) (1 + policy.retries) reason))
        !pending outs;
      let failed_now = List.rev !failed_now in
      if failed_now <> [] && !round < policy.retries then
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
          if not policy.keep_going then raise (Job_failed fl);
          Error fl
        | None -> assert false)
  end

let describe_job j =
  Printf.sprintf "%s/%s input %s" j.job_bench (Policy.kind_name j.job_kind) j.job_input

(** [run_batch_results t jobs] — the supervised parallel twin of {!run}:
    resolves every job (memo table, then disk cache, then
    compile/trace/simulate fanned over the worker pool, each stage under
    the retry policy) and returns per-job outcomes in [jobs] order. All
    memo and cache mutation happens on the calling domain. *)
let run_batch_results ?(policy = default_policy) t jobs =
  if policy.retries < 0 then invalid_arg "Lab: policy.retries < 0";
  check_stop t;
  (* Stage 1: resolve summaries from memo and disk; what is left needs
     simulating. *)
  let todo =
    uniq memo_key (List.filter (fun j -> not (Hashtbl.mem t.results (memo_key j))) jobs)
  in
  let todo =
    List.filter
      (fun j ->
        let ckey = summary_key_of_job t j in
        match cached_summary t ckey with
        | Some s ->
          t.stats.cache_hits <- t.stats.cache_hits + 1;
          if Hashtbl.mem t.journal ckey then begin
            t.stats.resumed <- t.stats.resumed + 1;
            t.log (Printf.sprintf "resume: skipping %s (journaled)" (describe_job j))
          end
          else t.log (Printf.sprintf "cache hit: summary %s" (describe_job j));
          Hashtbl.add t.results (memo_key j) s;
          false
        | None -> true)
      todo
  in
  let failed_benches : (string, failure) Hashtbl.t = Hashtbl.create 4 in
  let failed_traces : (string * string * string, failure) Hashtbl.t = Hashtbl.create 4 in
  let failed_runs : (string * string * string * Wish_sim.Config.t, failure) Hashtbl.t =
    Hashtbl.create 4
  in
  (* Stages 2-4 for [todo]: compile missing binaries, generate missing
     traces, then simulate. A job whose binaries or trace already failed
     in this batch (before its lease was taken over) is not retried. *)
  let compute todo =
    let todo =
      List.filter
        (fun j ->
          not
            (Hashtbl.mem failed_benches j.job_bench
            || Hashtbl.mem failed_traces (j.job_bench, Policy.kind_name j.job_kind, j.job_input)))
        todo
    in
    (* Stage 2: one compile per bench. A bench whose compile exhausts its
       retries poisons only that bench's jobs. *)
    let missing_benches =
      uniq Fun.id
        (List.filter_map
           (fun j -> if Hashtbl.mem t.binaries j.job_bench then None else Some j.job_bench)
           todo)
    in
    if missing_benches <> [] then
      List.iter2
        (fun name -> function
          | Ok bins -> Hashtbl.replace t.binaries name bins
          | Error fl -> Hashtbl.replace failed_benches name fl)
        missing_benches
        (supervised_map t ~policy ~stage:"compile" ~describe:Fun.id
           (fun name ->
             Faultpoint.cut fp_compile;
             compile t name)
           missing_benches);
    let todo = List.filter (fun j -> not (Hashtbl.mem failed_benches j.job_bench)) todo in
    (* Stage 3 (exact labs only): one trace per (bench, kind, input),
       shared by every configuration of the same binary/input pair. *)
    let trace_todo =
      uniq
        (fun (name, kind_n, _, input) -> (name, kind_n, input))
        (List.filter_map
           (fun j ->
             let kind_n = Policy.kind_name j.job_kind in
             if t.sample <> None || Hashtbl.mem t.traces (j.job_bench, kind_n, j.job_input) then
               None
             else Some (j.job_bench, kind_n, j.job_kind, j.job_input))
           todo)
    in
    if trace_todo <> [] then begin
      let tasks =
        List.map
          (fun (name, kind_n, kind, input) ->
            t.log (Printf.sprintf "tracing %s/%s input %s" name kind_n input);
            ( (name, kind_n, input),
              (bench t name).approx_dyn_insts,
              program t ~bench:name ~kind ~input ))
          trace_todo
      in
      List.iter2
        (fun (key, _, _) -> function
          | Ok tr -> Hashtbl.replace t.traces key tr
          | Error fl -> Hashtbl.replace failed_traces key fl)
        tasks
        (supervised_map t ~policy ~stage:"trace"
           ~describe:(fun ((name, kind_n, input), _, _) ->
             Printf.sprintf "%s/%s input %s" name kind_n input)
           (fun (_, hint, p) ->
             Faultpoint.cut fp_trace;
             fst (Wish_emu.Trace.generate ~hint p))
           tasks)
    end;
    (* Stage 4: simulate every job whose trace, if it needs one, did not
       fail. *)
    let sim_todo =
      List.filter
        (fun j ->
          not
            (Hashtbl.mem failed_traces (j.job_bench, Policy.kind_name j.job_kind, j.job_input)))
        todo
    in
    if sim_todo <> [] then begin
      let tasks =
        List.map
          (fun j ->
            let trace = trace_for t ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input in
            let p = program t ~bench:j.job_bench ~kind:j.job_kind ~input:j.job_input in
            t.log (Printf.sprintf "simulating %s (%s)" (describe_job j) (run_note t trace));
            (j, trace, p))
          sim_todo
      in
      List.iter2
        (fun (j, _, _) -> function
          | Ok s ->
            Hashtbl.replace t.results (memo_key j) s;
            store_summary t (summary_key_of_job t j) s
          | Error fl -> Hashtbl.replace failed_runs (memo_key j) fl)
        tasks
        (supervised_map t ~policy ~stage:"simulate" ~describe:(fun (j, _, _) -> describe_job j)
           (fun (j, trace, p) ->
             Faultpoint.cut fp_simulate;
             simulate_with t ~config:j.job_config ?trace p)
           tasks)
    end
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
            Hashtbl.add t.results (memo_key j) (hit_from_concurrent_run t (describe_job j) s)
          | None when leased -> mine := j :: !mine
          | None -> rest := j :: !rest)
        pending;
      let mine = List.rev !mine in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun j -> Cache.release_lease c ~key:(summary_key_of_job t j)) mine)
        (fun () -> compute mine);
      let rest = List.rev !rest in
      if mine = [] && rest <> [] then Unix.sleepf lease_poll;
      settle c rest
    end
  in
  (match t.cache with None -> compute todo | Some c -> settle c todo);
  (* Assemble per-job outcomes, [jobs] order. *)
  List.map
    (fun j ->
      match Hashtbl.find_opt t.results (memo_key j) with
      | Some s -> Ok s
      | None -> (
        match Hashtbl.find_opt failed_runs (memo_key j) with
        | Some fl -> Error fl
        | None -> (
          let kind_n = Policy.kind_name j.job_kind in
          match Hashtbl.find_opt failed_traces (j.job_bench, kind_n, j.job_input) with
          | Some fl -> Error fl
          | None -> (
            match Hashtbl.find_opt failed_benches j.job_bench with
            | Some fl -> Error fl
            | None -> assert false))))
    jobs

(** [run_batch t jobs] — {!run_batch_results}, failures raised: the first
    failing job (in [jobs] order) aborts with [Job_failed]. *)
let run_batch ?policy t jobs =
  List.map
    (function Ok s -> s | Error fl -> raise (Job_failed fl))
    (run_batch_results ?policy t jobs)

let prewarm ?policy t jobs =
  let outcomes = run_batch_results ?policy t (with_baselines jobs) in
  match (policy : policy option) with
  | Some { keep_going = true; _ } -> ()
  | _ -> List.iter (function Error fl -> raise (Job_failed fl) | Ok _ -> ()) outcomes

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

(** Paper convention (footnote 2): report the average both with and without
    mcf, whose pathological predication behaviour skews the mean. *)
let avg_rows names (values : string -> float) =
  let all = List.map values names in
  let nomcf = List.filter_map (fun n -> if n = "mcf" then None else Some (values n)) names in
  [ ("AVG", mean all); ("AVGnomcf", mean nomcf) ]
