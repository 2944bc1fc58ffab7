(** The lab: compiles each workload's five binaries once, memoizes
    simulation results and static branch counts, and hands figure
    generators their data.

    Evaluation protocol (mirroring the paper's methodology):
    - binaries are compiled with profile feedback from each workload's
      designated training input (input B by convention);
    - unless a figure says otherwise (Figure 1 sweeps inputs), simulations
      run on input A — an input the compiler did not train on;
    - execution times are reported normalized to the normal-branch binary
      under the same machine configuration (oracle knobs stripped from
      the baseline).

    One miss path: every summary comes out of {!run_batch_results}. An
    artifact declares its cells, every run its table reads; {!renders}
    computes the cells of many artifacts in one batch and renders each
    from its own slice of the results, through a lookup that admits
    nothing else, so a render never starts a second batch.
    {!run}, a memo lookup or a one-job batch, is the one-run API for
    tests and examples. Performance machinery: an
    optional {!Wish_util.Pool} of worker domains (a batch fans its
    compile tasks, then one task per trace, across it, with results
    folded back deterministically on the calling domain) and an optional
    persistent {!Cache} of summaries and [binary] entries, consulted
    before any recomputation. A trace lives only for its batch's task,
    which generates it and simulates every run of the batch that reads
    it; no trace is memoized or stored, so at most one per worker is
    live. Processes sharing one cache directory coordinate nothing: each
    computes what it misses, and the cache's atomic writes keep every
    entry whole. Workloads are built, and binaries compiled, only on a
    miss: a lab whose cache holds every summary and [binary] entry it is
    asked for builds, compiles, traces and simulates nothing.

    A run is named by its binary's content, not its kind label: its key
    carries the {!binary_digest} of its code and entry. Kinds (and
    ablation variants) compiled to one binary therefore share one memo
    slot, one trace per input and one cache key, and are one run by
    construction. Each compile task (a bench's five binaries, or
    one variant) stores one [binary] entry holding its binaries' digests
    and static shapes, so a process that finds it needs no compile to
    name its runs.

    A run is also named by the machine its binary can observe, not the
    whole config: {!Wish_sim.Config.observed} resets every field the
    binary never reads (the confidence estimator, wish-loop predictor,
    wish hardware and perfect confidence for a binary with no wish
    branch; the predication mechanism, NO-DEPEND and NO-FETCH for one
    with no guarded non-branch instruction). So the normal-binary
    baselines of the ablations and of Figure 16's select-µop machine are
    the default machine's runs.

    Fault tolerance: every stage runs under the lab's supervision
    {!policy} — per-job crash isolation, bounded immediate retry, and
    structured {!failure} reports ({!run_batch_results}) instead of
    silent corruption. An interrupted batch resumes from the cache
    alone: a rerun finds every summary the interrupted one stored.
    Figure output is bit-identical whatever [jobs] is, whether the cache
    is cold, warm, or absent, and under any injected-fault schedule that
    eventually succeeds. *)

type t

(** The default evaluation input label ("A"). *)
val eval_input : string

(** How the lab simulates: [Sample_auto] scales a sampling spec to each
    run's dynamic length ({!Wish_sim.Sampler.auto}); [Sample_spec] uses
    one fixed spec everywhere. *)
type sampling = Sample_auto | Sample_spec of Wish_sim.Sampler.spec

(** How the lab's stages treat failing jobs. [retries] is the number of
    {e additional} attempts after the first, made at once: recomputation
    is deterministic, so there is nothing to wait for. With [keep_going]
    every job runs to a verdict and failures are returned as data;
    without it the first exhausted job raises {!Job_failed}. *)
type policy = { retries : int; keep_going : bool }

(** 2 retries, fail-fast. *)
val default_policy : policy

(** [create ?scale ?names ?jobs ?cache ?policy ?sample ()]
    — [names] restricts the benchmark set; [jobs > 1] spawns that many
    worker domains for the batches (default 1 = serial); [cache]
    persists summaries and [binary] entries across processes; [policy]
    (default {!default_policy}) governs every stage of every batch,
    {!run}'s included. With [sample], every simulation runs sampled
    ({!Wish_sim.Runner.simulate_sampled}) and summaries are cached under
    keys carrying a [|sample...] suffix, so exact and sampled summaries
    never meet. A sampled lab has no trace stage: functional
    warming runs inside the compiled emulator ({!Wish_sim.Sampler.run}
    with no trace), so it never generates a trace. Raises
    [Invalid_argument] for an unknown benchmark name, a [scale] below 1
    ({!Wish_workloads.Workloads.check}) or a negative [policy.retries],
    before building anything or spawning a worker. *)
val create :
  ?scale:int ->
  ?names:string list ->
  ?jobs:int ->
  ?cache:Cache.t ->
  ?policy:policy ->
  ?sample:sampling ->
  unit ->
  t

(** Worker-domain count the lab was created with (1 = serial). *)
val jobs : t -> int

(** Join the worker domains, if any. The lab stays usable serially.
    Always call on every exit path — wrap lab usage in
    [Fun.protect ~finally:(fun () -> Lab.shutdown lab)]. *)
val shutdown : t -> unit

(** [set_logger t f] — progress callbacks for compilations/simulations.
    Without a logger the lab formats no log line. *)
val set_logger : t -> (string -> unit) -> unit

val bench_names : t -> string list

(** [program t ~bench ~kind ~input] — one of the bench's five binaries
    (compiled on first use) bound to [input]. *)
val program :
  t -> bench:string -> kind:Wish_compiler.Policy.kind -> input:string -> Wish_isa.Program.t

(** {1 Supervision} *)

(** What a job that exhausted its retry budget looked like. *)
type failure = {
  failed_stage : string;  (** "compile" | "trace" | "simulate" *)
  failed_what : string;  (** e.g. "gzip/wish-jump-join input A" *)
  failed_attempts : int;
  failed_reason : string;  (** exception text or injected-fault site *)
}

exception Job_failed of failure
exception Interrupted

val pp_failure : Format.formatter -> failure -> unit

(** Cumulative supervision counters since {!create} (a snapshot copy). *)
type batch_stats = {
  mutable executed : int;
      (** compiles, trace generations and simulations actually run,
          batched or serial, attempts included: 0 when everything came
          from the cache *)
  mutable retried : int;  (** extra attempts beyond each task's first *)
  mutable failed : int;  (** tasks that exhausted their retry budget *)
  mutable cache_hits : int;  (** summaries and [binary] entries read *)
}

val batch_stats : t -> batch_stats

(** Ask the current/next batch to stop: signal-handler safe (one atomic
    store). The batch lets its in-flight compiles, traces and
    simulations finish and starts no other, then raises {!Interrupted}
    from the coordinating domain; everything already finished is in the
    memo tables and the cache, so a fresh lab on the same cache runs
    only the jobs left over. *)
val request_stop : t -> unit

(** {1 Batched execution} *)

(** One unit of simulation work: a binary run on an input and machine.
    [job_wish_n = Some n] names a variant binary: [job_kind] compiled
    with wish-jump threshold N = [n] (ablation A4), never the default N. *)
type job = {
  job_bench : string;
  job_kind : Wish_compiler.Policy.kind;
  job_wish_n : int option;
  job_input : string;
  job_config : Wish_sim.Config.t;
}

(** [job ~bench ~kind ?wish_threshold_n ?input ?config ()] — [input]
    defaults to {!eval_input}, [config] to {!Wish_sim.Config.default}.
    A [wish_threshold_n] other than
    {!Wish_compiler.Policy.default_wish_threshold_n} names the variant
    binary compiled with that wish-jump threshold N (without a profile:
    the wish kinds read none); the default N names the ordinary binary
    of [kind]. *)
val job :
  bench:string ->
  kind:Wish_compiler.Policy.kind ->
  ?wish_threshold_n:int ->
  ?input:string ->
  ?config:Wish_sim.Config.t ->
  unit ->
  job

(** The run a {!Normalized} cell divides [j] by: the normal binary, same
    input, same machine, oracle knobs stripped (the paper normalizes
    PERFECT-CBP and perf-conf bars to the real normal-binary run). *)
val baseline_of : job -> job

(** [with_baselines js] — each job followed by its {!baseline_of}. *)
val with_baselines : job list -> job list

(** [binary_digest p] — hex MD5 of [p]'s code and entry, marshalled
    without sharing ({!Cache.digest_of}): equal binaries digest alike
    whatever kind they were compiled as and however they were built. *)
val binary_digest : Wish_isa.Program.t -> string

(** [run_key_of_job t j] — the lab's one name for [j]'s run:
    [bench|input|scaleN|bin<digest>|cfg<digest>] plus a [|sample...]
    suffix when the lab samples; [bin<digest>] is the {!binary_digest}
    of [j]'s binary, so twins share the key, and [cfg<digest>] digests
    the config that binary can observe ({!Wish_sim.Config.observed}),
    so configs it cannot tell apart share it too. The lab memoizes
    summaries and final run failures under it and stores the summary in
    the {!Cache} under it. Each distinct
    observed config is digested once per lab. The binary is resolved on
    first use: read from its [binary] entry, or compiled (raising
    {!Job_failed} if that fails for good). *)
val run_key_of_job : t -> job -> string

(** [summary_key_of_job t j] — [j]'s key by kind label,
    [bench|label|input|scaleN|cfg<digest>] plus the sampling suffix,
    where a variant's label is [<kind>.n<N>]. It needs no binary, so it
    digests [j]'s whole config, and twins have distinct label keys. The
    lab never stores under it, but reads a summary stored under it when
    {!run_key_of_job} misses, so a process that computes summaries
    outside the lab (bench/perf's traced pass) hands them to any lab on
    the same cache. *)
val summary_key_of_job : t -> job -> string

(** [run_batch_results t jobs] — the one place the lab computes a
    summary: resolves every job (memo table, then disk cache, then
    compile, trace and simulate on the worker pool, each under the lab's
    policy; a sampled lab has no trace) and returns per-job outcomes in
    [jobs] order. It first resolves each job's binary: memoized, else
    read from its compile task's [binary] entry, else compiled (each
    missing bench's five binaries, or a variant, once). Every later
    stage works on {!run_key_of_job}, computed once per job on the
    calling domain and carried into the pool tasks: the memo and the
    cache are looked up on it (the cache also on {!summary_key_of_job}
    when it misses), and jobs that share it (twins) share one
    simulation, whose summary is stored once. A binary known only from its entry is compiled before it is
    traced. The misses are grouped by trace (bench, binary, input), one
    pool task per group, the longest first: the task generates the
    trace, simulates every miss that reads it and stores each summary,
    and the trace dies with it. A failed attempt is retried in the next
    round of tasks, a failed simulation with its trace kept. The cache
    is read before any work starts and not again, so a process that
    shares it with another computes every miss it found, whatever the
    other is computing. A failure poisons exactly the jobs that
    needed its product (a failed compile fails that bench's jobs, or
    that variant's, a failed trace the jobs of its group, a failed
    simulation every job of its key). The lab keeps every final failure
    for its life, by compile task, trace and run: a later batch, {!run}
    or {!render} reports it again and computes nothing for it. Under
    a fail-fast policy a permanent failure is raised as {!Job_failed}
    rather than returned: its round starts no further attempt, and
    raises once the attempts in flight are done. *)
val run_batch_results : t -> job list -> (Wish_sim.Runner.summary, failure) result list

(** [run_batch t jobs] — {!run_batch_results} with failures raised: the
    first failing job (in [jobs] order) aborts with {!Job_failed}. *)
val run_batch : t -> job list -> Wish_sim.Runner.summary list

(** {1 Artifacts} *)

(** A value an artifact's table reads: [Plain j] reads [j]'s summary,
    and [Normalized j] also the summary of its {!baseline_of}. *)
type cell = Plain of job | Normalized of job

(** [cell_jobs cells] — every job [cells] read: each cell's job, a
    normalized cell's baseline after it unless the cell before has the
    same baseline. *)
val cell_jobs : cell list -> job list

(** [renders t artifacts] — one {!run_batch_results} over every job the
    cells of [artifacts] read, then one renderer per [(artifact, cells,
    f)], in order: forcing it runs [f get] on that artifact's slice of
    the batch's results, computing nothing. [get j] is [j]'s summary; it
    raises {!Job_failed} for a job whose run failed for good (under a
    keep-going policy), and [Invalid_argument] naming [artifact] and [j]
    for a job [cells] do not read. Once [f] returns, a job of [cells]
    that [get] never read raises [Invalid_argument] too: a table reads
    exactly its cells. The batch raises {!Job_failed} on a permanent
    failure unless the lab's policy keeps going. *)
val renders :
  t ->
  (string * cell list * ((job -> Wish_sim.Runner.summary) -> 'a)) list ->
  (unit -> 'a) list

(** [render t ~artifact cells f] — {!renders} of the one artifact,
    forced. *)
val render :
  t -> artifact:string -> cell list -> ((job -> Wish_sim.Runner.summary) -> 'a) -> 'a

(** [run t ~bench ~kind ?wish_threshold_n ?input ?config ()] — the
    summary of the {!job} with those arguments: a memo lookup, or a
    one-job {!run_batch}, so a miss is computed and retried exactly as
    in a batch, and a permanent failure, this call's or one
    an earlier batch recorded, raises {!Job_failed}. *)
val run :
  t ->
  bench:string ->
  kind:Wish_compiler.Policy.kind ->
  ?wish_threshold_n:int ->
  ?input:string ->
  ?config:Wish_sim.Config.t ->
  unit ->
  Wish_sim.Runner.summary

(** {1 Static shape} *)

(** Static counts of one binary: branches (Table 4), and the guarded
    non-branch instructions that decide whether predication is
    observable ({!run_key_of_job}). *)
type shape = {
  cond_branches : int;  (** conditional branches, wish branches included *)
  wish_branches : int;  (** wish jumps, joins and loops *)
  wish_loops : int;
  guarded_non_branches : int;
}

(** [shape t ~bench ~kind] — the static shape of [bench]'s [kind]
    binary, read from the bench's [binary] entry (key [bench|scaleN]).
    Only a miss compiles the bench. *)
val shape : t -> bench:string -> kind:Wish_compiler.Policy.kind -> shape

(** [mean xs] — the arithmetic mean. Raises [Invalid_argument] on [[]],
    which has none. *)
val mean : float list -> float
