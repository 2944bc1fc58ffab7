(** The lab: compiles each workload's five binaries once, memoizes
    emulator traces, simulation results and static branch counts, and
    hands figure generators their data.

    Evaluation protocol (mirroring the paper's methodology):
    - binaries are compiled with profile feedback from each workload's
      designated training input (input B by convention);
    - unless a figure says otherwise (Figure 1 sweeps inputs), simulations
      run on input A — an input the compiler did not train on;
    - execution times are reported normalized to the normal-branch binary
      under the same machine configuration (oracle knobs stripped from
      the baseline).

    Performance machinery: an optional {!Wish_util.Pool} of worker
    domains ({!run_batch}/{!prewarm} fan independent jobs across it, with
    results folded back deterministically on the calling domain) and an
    optional persistent {!Cache} of summaries and static shapes,
    consulted before any recomputation. Traces are memoized in memory
    only and never stored. Processes sharing one cache directory
    coalesce duplicate jobs through the cache's leases (see
    {!run_batch_results}). Workloads are built, and binaries compiled,
    only on a miss: a lab whose cache holds every summary and {!shape}
    it is asked for builds, compiles, traces and simulates nothing.

    Fault tolerance: batched stages run under a supervision {!policy} —
    per-job crash isolation, bounded immediate retry, and structured
    {!failure} reports ({!run_batch_results}) instead of silent
    corruption. An interrupted batch resumes from the cache alone: a
    rerun finds every summary the interrupted one stored. The completion
    journal kept by the {!Cache} additionally reports those jobs as
    resumed ([~resume:true]). Figure output is bit-identical whatever
    [jobs] is, whether the cache is cold, warm, or absent, and under any
    injected-fault schedule that eventually succeeds. *)

type t

(** The default evaluation input label ("A"). *)
val eval_input : string

(** How the lab simulates: [Sample_auto] scales a sampling spec to each
    run's dynamic length ({!Wish_sim.Sampler.auto}); [Sample_spec] uses
    one fixed spec everywhere. *)
type sampling = Sample_auto | Sample_spec of Wish_sim.Sampler.spec

(** [create ?scale ?names ?jobs ?cache ?resume ?sample ()]
    — [names] restricts the benchmark set; [jobs > 1] spawns that many
    worker domains for {!run_batch}/{!prewarm} (default 1 = serial);
    [cache] persists summaries and shapes across processes; [resume]
    (default false, needs [cache]) loads the completion journal so jobs
    finished by an earlier interrupted run are reported as resumed.
    With [sample], every simulation runs sampled
    ({!Wish_sim.Runner.simulate_sampled}) and summaries are cached under
    keys carrying a [|sample...] suffix — exact results keep their
    historical keys. A sampled lab has no trace stage: functional
    warming runs inside the compiled emulator ({!Wish_sim.Sampler.run}
    with no trace), so it never generates or memoizes a trace. Raises
    [Invalid_argument] for an unknown benchmark name or a [scale] below
    1 ({!Wish_workloads.Workloads.check}), before building anything. *)
val create :
  ?scale:int ->
  ?names:string list ->
  ?jobs:int ->
  ?cache:Cache.t ->
  ?resume:bool ->
  ?sample:sampling ->
  unit ->
  t

(** The sampling mode the lab was created with (None = exact). *)
val sampling : t -> sampling option

(** Worker-domain count the lab was created with (1 = serial). *)
val jobs : t -> int

(** Join the worker domains, if any. The lab stays usable serially.
    Always call on every exit path — wrap lab usage in
    [Fun.protect ~finally:(fun () -> Lab.shutdown lab)]. *)
val shutdown : t -> unit

(** [set_logger t f] — progress callbacks for compilations/simulations. *)
val set_logger : t -> (string -> unit) -> unit

val bench_names : t -> string list

(** [program t ~bench ~kind ~input] — one of the bench's five binaries
    (compiled on first use) bound to [input]. *)
val program :
  t -> bench:string -> kind:Wish_compiler.Policy.kind -> input:string -> Wish_isa.Program.t

(** [run t ~bench ~kind ?wish_threshold_n ?input ?config ()] — memoized
    simulation. With a cache, a miss is simulated only under its
    {!Cache} lease, like a job of {!run_batch_results}; while another
    process holds that lease, [run] waits for its summary.

    [wish_threshold_n] other than {!Wish_compiler.Policy.default_wish_threshold_n}
    selects a variant binary compiled with that wish-jump threshold N
    (without a profile: the wish kinds read none). Its summary is
    memoized and cached like any other, under the kind [<kind>.n<N>]
    (e.g. [wish-jump-join.n0]); in an exact lab it simulates from a
    trace of its own that is never kept, and in a sampled lab it is
    sampled. The default N is the lab's ordinary run of [kind]. *)
val run :
  t ->
  bench:string ->
  kind:Wish_compiler.Policy.kind ->
  ?wish_threshold_n:int ->
  ?input:string ->
  ?config:Wish_sim.Config.t ->
  unit ->
  Wish_sim.Runner.summary

(** {1 Supervision} *)

(** How batched stages treat failing jobs. [retries] is the number of
    {e additional} attempts after the first, made at once: recomputation
    is deterministic, so there is nothing to wait for. With [keep_going]
    every job runs to a verdict and failures are returned as data;
    without it the first exhausted job raises {!Job_failed}. *)
type policy = { retries : int; keep_going : bool }

(** 2 retries, fail-fast. *)
val default_policy : policy

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
      (** stage tasks (compile, trace, simulate) actually run, batched or
          serial, attempts included: 0 when everything came from the
          cache *)
  mutable retried : int;  (** extra attempts beyond each task's first *)
  mutable failed : int;  (** tasks that exhausted their retry budget *)
  mutable cache_hits : int;
  mutable resumed : int;  (** journaled jobs served from the cache *)
}

val batch_stats : t -> batch_stats

(** Number of completed-job keys loaded from the journal (0 unless
    created with [~resume:true] and a cache). *)
val journaled_jobs : t -> int

(** Ask the current/next batch to stop: signal-handler safe (one atomic
    store). The batch drains the in-flight pool round, then raises
    {!Interrupted} from the coordinating domain; everything already
    finished is in the memo tables, the cache, and the journal, so a
    fresh lab on the same cache runs only the jobs left over. *)
val request_stop : t -> unit

val stop_requested : t -> bool

(** {1 Batched execution} *)

(** One unit of simulation work for {!run_batch}. *)
type job = {
  job_bench : string;
  job_kind : Wish_compiler.Policy.kind;
  job_input : string;
  job_config : Wish_sim.Config.t;
}

(** [job ~bench ~kind ?input ?config ()] — [input] defaults to
    {!eval_input}, [config] to {!Wish_sim.Config.default}. *)
val job :
  bench:string ->
  kind:Wish_compiler.Policy.kind ->
  ?input:string ->
  ?config:Wish_sim.Config.t ->
  unit ->
  job

(** The run {!normalized} divides [j] by: the normal binary, same input,
    same machine, oracle knobs stripped. *)
val baseline_of : job -> job

(** [with_baselines js] — each job followed by its {!baseline_of}. *)
val with_baselines : job list -> job list

(** [summary_key_of_job t j] — the persistent-cache key {!run} stores
    [j]'s summary under (bench, kind, input, scale, config digest, and
    the sampling suffix when the lab samples). {!run} and
    {!run_batch_results} take its {!Cache} lease on the same key. *)
val summary_key_of_job : t -> job -> string

(** [run_batch_results ?policy t jobs] — the supervised parallel twin of
    {!run}: resolves every job (memo table, then disk cache, then
    compile/trace/simulate fanned over the worker pool, each stage under
    [policy]; a sampled lab skips the trace stage) and returns per-job
    outcomes in [jobs] order. With a
    cache, a job is computed only under its {!Cache.try_lease} lease,
    taken on {!summary_key_of_job}; a job another live process holds
    the lease on is awaited (polling the cache, honouring
    {!request_stop}) rather than recomputed. Every lease the process can
    get is taken in one pass, before any work starts. Leases are
    released once the summary is stored, and on failure or
    interruption. A failure in
    one stage poisons exactly the jobs that needed its product (a failed
    compile fails that bench's jobs, a failed trace the jobs sharing it).
    Under the default fail-fast policy a permanent failure raises
    {!Job_failed} instead of being returned. Raises [Invalid_argument]
    when [policy.retries] is negative. *)
val run_batch_results :
  ?policy:policy -> t -> job list -> (Wish_sim.Runner.summary, failure) result list

(** [run_batch ?policy t jobs] — {!run_batch_results} with failures
    raised: the first failing job (in [jobs] order) aborts with
    {!Job_failed}. Successful output is identical to what serial {!run}
    calls would produce. *)
val run_batch : ?policy:policy -> t -> job list -> Wish_sim.Runner.summary list

(** [prewarm ?policy t jobs] — {!run_batch_results} over
    [with_baselines jobs], results discarded: populates the memo tables
    so a figure generator's serial {!run}/{!normalized} calls all hit.
    Raises {!Job_failed} on a permanent failure unless [policy] has
    [keep_going] set. *)
val prewarm : ?policy:policy -> t -> job list -> unit

(** {1 Static shape} *)

(** Static branch counts of one binary (Table 4). *)
type shape = {
  cond_branches : int;  (** conditional branches, wish branches included *)
  wish_branches : int;  (** wish jumps, joins and loops *)
  wish_loops : int;
}

(** [shape t ~bench ~kind] — the static shape of [bench]'s [kind]
    binary: memoized, and cached as kind [shape] under key
    [bench|kind|scaleN]. Only a miss compiles the bench. *)
val shape : t -> bench:string -> kind:Wish_compiler.Policy.kind -> shape

(** {1 Derived metrics} *)

(** Execution time normalized to the normal-branch binary on the same
    input and machine (baseline strips the oracle knobs). *)
val normalized :
  t ->
  bench:string ->
  kind:Wish_compiler.Policy.kind ->
  ?input:string ->
  ?config:Wish_sim.Config.t ->
  unit ->
  float

val mean : float list -> float

(** [avg_rows names values] — the paper's AVG / AVGnomcf convention
    (footnote 2: mcf skews the mean). *)
val avg_rows : string list -> (string -> float) -> (string * float) list
