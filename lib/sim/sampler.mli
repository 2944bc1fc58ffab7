(** Interval-sampled simulation (SMARTS-style).

    Alternates cheap {e functional-warming} intervals — the trace cursor
    advances at architectural speed, updating only long-lived state
    (predictors, BTB, RAS, confidence estimator, cache tags) — with short
    {e detailed measurement windows} run on the compiled cycle-level core
    ({!Compiled}) from a copy of the warm state. Rates (µPC, mispredictions per 1K µops) come from
    the measured windows with a 95% confidence interval; total cycles are
    extrapolated with a ratio estimator.

    Windows run on copies while warming continues over the window's own
    entries on the live state, so windows are mutually independent: the
    checkpointed interval-parallel mode (pass [?pool]) produces results
    byte-identical to the serial schedule. *)

(** [warm] functional entries between windows, then [detail] measured
    entries per window (plus an internal detail/4 pipeline-fill lead that
    is simulated in detail but not measured). *)
type spec = { warm : int; detail : int }

val default_spec : spec

(** Raises [Invalid_argument] unless both are positive. *)
val spec : warm:int -> detail:int -> spec

val to_string : spec -> string

(** Parse ["W:D"], e.g. ["18000:2000"]. *)
val of_string : string -> (spec, string) result

(** A spec scaled to the trace length: 12–64 tail windows (more on
    longer traces) plus a densely-sampled head stratum, ≲10% of entries
    simulated in detail. *)
val auto : length:int -> spec

type window = {
  w_start : int;  (** first measured trace index *)
  w_entries : int;
  w_cycles : int;
  w_counts : Counters.t;  (** every counter's increase over the window *)
}

type report = {
  r_spec : spec;
  r_windows : window list;
  r_total_insts : int;
  r_measured_entries : int;
  r_measured_cycles : int;
  r_measured : Counters.t;  (** every counter, summed over the windows *)
  r_upc : float;
  r_upc_ci : float;  (** 95% CI half-width on the per-window µPC *)
  r_misp_per_1k : float;
  r_misp_ci : float;
  r_est_cycles : int;  (** ratio-estimator whole-run cycle count *)
  r_mem : Wish_mem.Hierarchy.stats;  (** warming caches: full-trace stats *)
}

(** [warm_state_at ~config program trace i] — the functional-warming
    state after entries [0, i): what a detailed window opening at [i]
    receives, computed entry by entry from the trace. The reference that
    {!fused_warm_state_at} is tested against. *)
val warm_state_at :
  config:Config.t -> Wish_isa.Program.t -> Wish_emu.Trace.t -> int -> Core.warm_state

(** [fused_warm_state_at ~config program i] — {!warm_state_at} computed
    trace-free: per-pc warm hooks run inside the compiled emulator, no
    entry is ever encoded. Bit-identical to the trace-based state. *)
val fused_warm_state_at : config:Config.t -> Wish_isa.Program.t -> int -> Core.warm_state

(** [run ?pool ?trace ~config ~spec program] — sample the whole run.
    [trace] defaults to a fresh {!Wish_emu.Trace.stream} of [program].
    Entries the trace has already recorded (every entry of a
    materialized trace) warm entry by entry; the rest warms through
    per-pc hooks fused into the compiled emulator, and chunks are
    recorded only for each window's span. The report is the same either
    way. With [pool], detailed windows fan out across the pool's domains
    in batches (a streaming trace is sealed against generator pulls
    meanwhile); results are byte-identical to the serial schedule.
    Placement is stratified: the head region [0, period) — the
    initialization ramp systematic sampling would otherwise skip or
    over-weight — gets up to four windows of its own (the first cold),
    and the whole-run estimate weights the head and tail strata by
    length. A run shorter than the head stride degenerates to a single
    cold full-length window, i.e. the exact simulation. *)
val run :
  ?pool:Wish_util.Pool.t ->
  ?trace:Wish_emu.Trace.t ->
  config:Config.t ->
  spec:spec ->
  Wish_isa.Program.t ->
  report
