(** Convenience driver: trace a program with the emulator, simulate it,
    and summarize the interesting numbers. *)

type summary = {
  cycles : int;
  dynamic_insts : int;  (** ISA instructions retired (trace entries) *)
  retired_uops : int;  (** correct-path µops retired *)
  retired_phantom : int;
  fetched_uops : int;
  flushes : int;
  mispredicts : int;  (** retired mispredicted conditional branches *)
  cond_branches : int;
  upc : float;  (** retired µops per cycle *)
  counts : Counters.t;  (** every event counter of the run *)
  mem : Wish_mem.Hierarchy.stats;
}

(** [simulate ?config ?streaming ?trace program] — pass [trace] to reuse
    a previously generated trace for the same program, or [~streaming:true]
    to fuse emulation into simulation through a bounded-memory streaming
    trace (identical summary, peak trace residency independent of run
    length). *)
val simulate :
  ?config:Config.t ->
  ?streaming:bool ->
  ?trace:Wish_emu.Trace.t ->
  Wish_isa.Program.t ->
  summary

(** [simulate_sampled ?pool ?spec ...] — sampled counterpart of
    {!simulate}: functional warming plus detailed measurement windows
    ({!Sampler.run}), returning an estimated summary of the same shape
    together with the full sampling report. [spec] defaults to
    {!Sampler.auto}, sized by the length of a finished materialized
    [trace] or else by one unrecorded emulator pass that counts the
    dynamic length; [pool] fans detailed windows out in parallel. With no
    caller-supplied [trace], warming runs trace-free. The cycles and every
    count, in [counts] and in the headline fields alike, are the sampler's
    stratified whole-run estimates ({!Sampler.report}'s [r_est_cycles]
    and [r_est_counts]); [upc] is its [r_upc]. *)
val simulate_sampled :
  ?config:Config.t ->
  ?pool:Wish_util.Pool.t ->
  ?spec:Sampler.spec ->
  ?trace:Wish_emu.Trace.t ->
  Wish_isa.Program.t ->
  summary * Sampler.report
