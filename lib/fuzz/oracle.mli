(** The six oracles.

    Each oracle checks one contract on one generated case — most by
    comparing two independent ways of computing the same result — and
    returns a {!verdict}:

    - {!Source} — every binary kind, run architecturally on the
      evaluation input (and predicate-through where it has wish
      branches), must leave the data region and the live-out slots (the
      out-region words the generator's epilogue stores) as
      {!Source.run} leaves them: an independent evaluator over the
      Kernel AST, so a lowering or emulator bug the five kinds share
      shows up.
    - {!Binaries} — every binary kind of {!Wish_compiler.Compiler} must
      leave the memory checksum the normal binary leaves, spill area
      included. It judges the same architectural runs as {!Source}:
      each kind runs once per case for both.
    - {!Sim_identity} — the timing core's accounting on a predicated and
      a wish binary: retired µops are correct-path plus phantom ones,
      [wish_retired] and [wish_loop_retired] are the sums of their
      buckets, no more false-guarded µops retire than correct-path ones,
      retirement reaches the trace's last entry, and a re-run on a new
      core reproduces cycles, counters and hierarchy stats.
      test/sim_pins.expected pins those values for every case of
      @fuzz-smoke's sweep.
    - {!Sampled} — exact vs sampled simulation. When the sampler
      degenerates to one cold full-length window (short traces — the
      common case for generated programs) the estimate must equal the
      exact cycle count; otherwise it must land within a generous
      CI-derived band. Either way, re-running the same spec with no trace
      ({!Wish_sim.Sampler.run}, whose warming is then fused into the
      compiled emulator) must reproduce the trace-based report bit for
      bit.
    - {!Observed} — {!Wish_sim.Config.observed}'s rule: each distinct
      binary with no wish branch or no guarded non-branch instruction
      runs under a config drawn by the case's seed from
      {!machine_configs} (one that sets a field the rule can reset) and
      under the machine it can observe; cycles, every counter and the
      hierarchy stats must agree, exactly and through
      {!Wish_sim.Sampler.run} at a dense spec. A binary the rule leaves
      the config alone for passes.
    - {!Roundtrip} — artifact round-trips: textual
      ({!Wish_isa.Parse.listing_of_program} → parse → listing is a fixed
      point, and the reparsed program reaches the same outcome) and
      cached (store/find through {!Wish_experiments.Cache} is identity
      and the entry scans clean).

    Verdicts are three-valued on purpose: a case that cannot run — it no
    longer compiles after shrinking, exhausts its fuel budget, or traps
    on both sides identically — is {!Skip}, never {!Fail}, so the
    shrinker cannot "improve" a counterexample into a merely-broken
    program. *)

type verdict = Pass | Skip of string | Fail of string

type name = Source | Binaries | Sim_identity | Sampled | Observed | Roundtrip

(** All six, in the order above (cheap and sharp first). *)
val all_names : name list

val name_id : name -> string

(** Inverse of {!name_id} ("source", "binaries", "sim", "sampled",
    "observed", "roundtrip"). *)
val name_of_id : string -> name option

(** Instruction budget per emulator run (cases beyond it are skipped, not
    failed) and the trace-length ceiling for the two timing oracles. *)
val fuel : int

val sim_trace_cap : int

(** Every machine configuration the default tables run, normalization
    baselines included, then {!Wish_sim.Config.default} with each field
    {!Wish_sim.Config.observed} can reset flipped alone; without
    duplicates, in that order. *)
val machine_configs : unit -> Wish_sim.Config.t list

(** [check ~cache_dir ~names case] — compile once, then run the selected
    oracles in order; skips are recorded and the remaining oracles still
    run, the first [Fail] stops the case. [cache_dir] roots the
    {!Roundtrip} oracle's throwaway cache. *)
val check : cache_dir:string -> names:name list -> Gen.case -> (name * verdict) list

(** [first_failure ~cache_dir ~names case] — [Some (oracle, reason)] for
    the first failing oracle; skips are not failures. This (closed over
    the oracle list) is the predicate handed to {!Shrink.minimize}. *)
val first_failure : cache_dir:string -> names:name list -> Gen.case -> (name * string) option

(** {1 Program-level oracles}

    The corpus replays repro files as bare programs (no AST, no seed
    needed): the timing-core oracle applies to any
    {!Wish_isa.Program.t}, and {!Source}'s check to any program whose
    evaluator words the repro kept. *)

val sim_identity_program : Wish_isa.Program.t -> verdict

(** [source_words case] — what {!Source.run} leaves in the data region
    and the live-out slots ([Gen.out_base + c_outs] words) on [case]'s
    evaluation input, or what it raised. *)
val source_words : Gen.case -> (int array, exn) result

(** [source_program ~words program] — {!Source}'s check of one program:
    run architecturally, and predicate-through where it has wish
    branches, its final memory must start with [words]. *)
val source_program : words:int array -> Wish_isa.Program.t -> verdict

(** Remove a {!check}-created cache directory tree (best-effort). *)
val remove_cache_dir : string -> unit
