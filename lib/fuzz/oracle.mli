(** The five differential oracles.

    Each oracle compares two independent implementations of the same
    contract on one generated case and returns a {!verdict}:

    - {!Lockstep} — interpreted {!Wish_emu.Exec.step_into} against the
      compiled {!Wish_emu.Compiled.step}, instruction by instruction
      (per-step facts, pc, retired, halt, final outcome), in both
      execution modes, on the normal and the wish-jjl binary. If exactly
      one side raises, or they raise different exceptions or at different
      steps, that is a failure; the same exception at the same step is
      agreement.
    - {!Binaries} — all five binary kinds of {!Wish_compiler.Compiler}
      run architecturally on the evaluation input must agree on the
      memory checksum and on every out-region word (live-out state made
      observable by the generator's epilogue).
    - {!Sim_identity} — interpreted {!Wish_sim.Core} against the compiled
      timing core on the same trace: cycle count, every event counter
      and the hierarchy counters, for a predicated and a wish binary.
    - {!Sampled} — exact vs sampled simulation. When the sampler
      degenerates to one cold full-length window (short traces — the
      common case for generated programs) the estimate must equal the
      exact cycle count; otherwise it must land within a generous
      CI-derived band. Either way, re-running the same spec with no trace
      ({!Wish_sim.Sampler.run}, whose warming is then fused into the
      compiled emulator) must reproduce the trace-based report bit for
      bit.
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

type name = Lockstep | Binaries | Sim_identity | Sampled | Roundtrip

(** All five, in the order above (cheap and sharp first). *)
val all_names : name list

val name_id : name -> string

(** Inverse of {!name_id} ("lockstep", "binaries", "sim", "sampled",
    "roundtrip"). *)
val name_of_id : string -> name option

(** Instruction budget per emulator run (cases beyond it are skipped, not
    failed) and the trace-length ceiling for the two timing oracles. *)
val fuel : int

val sim_trace_cap : int

(** [check ?cache_dir ~names case] — compile once, then run the selected
    oracles in order; skips are recorded and the remaining oracles still
    run, the first [Fail] stops the case. [cache_dir] roots the
    {!Roundtrip} oracle's throwaway cache (default: a per-process
    directory under the system temp dir). *)
val check : ?cache_dir:string -> names:name list -> Gen.case -> (name * verdict) list

(** [first_failure ?cache_dir ~names case] — [Some (oracle, reason)] for
    the first failing oracle; skips are not failures. This (closed over
    the oracle list) is the predicate handed to {!Shrink.minimize}. *)
val first_failure : ?cache_dir:string -> names:name list -> Gen.case -> (name * string) option

(** {1 Program-level oracles}

    The corpus replays repro files as bare programs (no AST, no seed
    needed): the emulator lockstep and timing-identity oracles apply to
    any {!Wish_isa.Program.t}. *)

val lockstep_program : Wish_isa.Program.t -> verdict

val sim_identity_program : Wish_isa.Program.t -> verdict

(** Remove a {!check}-created cache directory tree (best-effort; for
    drivers that pass an explicit [cache_dir]). *)
val remove_cache_dir : string -> unit
