(** The cycle-level out-of-order core.

    Oracle-directed execution: the front end fetches real instructions
    from the static code image along the *predicted* path; a cursor over
    the emulator trace ({!Oracle}) supplies dynamic facts (guard values,
    branch directions, memory addresses) for correct-path µops. Wrong-path
    µops (fetched past a misprediction) and phantom µops (wish-loop extra
    iterations) are fetched from the same image, so their resource
    consumption is modelled faithfully.

    Pipeline model per cycle: completion events → retire → rename/dispatch
    → issue → fetch; a bounded fetch-to-rename delay line realizes the
    front-end depth, which sets the ~30-cycle minimum misprediction
    penalty of Table 2.

    This is the golden reference the compiled core ({!Compiled}) is
    transcribed from: production runs use {!Compiled}, and the
    [@sim-smoke] bench and the fuzzer's [sim] oracle diff the two.
    Event counts are exposed through {!counters}. *)

type t

exception Deadlock of string

(** Long-lived microarchitectural state a sampled simulation keeps warm
    between detailed windows ({!Sampler}) and hands a compiled window
    core ({!Compiled.create}) at creation. The core takes ownership of
    the structures — give each window its own copies. *)
type warm_state = {
  warm_hybrid : Wish_bpred.Hybrid.t;
  warm_btb : Wish_bpred.Btb.t;
  warm_ras : Wish_bpred.Ras.t;
  warm_conf : Wish_bpred.Confidence.t;
  warm_loop : Wish_bpred.Loop_pred.t;
  warm_hier : Wish_mem.Hierarchy.t;
}

(** [create config program trace] — a whole-run core from a cold
    machine. *)
val create : Config.t -> Wish_isa.Program.t -> Wish_emu.Trace.t -> t

(** [run t] executes until the program's halt retires (or the cycle
    budget is exhausted). Raises {!Deadlock} (with a diagnostic dump) if
    no µop has retired for a very long time. *)
val run : t -> t

val cycles : t -> int
val counters : t -> Counters.t
val hier_stats : t -> Wish_mem.Hierarchy.stats
