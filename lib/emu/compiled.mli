(** Pre-decoded, closure-threaded basic-block emulator.

    A one-time translation pass over a {!Wish_isa.Code.t} image:
    every static instruction is specialized into a closure (operand
    shape, guard register, ALU/CMP op and immediates resolved at compile
    time), straight-line runs are fused so dispatch happens once per
    basic block, and step facts are reported through a single mutable
    {!Exec.out} record reused across steps. Observably equivalent to the
    interpreted {!Exec.step_into}, which the [emu-identity] test group,
    the [@emu-smoke] bench and the fuzzer's lockstep oracle check. *)

type t

(** Per-step consumer. Called once per retired instruction with the
    shared {!Exec.out} record; it must copy what it needs and must not
    mutate the machine state. *)
type sink = Exec.out -> unit

(** Sentinel sink for callers that need no per-step facts (pure
    fast-forwarding, throughput benchmarks). Recognized by physical
    identity inside {!run}, which then skips the callback entirely. *)
val no_sink : sink

(** [compile ?checked ~mode code] translates [code] once for [mode].
    [checked] defaults to {!State.checked} (env [WISH_EMU_CHECKED]);
    when set, the block graph runs over the fully bounds-checked
    interpreter core instead of the specialized closures. *)
val compile : ?checked:bool -> mode:Exec.mode -> Wish_isa.Code.t -> t

val mode : t -> Exec.mode
val is_checked : t -> bool

(** Static basic blocks in this mode's block graph (wish jumps/joins are
    fused in [Predicate_through] mode, so its graph is coarser). *)
val block_count : t -> int

val block_leaders : t -> bool array
val mean_block_len : t -> float

(** [step t st out] — execute exactly one instruction; mirrors
    {!Exec.step_into} ([st.pc], [st.retired], facts into [out]). The
    lockstep probe used for equivalence testing. *)
val step : t -> State.t -> Exec.out -> unit

(** [run t st out ~sink ~fuel ~steps] — execute whole blocks until the
    machine halts or at least [steps] more instructions retire (block
    fusion may overshoot to the end of the final block). Raises
    {!Exec.Out_of_fuel} at exactly the instruction where the interpreted
    loop would. *)
val run : t -> State.t -> Exec.out -> sink:sink -> fuel:int -> steps:int -> unit

val run_to_halt : t -> State.t -> Exec.out -> sink:sink -> fuel:int -> unit

(** [run_hooked t st out ~hooks ~fuel ~steps] — warm-sink execution: the
    per-instruction consumer is chosen per pc from [hooks], and the stop
    is exact — the final partial block is single-stepped so [st.retired]
    lands precisely on the requested count (sampled-run checkpoints cut
    at precise trace indices). [hooks] must have one entry per static
    instruction; hooks must not mutate the machine state. A hook that is
    physically {!no_sink} is skipped without the indirect call — warming
    plans mark statically-inert pcs with it. Raises
    {!Exec.Out_of_fuel} at exactly the interpreter's instruction. *)
val run_hooked : t -> State.t -> Exec.out -> hooks:sink array -> fuel:int -> steps:int -> unit
