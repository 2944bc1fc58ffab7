(** Pre-decoded, closure-threaded basic-block emulator.

    A one-time translation pass over a {!Wish_isa.Code.t} image:
    every static instruction is specialized into a closure (operand
    shape, guard register, ALU/CMP op and immediates resolved at compile
    time), straight-line runs are fused so dispatch happens once per
    basic block, and step facts are reported through a single mutable
    {!Exec.out} record reused across steps. The fuzzer's source oracle,
    test_emu and test/emu_pins.expected check it. *)

type t

(** Per-step consumer. Called once per retired instruction with the
    shared {!Exec.out} record; it must copy what it needs and must not
    mutate the machine state. *)
type sink = Exec.out -> unit

(** The sink for callers that need no per-step facts (pure
    fast-forwarding, throughput benchmarks). Every specialized closure
    ends by calling its run's sink, so running with [no_sink] still
    makes that (empty) call once per instruction; {!run_hooked} skips
    only the hook call for a hook that is physically [no_sink]. *)
val no_sink : sink

(** One run's machine state, fact record and sink: the argument every
    specialized closure takes. A caller that resumes the same run many
    times (a streaming trace's generator, once per refill) builds it
    once. *)
type ctx

val context : State.t -> Exec.out -> sink:sink -> ctx

(** [compile ~mode code] translates [code] once for [mode]. *)
val compile : mode:Exec.mode -> Wish_isa.Code.t -> t

val mode : t -> Exec.mode

(** Static basic blocks in this mode's block graph (wish jumps/joins are
    fused in [Predicate_through] mode, so its graph is coarser). *)
val block_count : t -> int

val block_leaders : t -> bool array

(** [run t c ~fuel ~steps] — execute whole blocks of [c]'s machine
    until it halts or at least [steps] more instructions retire (block
    fusion may overshoot to the end of the final block). Raises
    {!Exec.Out_of_fuel} with exactly [fuel] instructions retired. *)
val run : t -> ctx -> fuel:int -> steps:int -> unit

val run_to_halt : t -> State.t -> Exec.out -> sink:sink -> fuel:int -> unit

(** [run_hooked t st out ~hooks ~fuel ~steps] — warm-sink execution: the
    per-instruction consumer is chosen per pc from [hooks], and the stop
    is exact — the final partial block is single-stepped so [st.retired]
    lands precisely on the requested count (sampled-run checkpoints cut
    at precise trace indices). [hooks] must have one entry per static
    instruction; hooks must not mutate the machine state. A hook that is
    physically {!no_sink} is not called — warming plans mark
    statically-inert pcs with it. Raises {!Exec.Out_of_fuel} with exactly
    [fuel] instructions retired. *)
val run_hooked : t -> State.t -> Exec.out -> hooks:sink array -> fuel:int -> steps:int -> unit
