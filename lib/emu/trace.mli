(** Correct-path traces.

    A trace is the emulator's predicate-through execution recorded one
    entry per retired instruction (guard-false NOP entries included). It
    plays the role of the paper's Pin-generated IA-64 traces: the oracle
    that directs the timing simulator's correct-path fetch.

    Entries live in fixed-capacity chunks, one packed 63-bit word per
    entry (pc, next-pc delta, address, guard/taken bits — out-of-range
    fields escape to a side table), so multi-million-entry traces stay
    cheap and growth never copies. Two flavours share the type:

    - {!generate} builds a *materialized* trace: every chunk retained,
      random access over the whole run, marshal-safe (cacheable).
    - {!stream} builds a *streaming* trace: chunks are generated on
      demand from a paused emulator ({!ensure}) and recycled once the
      consumer declares them dead ({!release}), keeping resident memory
      bounded by the consumer's look-back window at any run length. *)

type t

(** Entries generated so far (the full dynamic length once {!finished}). *)
val length : t -> int

(** The emulator behind this trace has halted: {!length} is final. *)
val finished : t -> bool

(** [false] for {!generate}d traces, [true] for {!stream}ed ones. *)
val is_streaming : t -> bool

(** Accessors. Raise [Invalid_argument] outside the retained window —
    call {!ensure} first when reading near the generation frontier. *)

val pc : t -> int -> int

val next_pc : t -> int -> int
val addr : t -> int -> int
val guard_true : t -> int -> bool
val taken : t -> int -> bool

(** Single-read decode path for per-entry scans: [word t i] bounds-checks
    once and returns the packed entry word; the [w_*] decoders then
    extract fields from that word with pure arithmetic, no further
    lookups. If [w_escaped w] is true the entry's fields overflowed the
    packed format and live in a side table — fall back to the
    single-field accessors above for that entry. *)

val word : t -> int -> int

val w_guard_true : int -> bool
val w_taken : int -> bool
val w_escaped : int -> bool
val w_pc : int -> int
val w_next_pc : int -> int
val w_addr : int -> int

(** [iter_range t ~from ~until ~f] — decode entries [from, until) in one
    pass, resolving the chunk once per chunk and reading each packed word
    once (the functional-warming fast path; the single-field accessors
    pay one chunk lookup per field). The range must be available
    ({!ensure}) and still retained. *)
val iter_range :
  t ->
  from:int ->
  until:int ->
  f:(int -> pc:int -> guard_true:bool -> taken:bool -> addr:int -> unit) ->
  unit

(** [ensure t i] makes entry [i] available, pulling the streaming
    emulator forward as needed; [false] means the trace ends before [i].
    Constant-time on materialized traces. *)
val ensure : t -> int -> bool

(** [release t i] declares every entry below [i] dead — the consumer
    will never read them again, not even through a misprediction-recovery
    rewind. Streaming traces recycle the chunks this fully covers;
    materialized traces ignore the call. *)
val release : t -> int -> unit

(** Entries per chunk (the {!release} granularity). *)
val chunk_capacity : t -> int

(** Entries currently resident, and the high-water mark over the trace's
    lifetime — the bounded-memory guarantee is [peak_resident_entries]
    staying independent of {!length} for streamed runs. *)

val resident_entries : t -> int

val peak_resident_entries : t -> int

(** Approximate retained buffer footprint in memory words. *)
val resident_words : t -> int

exception Out_of_fuel of int

(** [set_sealed t flag] — while sealed, an {!ensure} that would need the
    paused emulator raises [Failure] instead of pulling it. The sampled
    coordinator seals the trace while measurement windows run on worker
    domains, so a window out-reading its pre-recorded margin fails loudly
    instead of racing the generator. Recorded entries stay readable. *)
val set_sealed : t -> bool -> unit

(** [warm_to t ~hooks ~until] — trace-free functional warming: advance
    the paused emulator to exactly [until] retired instructions, feeding
    each retired instruction's {!Exec.out} facts to [hooks.(pc)] instead
    of recording an entry, and mark the skipped index range as
    never-to-be-recorded. Streaming traces only; [hooks] needs one entry
    per static instruction. Returns the new {!length} — [until] unless
    the program halts first. Subsequent {!ensure}/window reads must stay
    at or above this point (skipped indices are not decodable). Raises
    {!Out_of_fuel} at exactly the instruction the recording path would. *)
val warm_to : t -> hooks:(Exec.out -> unit) array -> until:int -> int

(** Sentinel hook for pcs whose warm step is statically nothing
    (physically {!Compiled.no_sink}): {!warm_to} recognizes it by
    identity and skips the indirect call entirely. Warming plans mark
    straight-line instructions on an already-touched I-line with it. *)
val no_hook : Exec.out -> unit

(** [generate ?fuel ?hint program] runs the emulator in predicate-through
    mode to completion and records the materialized trace. [hint] — an
    approximate dynamic length ({!Wish_workloads.Bench} supplies one) —
    pre-sizes the chunk directory. Returns the trace and the final
    architectural state (whose {!State.outcome} equals the
    architectural-mode outcome — a property the test suite checks). *)
val generate : ?fuel:int -> ?hint:int -> Wish_isa.Program.t -> t * State.t

(** [stream ?fuel ?chunk_bits program] — lazy bounded-memory trace over
    the same execution; [chunk_bits] sizes chunks at [2^chunk_bits]
    entries (default 15; tests shrink it to force chunk crossings). *)
val stream : ?fuel:int -> ?chunk_bits:int -> Wish_isa.Program.t -> t
