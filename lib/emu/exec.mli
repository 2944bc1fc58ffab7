(** Execution modes and the per-step fact record of the emulator
    ({!Compiled}).

    Two execution modes:
    - [Architectural]: every branch follows its real semantics.
    - [Predicate_through]: wish jumps and wish joins are forced to fall
      through. Because everything they would have jumped over is guarded
      by the complementary predicate (or marked speculative), this is
      architecturally equivalent; it yields a linear trace covering both
      arms of each wish region, which the timing simulator's oracle
      needs. Wish loops keep their real semantics in both modes. *)

type mode = Architectural | Predicate_through

(** Dynamic facts about one executed instruction — exactly what the timing
    simulator's oracle needs beyond the static code image — in a
    caller-supplied mutable record, reused across steps so per-instruction
    emulation allocates nothing. *)
type out = {
  mutable o_pc : int;
  mutable o_guard_true : bool;
  mutable o_taken : bool;  (** branch direction; false for non-branches *)
  mutable o_next_pc : int;  (** successor in this mode's order *)
  mutable o_addr : int;  (** accessed memory word address, or -1 *)
}

val make_out : unit -> out

(** Raised by a run that would retire more than its fuel (runaway
    guard), carrying the fuel. *)
exception Out_of_fuel of int
