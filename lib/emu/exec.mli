(** Single-step architectural semantics.

    Two execution modes:
    - [Architectural]: every branch follows its real semantics — the
      golden model used for equivalence testing between binaries.
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
val eval_alu : Wish_isa.Inst.aluop -> int -> int -> int
val eval_cmp : Wish_isa.Inst.cmpop -> int -> int -> bool

(** [step_at mode code st ~pc o] executes the instruction at [pc]: state
    effects, facts into [o], [st.pc] set to the successor. Does NOT touch
    [st.retired] — bookkeeping belongs to the caller ({!step_into} counts
    single instructions; {!Compiled} counts whole blocks). *)
val step_at : mode -> Wish_isa.Code.t -> State.t -> pc:int -> out -> unit

(** [step_into mode code st o] executes the instruction at [st.pc],
    updates [st] (including [retired]) and writes the facts into [o].
    Must not be called when [st.halted]. *)
val step_into : mode -> Wish_isa.Code.t -> State.t -> out -> unit

exception Out_of_fuel of int

(** [run ?mode ?fuel program] executes to completion; raises
    {!Out_of_fuel} past [fuel] retired instructions (runaway guard). *)
val run : ?mode:mode -> ?fuel:int -> Wish_isa.Program.t -> State.t
