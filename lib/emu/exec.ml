(** Execution modes and the per-step fact record — see the interface. *)

type mode = Architectural | Predicate_through

type out = {
  mutable o_pc : int;
  mutable o_guard_true : bool;
  mutable o_taken : bool; (* branch direction; false for non-branches *)
  mutable o_next_pc : int; (* successor in this mode's order *)
  mutable o_addr : int; (* accessed memory word address, or -1 *)
}

let make_out () = { o_pc = 0; o_guard_true = false; o_taken = false; o_next_pc = 0; o_addr = -1 }

exception Out_of_fuel of int
