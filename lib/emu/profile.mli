(** ISA-level dynamic profiling: per-branch execution/taken counts from
    an architectural run, for the compiler's profile-guided decisions.
    (Table 4 reads simulation counters, not this module.) *)

type branch_stats = { mutable executed : int; mutable taken : int }

type t = {
  branches : (int, branch_stats) Hashtbl.t;  (** pc → stats, conditional only *)
  mutable dynamic_insts : int;
  mutable dynamic_cond_branches : int;  (** wish branches included *)
}

(** [of_program ?fuel program] profiles a full architectural run through
    the compiled emulator. The architectural direction of a guarded
    branch is its guard. *)
val of_program : ?fuel:int -> Wish_isa.Program.t -> t * State.t

val taken_rate : t -> int -> float
val static_branch_count : t -> int
