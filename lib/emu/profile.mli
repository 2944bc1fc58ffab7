(** ISA-level dynamic profiling: per-branch execution/taken counts and
    instruction mix from an architectural run. Feeds the compiler's
    profile-guided decisions and Table 4-style characterization. *)

type branch_stats = { mutable executed : int; mutable taken : int }

type t = {
  branches : (int, branch_stats) Hashtbl.t;  (** pc → stats, conditional only *)
  mutable dynamic_insts : int;
  mutable dynamic_cond_branches : int;
  mutable dynamic_wish_branches : int;
  mutable dynamic_wish_loops : int;
  mutable guard_false_insts : int;
  mutable loads : int;
  mutable stores : int;
}

val create : unit -> t

(** [record t code out] folds one executed instruction (its facts read
    from the shared out-record) into the profile. The architectural
    direction of a guarded branch is its guard. *)
val record : t -> Wish_isa.Code.t -> Exec.out -> unit

(** [of_program ?fuel program] profiles a full architectural run through
    the compiled emulator. *)
val of_program : ?fuel:int -> Wish_isa.Program.t -> t * State.t

val taken_rate : t -> int -> float
val static_branch_count : t -> int
