(** Architectural state of a WISC machine. *)

type t = {
  regs : int array;  (** 64 integer registers; [regs.(0)] stays 0 *)
  pregs : bool array;  (** 64 predicate registers; [pregs.(0)] stays true *)
  mem : Memory.t;
  mutable pc : int;
  mutable ra_stack : int list;  (** implicit return-address stack *)
  mutable halted : bool;
  mutable retired : int;  (** dynamic instruction count, NOPs included *)
}

exception Call_stack_error of string

val ra_stack_limit : int
val create : Wish_isa.Program.t -> t

(** [push_ra]/[pop_ra] raise {!Call_stack_error} on overflow/underflow. *)
val push_ra : t -> int -> unit

val pop_ra : t -> int

(** Observable outcome of a run, used to compare binaries for
    architectural equivalence. Registers are excluded on purpose:
    different binaries of the same source use registers differently; the
    contract is over memory. *)
type outcome = { memory_checksum : int; retired : int }

val outcome : t -> outcome
