(** Architectural state of a WISC machine. *)

open Wish_isa

type t = {
  regs : int array; (* 64 integer registers; regs.(0) stays 0 *)
  pregs : bool array; (* 64 predicate registers; pregs.(0) stays true *)
  mem : Memory.t;
  mutable pc : int;
  mutable ra_stack : int list; (* implicit return-address stack *)
  mutable halted : bool;
  mutable retired : int; (* dynamic instruction count, NOPs included *)
}

exception Call_stack_error of string

let ra_stack_limit = 4096

let create (p : Program.t) =
  let pregs = Array.make Reg.pred_reg_count false in
  pregs.(Reg.p0) <- true;
  {
    regs = Array.make Reg.int_reg_count 0;
    pregs;
    mem = Memory.of_program p;
    pc = p.entry;
    ra_stack = [];
    halted = false;
    retired = 0;
  }

let read_reg t r = t.regs.(r)
let read_pred t p = t.pregs.(p)
let write_reg t r v = if r <> Reg.r0 then t.regs.(r) <- v
let write_pred t p v = if p <> Reg.p0 then t.pregs.(p) <- v

let push_ra t pc =
  if List.length t.ra_stack >= ra_stack_limit then
    raise (Call_stack_error "call stack overflow");
  t.ra_stack <- pc :: t.ra_stack

let pop_ra t =
  match t.ra_stack with
  | [] -> raise (Call_stack_error "return with empty call stack")
  | pc :: rest ->
    t.ra_stack <- rest;
    pc

(** Snapshot of the observable outcome of a run, used to compare binaries
    for architectural equivalence. Register state is excluded on purpose:
    different binaries of the same source program use registers
    differently; the contract is over memory. *)
type outcome = { memory_checksum : int; retired : int }

let outcome t = { memory_checksum = Memory.checksum t.mem; retired = t.retired }
