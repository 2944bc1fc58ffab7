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

(* Debug-mode flag: WISH_EMU_CHECKED=1 keeps every register/predicate
   access of the emulator hot paths bounds-checked. Off by default: the
   indices those paths use are static fields of a [Code.t], all validated
   once by [Code.create], so the checks are provably redundant there. *)
let checked =
  match Sys.getenv_opt "WISH_EMU_CHECKED" with
  | None | Some ("" | "0" | "false") -> false
  | Some _ -> true

(** Hot-path register-file accessors for the emulator. The index MUST
    come from a [Code.create]-validated instruction; arbitrary indices
    belong on {!read_reg} and friends. *)

let[@inline] fast_read_reg t r = if checked then t.regs.(r) else Array.unsafe_get t.regs r

let[@inline] fast_write_reg t r v =
  if r <> Reg.r0 then if checked then t.regs.(r) <- v else Array.unsafe_set t.regs r v

let[@inline] fast_read_pred t p =
  if checked then t.pregs.(p) else Array.unsafe_get t.pregs p

let[@inline] fast_write_pred t p v =
  if p <> Reg.p0 then if checked then t.pregs.(p) <- v else Array.unsafe_set t.pregs p v

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
