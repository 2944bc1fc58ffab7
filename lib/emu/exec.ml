(** Single-step architectural semantics.

    Two execution modes:
    - [Architectural]: every branch follows its real semantics. This is the
      golden model used for equivalence testing between binaries.
    - [Predicate_through]: wish jumps and wish joins are forced to fall
      through. Because everything they would have jumped over is guarded by
      the complementary predicate, this is architecturally equivalent (the
      very property predication relies on); it yields a linear trace that
      covers both arms of each wish region, which is what the timing
      simulator's oracle needs. Wish loops keep their real semantics in
      both modes. *)

open Wish_isa

type mode = Architectural | Predicate_through

(** Dynamic facts about one executed instruction — exactly what the timing
    simulator's oracle needs beyond the static code image — in a
    caller-supplied mutable record, reused across steps so the emulator's
    per-instruction loop allocates nothing. *)
type out = {
  mutable o_pc : int;
  mutable o_guard_true : bool;
  mutable o_taken : bool; (* branch direction; false for non-branches *)
  mutable o_next_pc : int; (* successor in this mode's order *)
  mutable o_addr : int; (* accessed memory word address, or -1 *)
}

let make_out () = { o_pc = 0; o_guard_true = false; o_taken = false; o_next_pc = 0; o_addr = -1 }

let eval_operand (st : State.t) = function
  | Inst.Reg r -> State.read_reg st r
  | Inst.Imm n -> n

let eval_alu op a b =
  match op with
  | Inst.Add -> a + b
  | Inst.Sub -> a - b
  | Inst.Mul -> a * b
  | Inst.And -> a land b
  | Inst.Or -> a lor b
  | Inst.Xor -> a lxor b
  | Inst.Shl -> a lsl (b land 63)
  | Inst.Shr -> a asr (b land 63)

let eval_cmp op a b =
  match op with
  | Inst.Eq -> a = b
  | Inst.Ne -> a <> b
  | Inst.Lt -> a < b
  | Inst.Le -> a <= b
  | Inst.Gt -> a > b
  | Inst.Ge -> a >= b

(** [step_at mode code st ~pc o] executes the instruction at [pc]: applies
    its state effects, fills [o] with the dynamic facts, and sets [st.pc]
    to the successor. Does NOT touch [st.retired] — bookkeeping belongs to
    the caller ({!step_into} counts one instruction at a time; the block
    emulator counts whole blocks). *)
let step_at mode code (st : State.t) ~pc (o : out) =
  let i = Code.get code pc in
  let guard_true = State.read_pred st i.guard in
  let fall = pc + 1 in
  o.o_pc <- pc;
  o.o_guard_true <- guard_true;
  o.o_taken <- false;
  o.o_next_pc <- fall;
  o.o_addr <- -1;
  (if not guard_true then
     (* Architectural NOP — except cmp.unc, which clears both destination
        predicates when its guard is false (IA-64 semantics). *)
     match i.op with
     | Inst.Cmp { dst_true; dst_false; unc = true; _ } ->
       State.write_pred st dst_true false;
       (match dst_false with Some p -> State.write_pred st p false | None -> ())
     | _ -> ()
   else
     match i.op with
     | Inst.Alu { op; dst; src1; src2 } ->
       let v = eval_alu op (State.read_reg st src1) (eval_operand st src2) in
       State.write_reg st dst v
     | Inst.Cmp { op; dst_true; dst_false; src1; src2; _ } ->
       let v = eval_cmp op (State.read_reg st src1) (eval_operand st src2) in
       State.write_pred st dst_true v;
       (match dst_false with Some p -> State.write_pred st p (not v) | None -> ())
     | Inst.Pset { dst; value } -> State.write_pred st dst value
     | Inst.Load { dst; base; offset } ->
       let addr = State.read_reg st base + offset in
       State.write_reg st dst (Memory.read st.mem addr);
       o.o_addr <- addr
     | Inst.Store { src; base; offset } ->
       let addr = State.read_reg st base + offset in
       Memory.write st.mem addr (State.read_reg st src);
       o.o_addr <- addr
     | Inst.Branch { kind; target } ->
       (* A guarded branch is taken iff its guard holds, and we only reach
          here with a true guard. In predicate-through mode wish jumps and
          joins fall through; the code they skip is all false-guarded. *)
       let follow =
         match (mode, kind) with
         | Predicate_through, (Inst.Wish_jump | Inst.Wish_join) -> fall
         | _, (Inst.Cond | Inst.Wish_jump | Inst.Wish_join | Inst.Wish_loop) -> target
       in
       o.o_taken <- true;
       o.o_next_pc <- follow
     | Inst.Jump { target } ->
       o.o_taken <- true;
       o.o_next_pc <- target
     | Inst.Call { target } ->
       State.push_ra st fall;
       o.o_taken <- true;
       o.o_next_pc <- target
     | Inst.Return ->
       let target = State.pop_ra st in
       o.o_taken <- true;
       o.o_next_pc <- target
     | Inst.Halt -> st.halted <- true
     | Inst.Nop -> ());
  st.pc <- o.o_next_pc

(** [step_into mode code st o] executes the instruction at [st.pc],
    updates [st] and writes the dynamic facts into [o]. Must not be
    called when [st.halted]. *)
let step_into mode code (st : State.t) (o : out) =
  assert (not st.halted);
  step_at mode code st ~pc:st.pc o;
  st.retired <- st.retired + 1

exception Out_of_fuel of int

(** [run ?mode ?fuel program] executes to completion. Raises {!Out_of_fuel}
    if more than [fuel] instructions retire (runaway-loop guard). *)
let run ?(mode = Architectural) ?(fuel = 200_000_000) program =
  let st = State.create program in
  let code = Program.code program in
  let o = make_out () in
  while not st.halted do
    if st.retired >= fuel then raise (Out_of_fuel fuel);
    step_into mode code st o
  done;
  st
