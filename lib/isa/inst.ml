(** WISC instructions.

    Every instruction carries a guard predicate; an instruction whose guard
    evaluates to FALSE is an architectural NOP (it writes nothing). This is
    full predication in the IA-64 style. A branch's guard doubles as its
    condition: a guarded branch is taken iff its guard is TRUE, matching
    IA-64 [(p1) br.cond].

    Wish branches (the paper's Section 3) are ordinary conditional branches
    annotated with a wish type — existing hardware may execute them as plain
    conditional branches (paper Section 3.4); wish-aware hardware consults
    its confidence estimator. *)

type aluop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Shl
  | Shr
[@@deriving show { with_path = false }, eq]

type cmpop = Eq | Ne | Lt | Le | Gt | Ge [@@deriving show { with_path = false }, eq]

type operand = Reg of Reg.ireg | Imm of int [@@deriving eq]

(** Branch flavours. [Cond] is a normal conditional branch. The three wish
    flavours follow paper Figure 7 ([wtype]): jump, join, loop. *)
type branch_kind = Cond | Wish_jump | Wish_join | Wish_loop
[@@deriving show { with_path = false }, eq]

type op =
  | Alu of { op : aluop; dst : Reg.ireg; src1 : Reg.ireg; src2 : operand }
  | Cmp of {
      op : cmpop;
      dst_true : Reg.preg;
      dst_false : Reg.preg option; (* IA-64-style complement target *)
      src1 : Reg.ireg;
      src2 : operand;
      unc : bool;
        (* IA-64 cmp.unc: when the guard is FALSE both destinations are
           written FALSE (instead of being left untouched). Required for
           correct nested predication. *)
    }
  | Pset of { dst : Reg.preg; value : bool } (* e.g. the wish-loop header's mov p1,1 *)
  | Load of { dst : Reg.ireg; base : Reg.ireg; offset : int }
  | Store of { src : Reg.ireg; base : Reg.ireg; offset : int }
  | Branch of { kind : branch_kind; target : int } (* taken iff guard; target = pc *)
  | Jump of { target : int } (* unconditional direct jump; guard still applies *)
  | Call of { target : int }
  | Return
  | Halt
  | Nop
[@@deriving eq]

type t = {
  guard : Reg.preg;
  op : op;
  spec : bool;
      (* Compiler-marked control-speculated instruction: executes
         unconditionally inside a predicated region but writes only
         registers that are dead outside the region, so hardware that jumps
         over the region may skip it. The moral equivalent of IA-64's
         speculation support at the granularity we need. *)
} [@@deriving eq]

let make ?(guard = Reg.p0) ?(spec = false) op = { guard; op; spec }

let is_branch i =
  match i.op with
  | Branch _ | Jump _ | Call _ | Return -> true
  | Alu _ | Cmp _ | Pset _ | Load _ | Store _ | Halt | Nop -> false

(** Conditional branches only — what the branch direction predictor sees. *)
let is_conditional i = match i.op with Branch _ -> true | _ -> false

let is_wish i =
  match i.op with
  | Branch { kind = Wish_jump | Wish_join | Wish_loop; _ } -> true
  | _ -> false

let branch_kind i = match i.op with Branch { kind; _ } -> Some kind | _ -> None

(** Static branch target, if the instruction transfers control directly. *)
let direct_target i =
  match i.op with
  | Branch { target; _ } | Jump { target } | Call { target } -> Some target
  | _ -> None

(** Integer destination register, if any (writes to r0 are discarded). *)
let int_dest i =
  match i.op with
  | Alu { dst; _ } | Load { dst; _ } -> if dst = Reg.r0 then None else Some dst
  | _ -> None

(** Predicate destination registers (writes to p0 are discarded). *)
let pred_dests i =
  match i.op with
  | Cmp { dst_true; dst_false; _ } ->
    let ds = match dst_false with Some p -> [ dst_true; p ] | None -> [ dst_true ] in
    List.filter (fun p -> p <> Reg.p0) ds
  | Pset { dst; _ } -> if dst = Reg.p0 then [] else [ dst ]
  | _ -> []

let operand_srcs = function Reg r when r <> Reg.r0 -> [ r ] | Reg _ | Imm _ -> []

(** Integer source registers, excluding r0 (always ready). Does not include
    the old-destination source added by the C-style predication mechanism;
    that is a micro-architectural artifact added during µop translation. *)
let int_srcs i =
  match i.op with
  | Alu { src1; src2; _ } | Cmp { src1; src2; _ } ->
    (if src1 = Reg.r0 then [] else [ src1 ]) @ operand_srcs src2
  | Load { base; _ } -> if base = Reg.r0 then [] else [ base ]
  | Store { src; base; _ } ->
    (if src = Reg.r0 then [] else [ src ]) @ if base = Reg.r0 then [] else [ base ]
  | Pset _ | Branch _ | Jump _ | Call _ | Return | Halt | Nop -> []

(** Predicate source registers: the guard (unless p0). *)
let pred_srcs i = if i.guard = Reg.p0 then [] else [ i.guard ]

let writes_memory i = match i.op with Store _ -> true | _ -> false

let pp_aluop ppf op =
  Fmt.string ppf
    (match op with
    | Add -> "add"
    | Sub -> "sub"
    | Mul -> "mul"
    | And -> "and"
    | Or -> "or"
    | Xor -> "xor"
    | Shl -> "shl"
    | Shr -> "shr")

let pp_cmpop ppf op =
  Fmt.string ppf
    (match op with Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge")

let pp_operand ppf = function Reg r -> Reg.pp_ireg ppf r | Imm n -> Fmt.pf ppf "#%d" n

let pp_branch_kind ppf k =
  Fmt.string ppf
    (match k with
    | Cond -> "br"
    | Wish_jump -> "wish.jump"
    | Wish_join -> "wish.join"
    | Wish_loop -> "wish.loop")

let pp_op ppf = function
  | Alu { op; dst; src1; src2 } ->
    Fmt.pf ppf "%a %a, %a, %a" pp_aluop op Reg.pp_ireg dst Reg.pp_ireg src1 pp_operand src2
  | Cmp { op; dst_true; dst_false; src1; src2; unc } ->
    let pp_df ppf = function Some p -> Fmt.pf ppf ", %a" Reg.pp_preg p | None -> () in
    Fmt.pf ppf "cmp%s.%a %a%a = %a, %a"
      (if unc then ".unc" else "")
      pp_cmpop op Reg.pp_preg dst_true pp_df dst_false Reg.pp_ireg src1 pp_operand src2
  | Pset { dst; value } -> Fmt.pf ppf "pset %a, %b" Reg.pp_preg dst value
  | Load { dst; base; offset } -> Fmt.pf ppf "ld %a, [%a+%d]" Reg.pp_ireg dst Reg.pp_ireg base offset
  | Store { src; base; offset } ->
    Fmt.pf ppf "st [%a+%d], %a" Reg.pp_ireg base offset Reg.pp_ireg src
  | Branch { kind; target } -> Fmt.pf ppf "%a @%d" pp_branch_kind kind target
  | Jump { target } -> Fmt.pf ppf "jmp @%d" target
  | Call { target } -> Fmt.pf ppf "call @%d" target
  | Return -> Fmt.string ppf "ret"
  | Halt -> Fmt.string ppf "halt"
  | Nop -> Fmt.string ppf "nop"

let pp ppf i =
  let pp_spec ppf = if i.spec then Fmt.string ppf "s." in
  if i.guard = Reg.p0 then Fmt.pf ppf "%t%a" pp_spec pp_op i.op
  else Fmt.pf ppf "(%a) %t%a" Reg.pp_preg i.guard pp_spec pp_op i.op

let to_string i = Fmt.str "%a" pp i
