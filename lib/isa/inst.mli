(** WISC instructions.

    Every instruction carries a guard predicate; an instruction whose guard
    evaluates to FALSE is an architectural NOP (with the single exception of
    [cmp.unc], which clears its destinations). This is full predication in
    the IA-64 style. A branch's guard doubles as its condition: a guarded
    branch is taken iff its guard is TRUE, matching IA-64 [(p1) br.cond].

    Wish branches (paper Section 3) are ordinary conditional branches
    annotated with a wish type — hardware without wish support executes
    them as plain conditional branches (paper Section 3.4); wish-aware
    hardware consults its confidence estimator. *)

type aluop = Add | Sub | Mul | And | Or | Xor | Shl | Shr
[@@deriving show, eq]

type cmpop = Eq | Ne | Lt | Le | Gt | Ge [@@deriving show, eq]

type operand = Reg of Reg.ireg | Imm of int [@@deriving eq]

(** Branch flavours. [Cond] is a normal conditional branch; the three wish
    flavours follow paper Figure 7 ([wtype]): jump, join, loop. *)
type branch_kind = Cond | Wish_jump | Wish_join | Wish_loop [@@deriving show, eq]

type op =
  | Alu of { op : aluop; dst : Reg.ireg; src1 : Reg.ireg; src2 : operand }
  | Cmp of {
      op : cmpop;
      dst_true : Reg.preg;
      dst_false : Reg.preg option;  (** IA-64-style complement target *)
      src1 : Reg.ireg;
      src2 : operand;
      unc : bool;
          (** IA-64 [cmp.unc]: when the guard is FALSE both destinations
              are written FALSE instead of being left untouched — required
              for correct nested predication. *)
    }
  | Pset of { dst : Reg.preg; value : bool }
      (** e.g. the wish-loop header's [mov p1, 1] (Figure 4b) *)
  | Load of { dst : Reg.ireg; base : Reg.ireg; offset : int }
  | Store of { src : Reg.ireg; base : Reg.ireg; offset : int }
  | Branch of { kind : branch_kind; target : int }  (** taken iff guard *)
  | Jump of { target : int }  (** direct jump; the guard still applies *)
  | Call of { target : int }
  | Return
  | Halt
  | Nop
[@@deriving eq]

type t = {
  guard : Reg.preg;
  op : op;
  spec : bool;
      (** Compiler-marked control-speculated instruction: executes
          unconditionally inside a predicated region but writes only
          registers dead outside the region, so hardware jumping over the
          region may skip it. *)
}
[@@deriving eq]

val make : ?guard:Reg.preg -> ?spec:bool -> op -> t

val is_branch : t -> bool

(** Conditional branches only — what the direction predictor sees. *)
val is_conditional : t -> bool

val is_wish : t -> bool
val branch_kind : t -> branch_kind option

(** Static branch target, if control transfers directly. *)
val direct_target : t -> int option

(** Integer destination register, if any (writes to r0 are discarded). *)
val int_dest : t -> Reg.ireg option

(** Predicate destination registers (writes to p0 are discarded). *)
val pred_dests : t -> Reg.preg list

(** Integer source registers, excluding r0 (always ready). Excludes the
    old-destination source added by the C-style predication mechanism,
    which is a micro-architectural artifact of µop translation. *)
val int_srcs : t -> Reg.ireg list

(** Predicate source registers: the guard (unless p0). *)
val pred_srcs : t -> Reg.preg list

val writes_memory : t -> bool
val pp_aluop : Format.formatter -> aluop -> unit
val pp_cmpop : Format.formatter -> cmpop -> unit
val pp_operand : Format.formatter -> operand -> unit
val pp_branch_kind : Format.formatter -> branch_kind -> unit
val pp_op : Format.formatter -> op -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
