(** Compile-time predication and wish-branch policy.

    Implements the paper's binary matrix (Table 3) and decision algorithms
    (Section 4.2): the BASE-DEF cost-benefit test of Equations 4.1–4.3,
    the predicate-everything BASE-MAX policy, and the wish thresholds N=5
    (minimum jumped-over block size for a wish jump) and L=30 (maximum
    loop body size for a wish loop). *)

type kind = Normal | Base_def | Base_max | Wish_jj | Wish_jjl

val kind_name : kind -> string

type branch_profile = { executed : int; cond_true : int }

(** Profile table keyed by the branch construct's pre-order index. *)
type profile = (int, branch_profile) Hashtbl.t

type t

(** The paper's wish-jump threshold N, 5 instructions: what {!create}
    uses unless told otherwise. *)
val default_wish_threshold_n : int

val create :
  ?misp_penalty:int ->
  ?wish_threshold_n:int ->
  ?wish_loop_threshold_l:int ->
  ?max_region_size:int ->
  ?profile:profile ->
  kind ->
  t

(** Probability the construct's condition evaluates true; 0.5 without
    profile data (the compiler's uninformed prior). *)
val cond_true_rate : t -> id:int -> float

(** Equations 4.1–4.3: compare the expected execution time of the branchy
    form (including the misprediction term) against the predicated form. *)
val cost_model_says_predicate : t -> id:int -> then_size:int -> else_size:int -> bool

type if_decision =
  | Keep_branch
  | Predicate
  | Wish_jump_join
      (** diamond: wish jump + wish join; triangle: wish jump only *)

(** [decide_if t ~id ~convertible ~then_size ~else_size ~jumped_over_size]
    — [jumped_over_size] is the block a wish jump would skip (the
    fall-through block of Section 4.2.2). *)
val decide_if :
  t ->
  id:int ->
  convertible:bool ->
  then_size:int ->
  else_size:int ->
  jumped_over_size:int ->
  if_decision

type loop_decision = Keep_loop | Wish_loop

(** Backward branches: only the wish-jjl binary converts loops, and only
    small straight-line bodies (threshold L). *)
val decide_loop : t -> id:int -> body_straight:bool -> body_size:int -> loop_decision
