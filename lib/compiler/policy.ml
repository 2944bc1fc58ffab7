(** Compile-time predication and wish-branch policy.

    Implements the paper's binary matrix (Table 3) and decision algorithms
    (Section 4.2): the BASE-DEF cost-benefit test of Equations 4.1–4.3, the
    predicate-everything BASE-MAX policy, and the wish thresholds N=5
    (minimum jumped-over block size for a wish jump) and L=30 (maximum loop
    body size for a wish loop). *)

type kind = Normal | Base_def | Base_max | Wish_jj | Wish_jjl

let kind_name = function
  | Normal -> "normal"
  | Base_def -> "base-def"
  | Base_max -> "base-max"
  | Wish_jj -> "wish-jump-join"
  | Wish_jjl -> "wish-jump-join-loop"

type branch_profile = { executed : int; cond_true : int }

(** Profile table keyed by the branch construct's pre-order index. *)
type profile = (int, branch_profile) Hashtbl.t

type t = {
  kind : kind;
  profile : profile option;
  misp_penalty : int; (* paper: 30 cycles *)
  wish_threshold_n : int; (* paper: 5 instructions *)
  wish_loop_threshold_l : int; (* paper: 30 instructions *)
  max_region_size : int; (* refuse to predicate gigantic regions *)
}

let default_wish_threshold_n = 5

let create ?(misp_penalty = 30) ?(wish_threshold_n = default_wish_threshold_n)
    ?(wish_loop_threshold_l = 30) ?(max_region_size = 200) ?profile kind =
  { kind; profile; misp_penalty; wish_threshold_n; wish_loop_threshold_l; max_region_size }

let lookup_profile t ~id =
  match t.profile with None -> None | Some p -> Hashtbl.find_opt p id

(** Probability that the construct's condition evaluates true; 0.5 without
    profile data (the compiler's uninformed prior). *)
let cond_true_rate t ~id =
  match lookup_profile t ~id with
  | Some { executed; cond_true } when executed > 0 ->
    float_of_int cond_true /. float_of_int executed
  | Some _ | None -> 0.5

(** Equations 4.1–4.3. [then_size]/[else_size] approximate exec_T/exec_N
    (dependence-height analysis is folded into instruction counts); the
    misprediction probability is estimated as min(P, 1-P) — the rate of the
    minority direction, i.e. what a bias-based static predictor loses. *)
let cost_model_says_predicate t ~id ~then_size ~else_size =
  let p = cond_true_rate t ~id in
  let ft = float_of_int then_size and fe = float_of_int else_size in
  let p_misp = Float.min p (1.0 -. p) in
  let exec_branch =
    (p *. ft) +. ((1.0 -. p) *. fe) +. 2.0 +. (float_of_int t.misp_penalty *. p_misp)
  in
  let exec_pred = ft +. fe +. 2.0 in
  exec_pred < exec_branch

type if_decision =
  | Keep_branch
  | Predicate
  | Wish_jump_join (* diamond: wish jump + wish join; triangle: wish jump only *)

(** [decide_if t ~id ~convertible ~then_size ~else_size ~jumped_over_size]
    — [jumped_over_size] is the size of the block a wish jump would skip
    (the fall-through block of Section 4.2.2). *)
let decide_if t ~id ~convertible ~then_size ~else_size ~jumped_over_size =
  if (not convertible) || then_size + else_size > t.max_region_size then Keep_branch
  else
    match t.kind with
    | Normal -> Keep_branch
    | Base_def ->
      if cost_model_says_predicate t ~id ~then_size ~else_size then Predicate
      else Keep_branch
    | Base_max -> Predicate
    | Wish_jj | Wish_jjl ->
      (* Very short forward branches are better off predicated: wish code
         costs at least one extra instruction (Section 4.2.2). *)
      if jumped_over_size > t.wish_threshold_n then Wish_jump_join else Predicate

type loop_decision = Keep_loop | Wish_loop

(** Backward branches: only the wish-jjl binary converts loops, and only
    small straight-line bodies (Section 4.2.2, threshold L). *)
let decide_loop t ~id:_ ~body_straight ~body_size =
  match t.kind with
  | Wish_jjl when body_straight && body_size < t.wish_loop_threshold_l -> Wish_loop
  | Normal | Base_def | Base_max | Wish_jj | Wish_jjl -> Keep_loop
