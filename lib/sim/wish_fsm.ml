(** Front-end wish-branch hardware (paper Section 3.5):

    - the three-mode state machine of Figure 8 (normal / high-confidence /
      low-confidence);
    - the predicate-dependency-elimination buffer of Section 3.5.3 — in
      high-confidence mode the wish branch's predicate (and its complement,
      tracked from the producing compare at decode) is forwarded as a
      predicted value so guarded instructions need not wait;
    - the per-static-wish-loop last-prediction buffer of Section 3.5.4 used
      to distinguish early-exit / late-exit / no-exit.

    Storage is flat arrays indexed by predicate register (the forwarding
    and complement buffers) and by pc (the loop last-prediction buffer,
    epoch-stamped so a flush clears it in O(1)); the hot fetch path never
    allocates. *)

open Wish_isa

type t = {
  mutable mode : Uop.mode;
  mutable low_exit_pc : int; (* fetching this pc leaves low-confidence mode *)
  mutable low_loop_pc : int; (* wish loop holding us in low-confidence mode *)
  forward : int array; (* preg -> -1 none / 0 false / 1 true *)
  complement : int array; (* preg -> complement preg, or -1 *)
  (* Loop last-prediction buffer: pc -> (visit generation, last prediction),
     valid only when the epoch stamp matches the current epoch. *)
  mutable llp_gen : int array;
  mutable llp_dir : bool array;
  mutable llp_epoch : int array;
  mutable epoch : int;
}

let create () =
  {
    mode = Uop.Normal;
    low_exit_pc = -1;
    low_loop_pc = -1;
    forward = Array.make Reg.pred_reg_count (-1);
    complement = Array.make Reg.pred_reg_count (-1);
    llp_gen = Array.make 64 0;
    llp_dir = Array.make 64 false;
    llp_epoch = Array.make 64 0;
    epoch = 1;
  }

let mode t = t.mode

(** Full reset on a branch-misprediction signal (pipeline flush). The
    complement map survives a flush (it mirrors decoded compares, not
    speculation) — exactly as the original hashtable version behaved. *)
let reset t =
  t.mode <- Uop.Normal;
  t.low_exit_pc <- -1;
  t.low_loop_pc <- -1;
  Array.fill t.forward 0 (Array.length t.forward) (-1);
  t.epoch <- t.epoch + 1

(* Allocation-free primitives used by both the list-based decode hook below
   and the compiled core's pre-decoded templates. *)

let decode_write t p =
  t.forward.(p) <- -1;
  t.complement.(p) <- -1

let set_complement t ~pt ~pf =
  t.complement.(pt) <- pf;
  t.complement.(pf) <- pt

(** [on_decode_writes t pregs ~complement_pair] — decoding an instruction
    that writes a predicate register invalidates its forwarded value; a
    two-destination compare also refreshes the complement map. *)
let on_decode_writes t pregs ~complement_pair =
  List.iter (fun p -> decode_write t p) pregs;
  match complement_pair with
  | Some (pt, pf) -> set_complement t ~pt ~pf
  | None -> ()

(** [forwarded_code t p] — [-1] if the buffer has no prediction for
    predicate [p], else [0]/[1] for false/true. *)
let forwarded_code t p = t.forward.(p)

(** [forwarded_value t p] — [Some v] if the buffer predicts predicate [p]. *)
let forwarded_value t p =
  match t.forward.(p) with -1 -> None | v -> Some (v = 1)

(** [on_fetch_pc t ~pc] — "target fetched" exit from low-confidence mode. *)
let on_fetch_pc t ~pc =
  if t.mode == Uop.Low_conf && pc = t.low_exit_pc then begin
    t.mode <- Uop.Normal;
    t.low_exit_pc <- -1;
    t.low_loop_pc <- -1
  end

(** [on_wish_branch t ~kind ~pc ~target ~conf_high ~predictor_dir] applies
    the mode transition for a fetched wish branch and returns the direction
    the front end follows. Must be called with wish hardware enabled. *)
let on_wish_branch t ~kind ~pc ~target ~conf_high ~predictor_dir ~guard =
  match t.mode with
  | Uop.Low_conf when kind == Inst.Wish_jump || kind == Inst.Wish_join ->
    (* Any wish jump/join while in low-confidence mode is forced not-taken
       (Table 1); the region exit point is unchanged. *)
    false
  | Uop.Normal | Uop.High_conf | Uop.Low_conf ->
    if conf_high then begin
      t.mode <- Uop.High_conf;
      t.low_exit_pc <- -1;
      t.low_loop_pc <- -1;
      (* Predicate-dependency elimination: predict the branch predicate
         from the predicted direction, and its complement oppositely. *)
      t.forward.(guard) <- (if predictor_dir then 1 else 0);
      (match t.complement.(guard) with
      | -1 -> ()
      | c -> t.forward.(c) <- (if predictor_dir then 0 else 1));
      predictor_dir
    end
    else begin
      t.mode <- Uop.Low_conf;
      match kind with
      | Inst.Wish_jump | Inst.Wish_join ->
        t.low_exit_pc <- target;
        t.low_loop_pc <- -1;
        false (* forced not-taken: execute the predicated code *)
      | Inst.Wish_loop ->
        (* Stay in low-confidence mode until the loop is exited; direction
           still comes from the loop/branch predictor, but predicates are
           not forwarded, so iterations execute predicated. *)
        t.low_loop_pc <- pc;
        t.low_exit_pc <- -1;
        if not predictor_dir then begin
          (* Predicted exit: leave low-confidence mode immediately. *)
          t.mode <- Uop.Normal;
          t.low_loop_pc <- -1
        end;
        predictor_dir
      | Inst.Cond -> predictor_dir
    end

(* Packed-transition encoding shared with {!Plan}'s compiled wish-FSM
   transition table: bit 0 = followed direction, bits 1-2 = next mode
   (0 normal / 1 high / 2 low), bit 3 = clear both low-mode pcs, bit 4 =
   set [low_exit_pc <- target], bit 5 = set [low_loop_pc <- pc], bit 6 =
   forward the guard predicate (and its complement, oppositely). *)

let mode_code t =
  match t.mode with Uop.Normal -> 0 | Uop.High_conf -> 1 | Uop.Low_conf -> 2

(** [apply_packed t ~packed ~pc ~target ~guard] — apply one compiled
    transition-table entry; returns the followed direction. Semantically
    identical to {!on_wish_branch} when [packed] comes from the table
    entry for the current mode and inputs. *)
let apply_packed t ~packed ~pc ~target ~guard =
  (match (packed lsr 1) land 3 with
  | 0 -> t.mode <- Uop.Normal
  | 1 -> t.mode <- Uop.High_conf
  | _ -> t.mode <- Uop.Low_conf);
  if packed land 8 <> 0 then begin
    t.low_exit_pc <- -1;
    t.low_loop_pc <- -1
  end;
  if packed land 16 <> 0 then t.low_exit_pc <- target;
  if packed land 32 <> 0 then t.low_loop_pc <- pc;
  let dir = packed land 1 in
  if packed land 64 <> 0 then begin
    t.forward.(guard) <- dir;
    match t.complement.(guard) with
    | -1 -> ()
    | c -> t.forward.(c) <- 1 - dir
  end;
  dir = 1

let ensure_llp t pc =
  let n = Array.length t.llp_gen in
  if pc >= n then begin
    let n' = max (pc + 1) (2 * n) in
    let gen = Array.make n' 0 and dir = Array.make n' false and ep = Array.make n' 0 in
    Array.blit t.llp_gen 0 gen 0 n;
    Array.blit t.llp_dir 0 dir 0 n;
    Array.blit t.llp_epoch 0 ep 0 n;
    t.llp_gen <- gen;
    t.llp_dir <- dir;
    t.llp_epoch <- ep
  end

(** [loop_generation t ~pc] — the front end's current visit generation for
    a static wish loop; a predicted exit starts a new visit. *)
let loop_generation t ~pc =
  ensure_llp t pc;
  if t.llp_epoch.(pc) = t.epoch then t.llp_gen.(pc) else 0

(** [record_loop_prediction t ~pc ~dir] updates the last front-end
    prediction for a static wish loop, and handles the low-mode exit when
    the loop is predicted exited. *)
let record_loop_prediction t ~pc ~dir =
  let gen = loop_generation t ~pc in
  t.llp_gen.(pc) <- (if dir then gen else gen + 1);
  t.llp_dir.(pc) <- dir;
  t.llp_epoch.(pc) <- t.epoch;
  if t.mode == Uop.Low_conf && t.low_loop_pc = pc && not dir then begin
    t.mode <- Uop.Normal;
    t.low_loop_pc <- -1
  end

(** [last_loop_gen t ~pc] — the recorded generation, or [-1] if no
    prediction for [pc] survives the current epoch (allocation-free). *)
let last_loop_gen t ~pc =
  ensure_llp t pc;
  if t.llp_epoch.(pc) = t.epoch then t.llp_gen.(pc) else -1

(** [last_loop_dir t ~pc] — the last recorded direction; only meaningful
    when {!last_loop_gen} is non-negative. *)
let last_loop_dir t ~pc =
  ensure_llp t pc;
  t.llp_dir.(pc)

(** [last_loop_prediction t ~pc] — [(generation, last predicted dir)]. *)
let last_loop_prediction t ~pc =
  ensure_llp t pc;
  if t.llp_epoch.(pc) = t.epoch then Some (t.llp_gen.(pc), t.llp_dir.(pc)) else None
