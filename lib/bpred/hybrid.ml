(** Hybrid gshare/PAs direction predictor with a selector table, modelling
    the paper's baseline: "64K-entry gshare/PAs hybrid, 64K-entry selector"
    (Table 2).

    Protocol with the out-of-order core:
    - [predict] at fetch returns the direction plus a {!lookup} capturing
      every table index consulted; the core stores it in the branch µop.
    - [spec_update] immediately after predicting shifts the predicted
      direction into the global and local histories and returns a
      {!snapshot} used to undo exactly this branch's effects.
    - [restore] is called youngest-first over squashed branches.
    - [train] at retirement updates the pattern tables and the selector
      using the indices captured at fetch (the history the prediction
      actually used). *)

type config = {
  gshare_bits : int; (* log2 gshare PHT entries; also global history length *)
  pas_bht_bits : int;
  pas_hist_bits : int;
  pas_pht_bits : int;
  selector_bits : int;
}

let default_config =
  { gshare_bits = 16; pas_bht_bits = 12; pas_hist_bits = 10; pas_pht_bits = 16; selector_bits = 16 }

type t = {
  gshare : Gshare.t;
  pas : Pas.t;
  selector : Bytes.t; (* 2-bit counters, byte each: >=2 chooses gshare *)
  selector_mask : int;
  mutable history : int; (* speculative global history *)
  history_mask : int;
}

type lookup = {
  taken : bool;
  g_taken : bool;
  p_taken : bool;
  g_index : int;
  p_index : int;
  s_index : int;
}

type snapshot = { old_history : int; snap_pc : int; old_local : int }

(** Flattened, caller-owned forms of {!lookup} and {!snapshot} for the
    compiled simulator core: one buffer lives inside each pooled branch
    µop and is refilled in place, so the fetch path allocates neither a
    lookup record nor a snapshot per branch. *)
type lbuf = {
  mutable b_taken : bool;
  mutable b_g_taken : bool;
  mutable b_p_taken : bool;
  mutable b_g_index : int;
  mutable b_p_index : int;
  mutable b_s_index : int;
}

type sbuf = { mutable b_old_history : int; mutable b_snap_pc : int; mutable b_old_local : int }

let fresh_lbuf () =
  { b_taken = false; b_g_taken = false; b_p_taken = false; b_g_index = 0; b_p_index = 0; b_s_index = 0 }

let fresh_sbuf () = { b_old_history = 0; b_snap_pc = 0; b_old_local = 0 }

let create config =
  {
    gshare = Gshare.create ~index_bits:config.gshare_bits;
    pas =
      Pas.create ~bht_bits:config.pas_bht_bits ~hist_bits:config.pas_hist_bits
        ~pht_bits:config.pas_pht_bits;
    selector = Bytes.make (1 lsl config.selector_bits) '\002';
    selector_mask = (1 lsl config.selector_bits) - 1;
    history = 0;
    history_mask = (1 lsl config.gshare_bits) - 1;
  }

let global_history t = t.history

let predict t ~pc =
  let g_index = Gshare.index t.gshare ~pc ~history:t.history in
  let g_taken = Gshare.predict_at t.gshare g_index in
  let p_taken, p_index = Pas.predict t.pas ~pc in
  let s_index = (pc lxor t.history) land t.selector_mask in
  let taken = if Bytes.unsafe_get t.selector s_index >= '\002' then g_taken else p_taken in
  { taken; g_taken; p_taken; g_index; p_index; s_index }

(** Speculatively shift [dir] (the direction the front end follows) into
    both histories. *)
let spec_update t ~pc ~dir =
  let old_history = t.history in
  t.history <- ((t.history lsl 1) lor if dir then 1 else 0) land t.history_mask;
  let old_local = Pas.spec_update t.pas ~pc ~taken:dir in
  { old_history; snap_pc = pc; old_local }

let restore t snap =
  t.history <- snap.old_history;
  Pas.restore t.pas ~pc:snap.snap_pc ~old:snap.old_local

(** [force_history t ~dir ~snap] re-applies a corrected outcome after a
    squash: restore then shift the actual direction. *)
let correct t snap ~dir =
  restore t snap;
  ignore (spec_update t ~pc:snap.snap_pc ~dir)

let train t (l : lookup) ~taken =
  Gshare.train_at t.gshare l.g_index ~taken;
  Pas.train_at t.pas l.p_index ~taken;
  (* The selector trains toward the component that was right, only when the
     components disagree. *)
  if l.g_taken <> l.p_taken then begin
    let c = Char.code (Bytes.unsafe_get t.selector l.s_index) in
    Bytes.unsafe_set t.selector l.s_index
      (Char.unsafe_chr (if l.g_taken = taken then Int.min 3 (c + 1) else Int.max 0 (c - 1)))
  end

(* ----- buffer-based protocol (allocation-free mirror of the above) ----- *)

let predict_into t ~pc (d : lbuf) =
  let g_index = Gshare.index t.gshare ~pc ~history:t.history in
  let g_taken = Gshare.predict_at t.gshare g_index in
  let p_index = Pas.predict_index t.pas ~pc in
  let p_taken = Pas.taken_at t.pas p_index in
  let s_index = (pc lxor t.history) land t.selector_mask in
  d.b_taken <- (if Bytes.unsafe_get t.selector s_index >= '\002' then g_taken else p_taken);
  d.b_g_taken <- g_taken;
  d.b_p_taken <- p_taken;
  d.b_g_index <- g_index;
  d.b_p_index <- p_index;
  d.b_s_index <- s_index

let spec_update_into t ~pc ~dir (d : sbuf) =
  d.b_old_history <- t.history;
  t.history <- ((t.history lsl 1) lor if dir then 1 else 0) land t.history_mask;
  d.b_old_local <- Pas.spec_update t.pas ~pc ~taken:dir;
  d.b_snap_pc <- pc

let restore_b t (d : sbuf) =
  t.history <- d.b_old_history;
  Pas.restore t.pas ~pc:d.b_snap_pc ~old:d.b_old_local

let correct_b t (d : sbuf) ~dir =
  restore_b t d;
  ignore (spec_update t ~pc:d.b_snap_pc ~dir)

let train_b t (d : lbuf) ~taken =
  Gshare.train_at t.gshare d.b_g_index ~taken;
  Pas.train_at t.pas d.b_p_index ~taken;
  if d.b_g_taken <> d.b_p_taken then begin
    let c = Char.code (Bytes.unsafe_get t.selector d.b_s_index) in
    Bytes.unsafe_set t.selector d.b_s_index
      (Char.unsafe_chr (if d.b_g_taken = taken then Int.min 3 (c + 1) else Int.max 0 (c - 1)))
  end

(** [warm_train_b t d ~pc ~dir ~taken] — the training half of a fused
    warming step whose probe half was {!predict_into}: train every table
    at the captured indices, then shift [dir] into the global and local
    histories. [predict_into] followed by [warm_train_b] performs exactly
    {!warm_fast}'s table reads and updates, in the same order — it just
    lets the caller consult a confidence estimator between the two
    halves without recomputing the indices. *)
let warm_train_b t (d : lbuf) ~pc ~dir ~taken =
  train_b t d ~taken;
  t.history <- ((t.history lsl 1) lor if dir then 1 else 0) land t.history_mask;
  ignore (Pas.spec_update t.pas ~pc ~taken:dir)

(** [reset t] — restore the exact just-created state in place (table
    pooling for the compiled core: a machine acquired from the pool must
    be indistinguishable from [create config]). *)
let reset t =
  Gshare.reset t.gshare;
  Pas.reset t.pas;
  Bytes.fill t.selector 0 (Bytes.length t.selector) '\002';
  t.history <- 0

(** [warm t ~pc ~taken] — functional-warming update: predict, train every
    table on the architectural outcome, and shift the outcome into the
    global and local histories — the fixed point of the detailed
    predict/spec-update/train protocol when no wrong path ever executes.
    Returns the pre-training prediction so callers can warm a confidence
    estimator with it. *)
let warm t ?dir ~pc ~taken () =
  let l = predict t ~pc in
  train t l ~taken;
  let dir = Option.value dir ~default:taken in
  t.history <- ((t.history lsl 1) lor if dir then 1 else 0) land t.history_mask;
  ignore (Pas.spec_update t.pas ~pc ~taken:dir);
  l.taken

(** [predict_taken t ~pc] — the combined direction the predictor would
    return at the current history, with no lookup record allocated and no
    recency or history touched (a pure peek for the warming hot path). *)
let predict_taken t ~pc =
  let g_taken = Gshare.predict_at t.gshare (Gshare.index t.gshare ~pc ~history:t.history) in
  let p_taken = Pas.taken_at t.pas (Pas.predict_index t.pas ~pc) in
  if Bytes.unsafe_get t.selector ((pc lxor t.history) land t.selector_mask) >= '\002' then
    g_taken
  else p_taken

(** [warm_fast t ~dir ~pc ~taken] is {!warm} with [dir] mandatory and no
    lookup record allocated: the same table reads and updates in the same
    order, same return value. The fused warming path calls this once per
    retired branch. *)
let warm_fast t ~dir ~pc ~taken =
  let g_index = Gshare.index t.gshare ~pc ~history:t.history in
  let g_taken = Gshare.predict_at t.gshare g_index in
  let p_index = Pas.predict_index t.pas ~pc in
  let p_taken = Pas.taken_at t.pas p_index in
  let s_index = (pc lxor t.history) land t.selector_mask in
  let predicted =
    if Bytes.unsafe_get t.selector s_index >= '\002' then g_taken else p_taken
  in
  Gshare.train_at t.gshare g_index ~taken;
  Pas.train_at t.pas p_index ~taken;
  if g_taken <> p_taken then begin
    let c = Char.code (Bytes.unsafe_get t.selector s_index) in
    Bytes.unsafe_set t.selector s_index
      (Char.unsafe_chr (if g_taken = taken then Int.min 3 (c + 1) else Int.max 0 (c - 1)))
  end;
  t.history <- ((t.history lsl 1) lor if dir then 1 else 0) land t.history_mask;
  ignore (Pas.spec_update t.pas ~pc ~taken:dir);
  predicted

(** Independent deep copy; checkpoint support for sampled simulation. *)
let copy t =
  {
    t with
    gshare = Gshare.copy t.gshare;
    pas = Pas.copy t.pas;
    selector = Bytes.copy t.selector;
  }
