(** Hybrid gshare/PAs direction predictor with a selector table, modelling
    the paper's baseline: "64K-entry gshare/PAs hybrid, 64K-entry selector"
    (Table 2). The protocol is described in the interface. *)

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

(* Shift [dir] into the global history and [pc]'s local history; returns
   the local history it replaced. *)
let shift t ~pc ~dir =
  t.history <- ((t.history lsl 1) lor if dir then 1 else 0) land t.history_mask;
  Pas.spec_update t.pas ~pc ~taken:dir

let spec_update_into t ~pc ~dir (d : sbuf) =
  d.b_old_history <- t.history;
  d.b_old_local <- shift t ~pc ~dir;
  d.b_snap_pc <- pc

let restore_b t (d : sbuf) =
  t.history <- d.b_old_history;
  Pas.restore t.pas ~pc:d.b_snap_pc ~old:d.b_old_local

let correct_b t (d : sbuf) ~dir =
  restore_b t d;
  ignore (shift t ~pc:d.b_snap_pc ~dir)

let train_b t (d : lbuf) ~taken =
  Gshare.train_at t.gshare d.b_g_index ~taken;
  Pas.train_at t.pas d.b_p_index ~taken;
  (* The selector trains toward the component that was right, only when
     the components disagree. *)
  if d.b_g_taken <> d.b_p_taken then begin
    let c = Char.code (Bytes.unsafe_get t.selector d.b_s_index) in
    Bytes.unsafe_set t.selector d.b_s_index
      (Char.unsafe_chr (if d.b_g_taken = taken then Int.min 3 (c + 1) else Int.max 0 (c - 1)))
  end

let warm_train_b t (d : lbuf) ~pc ~dir ~taken =
  train_b t d ~taken;
  ignore (shift t ~pc ~dir)

let reset t =
  Gshare.reset t.gshare;
  Pas.reset t.pas;
  Bytes.fill t.selector 0 (Bytes.length t.selector) '\002';
  t.history <- 0

let copy t =
  {
    t with
    gshare = Gshare.copy t.gshare;
    pas = Pas.copy t.pas;
    selector = Bytes.copy t.selector;
  }
