(** Hybrid gshare/PAs direction predictor with a selector table — the
    paper's baseline "64K-entry gshare/PAs hybrid, 64K-entry selector"
    (Table 2).

    One protocol serves the timing core and the warm hooks. The
    caller owns the two buffers: a branch µop carries one of each and
    refills them in place, so no operation allocates.
    + [predict_into] at fetch fills an {!lbuf} with the direction and
      every table index consulted.
    + [spec_update_into] immediately afterwards shifts the followed
      direction into the global and local histories, and fills an
      {!sbuf} that undoes exactly this branch's shift.
    + [restore_b] is called youngest-first over squashed branches;
      [correct_b] repairs the recovering branch itself.
    + [train_b] at retirement updates the pattern tables and the selector
      at the indices captured at fetch (the history the prediction
      actually used).

    Functional warming has no wrong path, so it pairs [predict_into]
    with [warm_train_b]: train at once, then shift. *)

type config = {
  gshare_bits : int;  (** log2 gshare PHT entries = global history length *)
  pas_bht_bits : int;
  pas_hist_bits : int;
  pas_pht_bits : int;
  selector_bits : int;
}

val default_config : config

type t

(** One prediction: the combined direction, each component's direction,
    and the gshare, PAs and selector indices it read. *)
type lbuf = {
  mutable b_taken : bool;
  mutable b_g_taken : bool;
  mutable b_p_taken : bool;
  mutable b_g_index : int;
  mutable b_p_index : int;
  mutable b_s_index : int;
}

(** The undo record of one history shift. *)
type sbuf = { mutable b_old_history : int; mutable b_snap_pc : int; mutable b_old_local : int }

val fresh_lbuf : unit -> lbuf
val fresh_sbuf : unit -> sbuf

val create : config -> t
val global_history : t -> int

(** [predict_into t ~pc d] — the prediction at the current history, into
    [d]. Reads only: no table, history or recency changes. *)
val predict_into : t -> pc:int -> lbuf -> unit

(** [spec_update_into t ~pc ~dir d] — [dir] is the direction the front
    end follows (or, for low-confidence-forced wish branches, the
    predictor's own output; see the core). *)
val spec_update_into : t -> pc:int -> dir:bool -> sbuf -> unit

val restore_b : t -> sbuf -> unit

(** [correct_b t d ~dir] — restore, then shift the actual outcome (used
    at misprediction recovery). [d] still undoes the branch afterwards. *)
val correct_b : t -> sbuf -> dir:bool -> unit

val train_b : t -> lbuf -> taken:bool -> unit

(** [warm_train_b t d ~pc ~dir ~taken] — the training half of a warming
    step probed with {!predict_into}: train on [taken] at the captured
    indices, then shift [dir] into both histories. [dir] differs from
    [taken] only for low-confidence wish branches, which retire with the
    predictor's output in the history (predicated execution never
    flushes, so recovery never repairs it). The caller may consult a
    confidence estimator between the two halves. *)
val warm_train_b : t -> lbuf -> pc:int -> dir:bool -> taken:bool -> unit

(** Independent deep copy (for sampled-simulation checkpoints). *)
val copy : t -> t
