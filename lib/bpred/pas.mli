(** PAs two-level predictor [Yeh & Patt 1992]: per-address branch history
    registers indexing shared pattern history tables.

    Local histories are updated speculatively at fetch; the old history is
    returned so the core can restore it when squashing. *)

type t

val create : bht_bits:int -> hist_bits:int -> pht_bits:int -> t
val local_history : t -> pc:int -> int

(** [predict_index t ~pc] — the PHT index [pc]'s local history selects
    (keep it for retirement-time {!train_at}); [taken_at] reads the
    direction there. *)
val predict_index : t -> pc:int -> int

val taken_at : t -> int -> bool

(** [spec_update t ~pc ~taken] shifts the followed direction into the local
    history; returns the previous history for squash repair. *)
val spec_update : t -> pc:int -> taken:bool -> int

val restore : t -> pc:int -> old:int -> unit
val train_at : t -> int -> taken:bool -> unit

(** Independent deep copy (for sampled-simulation checkpoints). *)
val copy : t -> t
