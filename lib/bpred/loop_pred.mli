(** Wish-loop predictor (paper Section 3.2): a loop-termination predictor
    deliberately biased to overestimate trip counts, so a front end in
    low-confidence mode exits a short phantom tail after the real exit
    (cheap late-exit) instead of undershooting into a flush (early-exit).

    Loops with repeating trip counts are predicted exactly (Sherwood &
    Calder loop termination); variable loops iterate until an exponential
    moving average of recent trips plus [bias]. *)

type t

val create : ?bias:int -> ?conf_threshold:int -> unit -> t

(** Prediction codes for {!predict_code}. [p_exact_*] is trustworthy in
    any mode; [p_biased_*] is a deliberate overestimate, only useful in
    low-confidence (predicated) mode. The [_t]/[_f] suffix is the
    predicted direction (taken = keep iterating). *)
val p_none : int
val p_exact_f : int
val p_exact_t : int
val p_biased_f : int
val p_biased_t : int

(** [predict_code t ~pc] — the prediction for [pc]'s next fetch, one of
    the [p_*] codes. Creates [pc]'s entry on first sight. *)
val predict_code : t -> pc:int -> int

(** [spec_iterate t ~pc ~taken] advances the front-end visit view with the
    followed direction. *)
val spec_iterate : t -> pc:int -> taken:bool -> unit

(** [squash_all t] rewinds every front-end view to retirement state
    after a pipeline flush. *)
val squash_all : t -> unit

(** [train t ~pc ~taken] consumes a retired loop-branch outcome. *)
val train : t -> pc:int -> taken:bool -> unit

(** Independent deep copy (for sampled-simulation checkpoints). *)
val copy : t -> t
