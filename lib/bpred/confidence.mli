(** JRS confidence estimator [Jacobsen, Rotenberg & Smith, MICRO-29 1996],
    as used by the paper: a small tagged 4-way table of resetting "miss
    distance counters" dedicated to wish branches (Table 2).

    A counter increments when the branch's prediction was correct and
    resets to zero on a misprediction; a prediction is estimated
    high-confidence when the counter reaches the threshold. History is
    xor-folded into the set index (the tag identifies the PC). *)

type config = {
  sets : int;
  ways : int;
  counter_bits : int;
  threshold : int;  (** high confidence iff counter >= threshold *)
  history_bits : int;
}

(** Defaults scaled for kernel-length runs; see DESIGN.md. *)
val default_config : config

type t

val create : config -> t

(** A branch not in the table is low confidence (it has not yet proven
    itself predictable). *)
val is_high_confidence : t -> pc:int -> history:int -> bool

(** [train t ~pc ~history ~correct] updates the resetting counter,
    inserting the entry on first sight. *)
val train : t -> pc:int -> history:int -> correct:bool -> unit

(** Independent deep copy (for sampled-simulation checkpoints). *)
val copy : t -> t
