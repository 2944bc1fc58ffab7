(** Gshare direction predictor [McFarling 1993]: a pattern history table of
    2-bit counters indexed by PC xor global history.

    The global history register is owned by {!Hybrid} so that all global
    components see one coherent, speculatively-updated history; gshare
    itself is a pure table. *)

type t

val create : index_bits:int -> t
val index : t -> pc:int -> history:int -> int
val predict_at : t -> int -> bool
val train_at : t -> int -> taken:bool -> unit

(** Independent deep copy (for sampled-simulation checkpoints). *)
val copy : t -> t
