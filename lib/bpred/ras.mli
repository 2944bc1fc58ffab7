(** Return address stack: a fixed-size circular stack that silently
    overwrites on overflow, as real hardware does. The core checkpoints
    the top-of-stack pointer at each branch and restores it on squash
    (pointer repair only — overwritten entries stay corrupted, a standard
    and documented imperfection). *)

type t

val create : entries:int -> t
val capacity : t -> int
val push : t -> int -> unit

(** [pop t] predicts a return target; an empty stack predicts 0 (which
    will simply mispredict). *)
val pop : t -> int

val snapshot : t -> int
val restore : t -> int -> unit

(** Independent deep copy (for sampled-simulation checkpoints). *)
val copy : t -> t
