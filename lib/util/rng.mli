(** Deterministic pseudo-random number generator (xorshift64-star).

    All randomness in the repository flows through this module so that
    workload generation, trace generation and simulation are bit-for-bit
    reproducible across runs and machines. *)

type t

(** [create seed] — equal seeds yield equal streams; seed 0 is remapped to
    a fixed non-zero constant (the all-zero state is a fixed point). *)
val create : int -> t

(** [next_int64 t] returns the raw 64-bit output and advances the state. *)
val next_int64 : t -> int64

(** [bits t] returns 30 uniformly distributed non-negative bits. *)
val bits : t -> int

(** [int t n] returns a uniform integer in [\[0, n)]. Requires [n > 0]. *)
val int : t -> int -> int

(** [bool t] returns a uniform boolean. *)
val bool : t -> bool

(** [chance t ~percent] is true with probability [percent]/100. *)
val chance : t -> percent:int -> bool

(** [range t lo hi] returns a uniform integer in [\[lo, hi\]]. *)
val range : t -> int -> int -> int

(** [geometric t ~stop_percent ~max] counts trials until a stop event with
    probability [stop_percent]/100 occurs, capped at [max]; result ≥ 1. *)
val geometric : t -> stop_percent:int -> max:int -> int

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [hash_int x] is a deterministic avalanche hash (non-negative), used to
    synthesize wrong-path memory addresses from PCs. *)
val hash_int : int -> int
