(** A single set-associative cache level with LRU replacement. Timing-only:
    no data is stored, just tags and recency. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;  (** must be a power of two *)
  latency : int;  (** cycles on hit *)
}

type t

val create : config -> t

(** [access t ~byte_addr] probes the cache, allocating the line on a miss;
    returns whether it hit. *)
val access : t -> byte_addr:int -> bool

(** [set_tag t ~byte_addr] resolves the set/tag pair for an address at
    plan time, for use with {!access_at}. *)
val set_tag : t -> byte_addr:int -> int * int

(** [access_at t ~set ~tag] is {!access} on a pre-resolved set/tag pair:
    same hit/miss accounting and LRU movement, no address arithmetic. *)
val access_at : t -> set:int -> tag:int -> bool

(** [probe t ~byte_addr] checks residency without side effects. *)
val probe : t -> byte_addr:int -> bool

(** Independent deep copy: tag state and counters fork, the shared config
    does not (it is immutable). *)
val copy : t -> t

val latency : t -> int
val accesses : t -> int
val misses : t -> int
val miss_rate : t -> float
