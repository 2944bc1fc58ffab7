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

(** [probe t ~byte_addr] checks residency without side effects. *)
val probe : t -> byte_addr:int -> bool

(** Independent deep copy: tag state and counters fork, the shared config
    does not (it is immutable). *)
val copy : t -> t

val latency : t -> int
val accesses : t -> int
val misses : t -> int
val miss_rate : t -> float
