(** The paper's memory hierarchy (Table 2): split 64KB 4-way 2-cycle L1
    instruction and data caches, a unified 1MB 8-way 6-cycle L2, and a
    300-cycle-minimum main memory behind 32 banks.

    Each access returns a completion latency. Bank conflicts are
    approximated with per-bank busy-until times; the bus is folded into
    the fixed memory latency (documented simplification). *)

type config = {
  l1i : Cache.config;
  l1d : Cache.config;
  l2 : Cache.config;
  memory_latency : int;
  memory_banks : int;
  bank_busy : int;  (** cycles a bank stays busy per request *)
}

val default_config : config

type t

val create : config -> t

(** [access_data t ~now ~byte_addr] — load-to-use latency of a data access
    starting at cycle [now]. *)
val access_data : t -> now:int -> byte_addr:int -> int

(** [access_inst t ~now ~byte_addr] — extra fetch stall for an instruction
    line; an L1I hit reports 0 (its pipelined latency is part of the
    front-end depth). *)
val access_inst : t -> now:int -> byte_addr:int -> int

(** Timing-free functional-warming accesses: same tag/LRU movement and
    hit/miss accounting as [access_data]/[access_inst], no bank timing. *)
val warm_data : t -> byte_addr:int -> unit

val warm_inst : t -> byte_addr:int -> unit

(** [resident t ~byte_addr] — whether the line holding [byte_addr] is in
    the L1I, the L1D and the L2, with no side effect ({!Cache.probe}). *)
val resident : t -> byte_addr:int -> bool * bool * bool

(** Independent deep copy (for sampled-simulation checkpoints). *)
val copy : t -> t

type stats = {
  l1i_accesses : int;
  l1i_misses : int;
  l1d_accesses : int;
  l1d_misses : int;
  l2_accesses : int;
  l2_misses : int;
}

val stats : t -> stats
