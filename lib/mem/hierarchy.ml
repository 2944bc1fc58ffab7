(** The paper's memory hierarchy (Table 2): split 64KB 4-way 2-cycle L1
    instruction and data caches, a unified 1MB 8-way 6-cycle L2, and a
    300-cycle-minimum main memory behind 32 banks.

    Timing model: each access returns a completion latency. Bank conflicts
    are approximated by a per-bank busy-until time at the memory level; the
    bus is folded into the fixed memory latency (documented simplification
    in EXPERIMENTS.md). *)

type config = {
  l1i : Cache.config;
  l1d : Cache.config;
  l2 : Cache.config;
  memory_latency : int;
  memory_banks : int;
  bank_busy : int; (* cycles a bank stays busy per request *)
}

let default_config =
  {
    l1i = { Cache.size_bytes = 64 * 1024; ways = 4; line_bytes = 64; latency = 2 };
    l1d = { Cache.size_bytes = 64 * 1024; ways = 4; line_bytes = 64; latency = 2 };
    l2 = { Cache.size_bytes = 1024 * 1024; ways = 8; line_bytes = 64; latency = 6 };
    memory_latency = 300;
    memory_banks = 32;
    bank_busy = 16;
  }

type t = {
  config : config;
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  bank_free_at : int array;
}

let create config =
  {
    config;
    l1i = Cache.create config.l1i;
    l1d = Cache.create config.l1d;
    l2 = Cache.create config.l2;
    bank_free_at = Array.make config.memory_banks 0;
  }

let memory_latency t ~now ~byte_addr =
  let bank = (byte_addr lsr 6) mod t.config.memory_banks in
  let start = Int.max now t.bank_free_at.(bank) in
  t.bank_free_at.(bank) <- start + t.config.bank_busy;
  (start - now) + t.config.memory_latency

(** [access_data t ~now ~byte_addr] returns the load-to-use latency of a
    data access starting at cycle [now]. *)
let access_data t ~now ~byte_addr =
  if Cache.access t.l1d ~byte_addr then Cache.latency t.l1d
  else if Cache.access t.l2 ~byte_addr then Cache.latency t.l1d + Cache.latency t.l2
  else
    Cache.latency t.l1d + Cache.latency t.l2 + memory_latency t ~now ~byte_addr

(** [access_inst t ~now ~byte_addr] returns the fetch latency of an
    instruction line. A hit costs the pipelined L1I latency, which the
    front-end depth already covers, so it reports 0 extra stall. *)
let access_inst t ~now ~byte_addr =
  if Cache.access t.l1i ~byte_addr then 0
  else if Cache.access t.l2 ~byte_addr then Cache.latency t.l2
  else Cache.latency t.l2 + memory_latency t ~now ~byte_addr

(** Timing-free warming accesses: identical tag/LRU movement and hit/miss
    accounting to [access_data]/[access_inst], with the bank busy-until
    model left untouched (no [now] exists while warming — the whole point
    is not to compute one). *)
let warm_data t ~byte_addr =
  if not (Cache.access t.l1d ~byte_addr) then ignore (Cache.access t.l2 ~byte_addr)

let warm_inst t ~byte_addr =
  if not (Cache.access t.l1i ~byte_addr) then ignore (Cache.access t.l2 ~byte_addr)

let resident t ~byte_addr =
  (Cache.probe t.l1i ~byte_addr, Cache.probe t.l1d ~byte_addr, Cache.probe t.l2 ~byte_addr)

let copy t =
  {
    t with
    l1i = Cache.copy t.l1i;
    l1d = Cache.copy t.l1d;
    l2 = Cache.copy t.l2;
    bank_free_at = Array.copy t.bank_free_at;
  }

type stats = {
  l1i_accesses : int;
  l1i_misses : int;
  l1d_accesses : int;
  l1d_misses : int;
  l2_accesses : int;
  l2_misses : int;
}

let stats t =
  {
    l1i_accesses = Cache.accesses t.l1i;
    l1i_misses = Cache.misses t.l1i;
    l1d_accesses = Cache.accesses t.l1d;
    l1d_misses = Cache.misses t.l1d;
    l2_accesses = Cache.accesses t.l2;
    l2_misses = Cache.misses t.l2;
  }
