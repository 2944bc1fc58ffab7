(** A single set-associative cache level with LRU replacement. Timing-only:
    no data is stored, just tags and recency. *)

type config = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  latency : int; (* cycles on hit *)
}

type t = {
  config : config;
  lines : unit Wish_util.Lru.t;
  mutable accesses : int;
  mutable misses : int;
  line_shift : int;
  sets : int;
  set_bits : int; (* log2 sets when sets is a power of two, else -1 *)
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create config =
  let lines_total = config.size_bytes / config.line_bytes in
  assert (lines_total mod config.ways = 0);
  let sets = lines_total / config.ways in
  assert (sets > 0 && config.line_bytes land (config.line_bytes - 1) = 0);
  {
    config;
    lines = Wish_util.Lru.create ~sets ~ways:config.ways ~default:(fun () -> ());
    accesses = 0;
    misses = 0;
    line_shift = log2 config.line_bytes;
    sets;
    set_bits = (if sets land (sets - 1) = 0 then log2 sets else -1);
  }

let line_addr t byte_addr = byte_addr lsr t.line_shift

(* Shift/mask when [sets] is a power of two (all production configs),
   division otherwise — identical results for the non-negative line
   addresses in play, without two integer divides per access. *)
let set_of t la = if t.set_bits >= 0 then la land (t.sets - 1) else la mod t.sets
let tag_of t la = if t.set_bits >= 0 then la lsr t.set_bits else la / t.sets

(** [access t ~byte_addr] probes the cache, allocating the line on a miss.
    Returns whether it hit. *)
let access t ~byte_addr =
  let la = line_addr t byte_addr in
  let set = set_of t la and tag = tag_of t la in
  t.accesses <- t.accesses + 1;
  if Wish_util.Lru.hit t.lines ~set ~tag then true
  else begin
    t.misses <- t.misses + 1;
    Wish_util.Lru.insert_quiet t.lines ~set ~tag ();
    false
  end

(** [probe t ~byte_addr] checks residency without side effects. *)
let probe t ~byte_addr =
  let la = line_addr t byte_addr in
  Wish_util.Lru.mem t.lines ~set:(set_of t la) ~tag:(tag_of t la)

let copy t = { t with lines = Wish_util.Lru.copy t.lines }

let latency t = t.config.latency
let accesses t = t.accesses
let misses t = t.misses
let miss_rate t = if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses
