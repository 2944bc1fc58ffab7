(** Set-associative LRU arrays, shared by caches, the BTB and the tagged
    JRS confidence estimator.

    A structure holds [sets] sets of [ways] entries. Each entry stores a tag
    and a user payload; recency is tracked with a per-entry stamp.

    Layout is structure-of-arrays: tags, stamps, validity bits and payloads
    live in flat row-major arrays indexed by [set * ways + way]. Sampled
    simulation checkpoints these structures once per detailed window, so
    {!copy} has to be a handful of block copies, not one record allocation
    per entry — on a megabyte-class L2 that is the difference between
    microseconds and milliseconds per checkpoint. *)

type 'a t = {
  sets : int;
  smask : int; (* sets - 1 when sets is a power of two, else -1 *)
  ways : int;
  tags : int array; (* [set * ways + way] *)
  stamps : int array;
  valids : Bytes.t; (* '\001' when the slot holds a live entry *)
  payloads : 'a array;
  mutable clock : int;
  default : unit -> 'a;
}

let create ~sets ~ways ~default =
  assert (sets > 0 && ways > 0);
  let n = sets * ways in
  {
    sets;
    smask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    ways;
    tags = Array.make n 0;
    stamps = Array.make n 0;
    valids = Bytes.make n '\000';
    payloads = Array.init n (fun _ -> default ());
    clock = 0;
    default;
  }

(* Set-index reduction: a masked AND when the set count is a power of two
   (every production configuration), an integer division otherwise.
   Identical results for the non-negative indices callers pass. *)
let base t set = (if t.smask >= 0 then set land t.smask else set mod t.sets) * t.ways

let sets t = t.sets
let ways t = t.ways
let valid_at t i = Bytes.unsafe_get t.valids i <> '\000'

let touch t i =
  t.clock <- t.clock + 1;
  Array.unsafe_set t.stamps i t.clock

(* Way scan as a top-level recursion (not a per-call closure): returns the
   flat index of the matching slot or -1. *)
let rec scan_way t tag stop i =
  if i >= stop then -1
  else if valid_at t i && Array.unsafe_get t.tags i = tag then i
  else scan_way t tag stop (i + 1)

let slot_of t ~set ~tag =
  let b = base t set in
  scan_way t tag (b + t.ways) b

(** [hit t ~set ~tag] reports presence and refreshes recency on a hit. *)
let hit t ~set ~tag =
  let i = slot_of t ~set ~tag in
  i >= 0
  && begin
       touch t i;
       true
     end

(** [find_default t ~set ~tag ~default] — the payload on a hit
    (refreshing recency), [default] on a miss. *)
let find_default t ~set ~tag ~default =
  let i = slot_of t ~set ~tag in
  if i < 0 then default
  else begin
    touch t i;
    Array.unsafe_get t.payloads i
  end

(** [mem t ~set ~tag] checks presence without updating recency. *)
let mem t ~set ~tag = slot_of t ~set ~tag >= 0

(** [update t ~set ~tag ~f] applies [f] to the payload on hit (refreshing
    recency); returns whether the entry was present. *)
let update t ~set ~tag ~f =
  let i = slot_of t ~set ~tag in
  if i < 0 then false
  else begin
    touch t i;
    t.payloads.(i) <- f t.payloads.(i);
    true
  end

(* Backward way scan: flat index of the last way matching [tag] (an insert
   refreshing an existing tag keeps the last match), or -1. *)
let rec last_match_way t tag b i =
  if i < b then -1
  else if valid_at t i && Array.unsafe_get t.tags i = tag then i
  else last_match_way t tag b (i - 1)

(* Victim selection, scanning in way order with the running victim as the
   comparand: prefer an invalid way, else the lowest stamp. *)
let rec victim_way t stop vi i =
  if i >= stop then vi
  else
    let vi =
      if (not (valid_at t i)) && valid_at t vi then i
      else if valid_at t i = valid_at t vi && Array.unsafe_get t.stamps i < Array.unsafe_get t.stamps vi
      then i
      else vi
    in
    victim_way t stop vi (i + 1)

let fill_slot t i ~tag payload =
  t.tags.(i) <- tag;
  Bytes.unsafe_set t.valids i '\001';
  t.payloads.(i) <- payload;
  touch t i

(** [insert_quiet t ~set ~tag payload] inserts, evicting the LRU way if
    needed; inserting a present tag refreshes it and replaces its
    payload. Allocation-free. *)
let insert_quiet t ~set ~tag payload =
  let b = base t set in
  let i = last_match_way t tag b (b + t.ways - 1) in
  if i >= 0 then begin
    touch t i;
    t.payloads.(i) <- payload
  end
  else fill_slot t (victim_way t (b + t.ways) b (b + 1)) ~tag payload

let clear t =
  Bytes.fill t.valids 0 (Bytes.length t.valids) '\000';
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  for i = 0 to Array.length t.payloads - 1 do
    t.payloads.(i) <- t.default ()
  done;
  t.clock <- 0

(** [copy t] — an independent structure with the same contents. Payloads
    are shared (every client stores immutable payloads), but tags, recency
    and validity evolve independently afterwards. Note [t] holds the
    [default] closure, so a [Marshal] round-trip cannot substitute for
    this. *)
let copy t =
  {
    t with
    tags = Array.copy t.tags;
    stamps = Array.copy t.stamps;
    valids = Bytes.copy t.valids;
    payloads = Array.copy t.payloads;
  }

(* ----------------------------------------------------------------- *)
(* Slot-level access                                                   *)
(* ----------------------------------------------------------------- *)

(** [find_slot t ~set ~tag] — the slot handle of the matching entry, or
    [-1] on a miss, with no recency update. Slot handles stay valid until
    the entry is evicted or cleared; fused hot paths use them to
    probe once and then apply several recency/payload steps to the same
    entry without rescanning the ways. *)
let find_slot t ~set ~tag = slot_of t ~set ~tag

(** [touch_slot t slot] — exactly one recency refresh (one clock bump) on
    a slot returned by {!find_slot}. *)
let touch_slot t slot = touch t slot

(** [slot_matches t slot ~tag] — does [slot] still hold a valid entry
    with [tag]? Re-validates a cached handle from {!find_slot} in two
    loads instead of a way scan (tags are unique within a set, so a
    matching slot is THE entry for that set/tag). *)
let slot_matches t slot ~tag = valid_at t slot && Array.unsafe_get t.tags slot = tag

(** [slot_payload t slot] reads the payload of a slot from {!find_slot}. *)
let slot_payload t slot = Array.unsafe_get t.payloads slot

(** [set_slot_payload t slot p] writes a slot's payload (no recency
    change — pair with {!touch_slot} to mirror {!update}). *)
let set_slot_payload t slot p = Array.unsafe_set t.payloads slot p
