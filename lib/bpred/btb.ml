(** Branch target buffer: set-associative, LRU, tagged by PC.

    The BTB is a presence filter: a taken branch that misses it pays the
    fetch bubble. The paper's entry also holds the target and the wish
    kind (Section 3.5.1), but both timing cores take those from decode,
    so no entry stores a payload. *)

type t = { table : unit Wish_util.Lru.t; sets : int; set_bits : int }

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ~entries ~ways =
  assert (entries mod ways = 0);
  let sets = entries / ways in
  {
    table = Wish_util.Lru.create ~sets ~ways ~default:(fun () -> ());
    sets;
    set_bits = (if sets land (sets - 1) = 0 then log2 sets else -1);
  }

(* Shift/mask when [sets] is a power of two (identical results for
   non-negative PCs), division otherwise. *)
let set_of t pc = if t.set_bits >= 0 then pc land (t.sets - 1) else pc mod t.sets
let tag_of t pc = if t.set_bits >= 0 then pc lsr t.set_bits else pc / t.sets

let insert t ~pc = Wish_util.Lru.insert_quiet t.table ~set:(set_of t pc) ~tag:(tag_of t pc) ()

(** [index t ~pc] — the set/tag pair for [pc], resolved once at plan time
    for {!insert_cached}. *)
let index t ~pc = (set_of t pc, tag_of t pc)

(** [insert_cached t ~set ~tag ~slot] — {!insert} through a cached slot
    handle ([!slot], [-1] when unknown). A handle that still holds this
    tag gets the exact recency bump of {!insert}'s hit path, minus the
    way scan; otherwise the full insert runs and the handle is
    re-resolved. A hot static branch stays resident between
    retirements, so the scan is skipped almost always. *)
let insert_cached t ~set ~tag ~slot =
  let module L = Wish_util.Lru in
  let s = !slot in
  if s >= 0 && L.slot_matches t.table s ~tag then L.touch_slot t.table s
  else begin
    L.insert_quiet t.table ~set ~tag ();
    slot := L.find_slot t.table ~set ~tag
  end

(** [hit t ~pc] — presence, refreshing the entry's LRU recency on a hit. *)
let hit t ~pc = Wish_util.Lru.hit t.table ~set:(set_of t pc) ~tag:(tag_of t pc)

let copy t = { t with table = Wish_util.Lru.copy t.table }

(** [reset t] restores the exact just-created state in place. *)
let reset t = Wish_util.Lru.clear t.table
