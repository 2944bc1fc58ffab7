(** Branch target buffer: set-associative, LRU, tagged by PC.

    The BTB is a presence filter: a taken branch that misses it pays the
    fetch bubble. The paper's entry also holds the target and the wish
    kind (Section 3.5.1), but the timing core takes those from decode,
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

(** [hit t ~pc] — presence, refreshing the entry's LRU recency on a hit. *)
let hit t ~pc = Wish_util.Lru.hit t.table ~set:(set_of t pc) ~tag:(tag_of t pc)

let copy t = { t with table = Wish_util.Lru.copy t.table }
