(** PAs two-level predictor [Yeh & Patt 1992]: per-address branch history
    registers indexing a set of pattern history tables.

    Local histories are updated speculatively at fetch; the old history is
    returned so the core can restore it when squashing.

    The PHT is a byte per 2-bit counter (see {!Gshare}): an eighth of the
    footprint, and checkpoint copies are one [Bytes.copy]. The BHT stays a
    word array — it holds history strings, not saturating counters. *)

type t = {
  bht : int array; (* per-address local history registers *)
  pht : Bytes.t; (* pattern history table of 2-bit counters, byte each *)
  bht_bits : int; (* log2 number of history registers *)
  hist_bits : int; (* local history length *)
  pht_bits : int; (* log2 PHT entries *)
}

let create ~bht_bits ~hist_bits ~pht_bits =
  assert (bht_bits > 0 && hist_bits > 0 && pht_bits > 0);
  assert (hist_bits <= pht_bits);
  {
    bht = Array.make (1 lsl bht_bits) 0;
    pht = Bytes.make (1 lsl pht_bits) '\002';
    bht_bits;
    hist_bits;
    pht_bits;
  }

let bht_index t ~pc = pc land ((1 lsl t.bht_bits) - 1)

(* Concatenate local history with low PC bits to fill the PHT index; this is
   the "per-address history, shared pattern tables" organization. *)
let pht_index t ~pc ~local =
  let hist = local land ((1 lsl t.hist_bits) - 1) in
  let pc_part = pc lsl t.hist_bits in
  (hist lor pc_part) land ((1 lsl t.pht_bits) - 1)

let local_history t ~pc = t.bht.(bht_index t ~pc)

(* The index is computed once and the direction read from it. *)
let predict_index t ~pc = pht_index t ~pc ~local:(local_history t ~pc)
let taken_at t idx = Bytes.unsafe_get t.pht idx >= '\002'

(** [spec_update t ~pc ~taken] shifts the predicted direction into the local
    history and returns the previous history for squash repair. *)
let spec_update t ~pc ~taken =
  let bi = bht_index t ~pc in
  let old = t.bht.(bi) in
  t.bht.(bi) <- ((old lsl 1) lor if taken then 1 else 0) land ((1 lsl t.hist_bits) - 1);
  old

let restore t ~pc ~old = t.bht.(bht_index t ~pc) <- old

let train_at t idx ~taken =
  let c = Char.code (Bytes.unsafe_get t.pht idx) in
  Bytes.unsafe_set t.pht idx
    (Char.unsafe_chr (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1)))

let copy t = { t with bht = Array.copy t.bht; pht = Bytes.copy t.pht }
