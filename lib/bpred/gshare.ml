(** Gshare direction predictor [McFarling 1993]: a pattern history table of
    2-bit counters indexed by PC xor global history.

    The global history register is owned by {!Hybrid} so that all global
    components (gshare, selector, confidence index) see one coherent,
    speculatively-updated history; gshare itself is a pure table.

    The PHT is a byte per counter (values 0–3), not a word: a 64K-entry
    table is 64 KiB instead of 512 KiB, so warming's scattered updates
    stay far closer to the hardware caches and a sampled-simulation
    checkpoint copies the whole table with one [Bytes.copy]. *)

type t = { pht : Bytes.t; index_bits : int }

let weakly_taken = '\002'

let create ~index_bits =
  assert (index_bits > 0 && index_bits <= 24);
  { pht = Bytes.make (1 lsl index_bits) weakly_taken; index_bits }

let index t ~pc ~history = (pc lxor history) land ((1 lsl t.index_bits) - 1)

let predict_at t idx = Bytes.unsafe_get t.pht idx >= weakly_taken

let train_at t idx ~taken =
  let c = Char.code (Bytes.unsafe_get t.pht idx) in
  Bytes.unsafe_set t.pht idx
    (Char.unsafe_chr (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1)))

let copy t = { t with pht = Bytes.copy t.pht }
