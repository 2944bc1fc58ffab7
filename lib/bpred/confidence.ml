(** JRS confidence estimator [Jacobsen, Rotenberg & Smith, MICRO-29 1996],
    modified as in the paper: a small tagged 4-way table of resetting "miss
    distance counters" dedicated to wish branches (Table 2: "1KB, tagged
    (4-way), 16-bit history JRS estimator").

    Indexing xors the PC with the global branch history. A counter is
    incremented when the branch's prediction was correct and reset to zero
    on a misprediction; a prediction is estimated high-confidence when the
    counter is at or above the confidence threshold. *)

type config = {
  sets : int;
  ways : int;
  counter_bits : int;
  threshold : int; (* high confidence iff counter >= threshold *)
  history_bits : int;
}

(* The paper's estimator uses 16 bits of history; at SPEC scale (hundreds
   of millions of branches) that trains fine, but our kernels retire a few
   thousand instances per wish branch, so the default folds history into
   fewer classes (2^4) and uses a slightly lower confidence threshold to
   reach steady state within a run. The paper-exact parameters remain
   available via the record fields. *)
let default_config = { sets = 64; ways = 4; counter_bits = 4; threshold = 10; history_bits = 4 }

type t = {
  table : int Wish_util.Lru.t;
  config : config;
  set_bits : int;
  (* The two possible counter updates, allocated once here rather than as
     a fresh closure per [train] call (warming retires millions of wish
     branches; a per-call closure is the dominant allocation). *)
  f_correct : int -> int;
  f_wrong : int -> int;
}

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create config =
  assert (config.threshold <= (1 lsl config.counter_bits) - 1);
  let max_c = (1 lsl config.counter_bits) - 1 in
  {
    table = Wish_util.Lru.create ~sets:config.sets ~ways:config.ways ~default:(fun () -> 0);
    config;
    set_bits = (if config.sets land (config.sets - 1) = 0 then log2 config.sets else -1);
    f_correct = (fun c -> Int.min max_c (c + 1));
    f_wrong = (fun _ -> 0);
  }

(* The [history_bits] of global history are folded (xor-reduced) down to
   the set-index width before being combined with the PC, so a branch's
   history patterns map onto a handful of counters rather than one counter
   per distinct pattern; the tag identifies the PC (the "tagged" part of
   the design, avoiding cross-branch interference). Power-of-two set
   counts (every production config) fold with mask/shift instead of an
   integer division per step — same values for the non-negative inputs. *)
let rec fold_bits sets acc h =
  if h = 0 then acc else fold_bits sets (acc lxor (h mod sets)) (h / sets)

let rec fold_bits_pow2 mask bits acc h =
  if h = 0 then acc else fold_bits_pow2 mask bits (acc lxor (h land mask)) (h lsr bits)

let fold_history t history =
  let h = history land ((1 lsl t.config.history_bits) - 1) in
  if t.set_bits >= 0 then fold_bits_pow2 (t.config.sets - 1) t.set_bits 0 h
  else fold_bits t.config.sets 0 h

let set_of t ~pc ~history =
  let x = pc lxor fold_history t history in
  if t.set_bits >= 0 then x land (t.config.sets - 1) else x mod t.config.sets
let tag_of ~pc = pc

(** [is_high_confidence t ~pc ~history] — a missing entry is low confidence
    (the branch has not yet proven itself predictable). Allocation-free:
    a miss reads as counter [-1], below any threshold. *)
let is_high_confidence t ~pc ~history =
  Wish_util.Lru.find_default t.table ~set:(set_of t ~pc ~history) ~tag:(tag_of ~pc) ~default:(-1)
  >= t.config.threshold

(** [train t ~pc ~history ~correct] updates the resetting counter, inserting
    the entry on first sight. *)
let train t ~pc ~history ~correct =
  let set = set_of t ~pc ~history and tag = tag_of ~pc in
  let updated =
    Wish_util.Lru.update t.table ~set ~tag ~f:(if correct then t.f_correct else t.f_wrong)
  in
  if not updated then
    Wish_util.Lru.insert_quiet t.table ~set ~tag (if correct then 1 else 0)

let copy t = { t with table = Wish_util.Lru.copy t.table }
