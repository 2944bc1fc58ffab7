(** Branch target buffer: set-associative, LRU, tagged by PC. A presence
    filter: it decides only whether a taken branch pays the fetch bubble.
    Targets and wish kinds come from decode, so entries hold no payload. *)

type t

(** [create ~entries ~ways] — [entries] must be a multiple of [ways]. *)
val create : entries:int -> ways:int -> t

(** [hit t ~pc] — presence, refreshing the entry's recency on a hit. *)
val hit : t -> pc:int -> bool

(** [insert t ~pc] — make [pc] present (the most recent in its set),
    evicting the set's LRU entry if needed. *)
val insert : t -> pc:int -> unit

(** Independent deep copy (for sampled-simulation checkpoints). *)
val copy : t -> t
