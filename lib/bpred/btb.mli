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

(** [index t ~pc] — the set/tag pair for [pc], for {!insert_cached}. *)
val index : t -> pc:int -> int * int

(** [insert_cached t ~set ~tag ~slot] — {!insert} with the index
    pre-resolved, through a cached slot handle ([!slot], [-1] when
    unknown): a handle still holding this tag is refreshed in place
    without a way scan; otherwise the full insert runs and the handle is
    re-resolved. Identical mutations. *)
val insert_cached : t -> set:int -> tag:int -> slot:int ref -> unit

(** [reset t] restores the exact just-created state in place. *)
val reset : t -> unit

(** Independent deep copy (for sampled-simulation checkpoints). *)
val copy : t -> t
