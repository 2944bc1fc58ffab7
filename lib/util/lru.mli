(** Set-associative LRU arrays, shared by caches, the BTB and the tagged
    JRS confidence estimator.

    A structure holds [sets] sets of [ways] entries; each entry stores a
    tag and a user payload, with recency tracked per entry. *)

type 'a t

(** [create ~sets ~ways ~default] — [default] produces the payload for
    invalid entries. *)
val create : sets:int -> ways:int -> default:(unit -> 'a) -> 'a t

(** [hit t ~set ~tag] reports presence and refreshes the entry's recency
    on a hit. [set] is reduced modulo the set count. *)
val hit : 'a t -> set:int -> tag:int -> bool

(** [find_default t ~set ~tag ~default] — the payload on a hit
    (refreshing recency), [default] on a miss. *)
val find_default : 'a t -> set:int -> tag:int -> default:'a -> 'a

(** [mem t ~set ~tag] checks presence without touching recency. *)
val mem : 'a t -> set:int -> tag:int -> bool

(** [update t ~set ~tag ~f] applies [f] to the payload on hit (refreshing
    recency); returns whether the entry was present. *)
val update : 'a t -> set:int -> tag:int -> f:('a -> 'a) -> bool

(** [insert_quiet t ~set ~tag payload] inserts, evicting the set's LRU
    way (an invalid way first) if needed; inserting a present tag
    refreshes it and replaces its payload without eviction. *)
val insert_quiet : 'a t -> set:int -> tag:int -> 'a -> unit

(** [copy t] — an independent structure with the same contents; payloads
    are shared, so they should be immutable. *)
val copy : 'a t -> 'a t
