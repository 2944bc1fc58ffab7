(** Set-associative LRU arrays, shared by caches, the BTB and the tagged
    JRS confidence estimator.

    A structure holds [sets] sets of [ways] entries; each entry stores a
    tag and a user payload, with recency tracked per entry. *)

type 'a t

(** [create ~sets ~ways ~default] — [default] produces the payload for
    invalid entries. *)
val create : sets:int -> ways:int -> default:(unit -> 'a) -> 'a t

val sets : 'a t -> int
val ways : 'a t -> int

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

(** [clear t] restores the just-created state: no valid entry, recency
    clock at zero. *)
val clear : 'a t -> unit

(** [copy t] — an independent structure with the same contents; payloads
    are shared, so they should be immutable. (The structure embeds a
    closure, so marshalling cannot substitute for this.) *)
val copy : 'a t -> 'a t

(** {1 Slot-level access}

    For fused warming paths that probe an entry and then apply several
    recency/payload steps to it without rescanning the ways. A slot
    handle from {!find_slot} stays valid until that entry is evicted or
    cleared. *)

(** [find_slot t ~set ~tag] — the matching entry's slot handle, or [-1]
    on a miss; no recency update. *)
val find_slot : 'a t -> set:int -> tag:int -> int

(** [touch_slot t slot] — exactly one recency refresh (the same clock
    bump {!hit} or {!update} would apply). *)
val touch_slot : 'a t -> int -> unit

(** [slot_matches t slot ~tag] — does [slot] still hold a valid entry
    with [tag]? Re-validates a cached handle in two loads instead of a
    way scan (tags are unique within a set). *)
val slot_matches : 'a t -> int -> tag:int -> bool

val slot_payload : 'a t -> int -> 'a

(** [set_slot_payload t slot p] — payload write with no recency change
    (pair with {!touch_slot} to mirror {!update}). *)
val set_slot_payload : 'a t -> int -> 'a -> unit
