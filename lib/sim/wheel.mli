(** A calendar wheel of completion events, each an int id (a µop id; the
    caller resolves it).

    One bucket per future cycle, indexed by [due land (horizon - 1)].
    Events due beyond the horizon go to an overflow table indexed by
    rotation number [due / horizon]; the wheel sweeps exactly one
    rotation's bucket back into the slots each time a rotation starts —
    O(events maturing), not O(all far events) as a linear overflow list
    would be. Draining delivers events in ascending-id order. *)

type t

(** [create ~horizon] — [horizon] must be a positive power of two. *)
val create : horizon:int -> t

val horizon : t -> int

(** [schedule t ~now ~due ~id] — [due] must be > [now]. *)
val schedule : t -> now:int -> due:int -> id:int -> unit

(** [drain t ~now ~f] calls [f id] for every event due at [now] in
    ascending id order and empties the bucket. [f] may schedule further
    events (all due later than [now]). Must be called with consecutive
    [now] values — rotation sweeps happen as [now] crosses multiples of
    the horizon. *)
val drain : t -> now:int -> f:(int -> unit) -> unit

(** [clear t] drops every pending event (pooled reuse across runs). *)
val clear : t -> unit
