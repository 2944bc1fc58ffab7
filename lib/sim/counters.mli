(** The timing core's event counters: one [int array], one slot per
    counter.

    Every counter is declared once, below, as an index constant and the
    name {!pp} prints it under. A counter that is not declared here does
    not exist, so a misspelt one fails to compile instead of reading 0. *)

type t

(** A counter's index. *)
type id

(** {1 Front end} *)

val fetched_uops : id
val nops_eliminated : id
val icache_stalls : id
val divergences : id
val btb_misses : id
val nofetch_dropped : id
val phantom_entries : id

(** {1 Back end} *)

val renamed_uops : id
val issued_uops : id
val load_latency_total : id
val load_count : id

(** {1 Retirement} *)

val retired_uops : id
val retired_correct : id
val retired_guard_false : id
val retired_phantom : id
val cond_branches_retired : id
val mispredicts_retired : id
val mispredicts_resolved : id
val flushes : id
val flush_delay_total : id

(** {1 Wish branches}

    Every retired wish branch counts in [wish_retired] and in one of the
    four confidence × prediction classes of Figure 11; a wish loop also
    counts in [wish_loop_retired] and in one of the six classes of
    Figure 13. *)

val wish_retired : id
val wish_loop_retired : id
val wish_high_correct : id
val wish_high_mispred : id
val wish_low_correct : id
val wish_low_mispred : id
val loop_high_correct : id
val loop_high_mispred : id
val loop_low_early : id
val loop_low_late : id
val loop_low_noexit : id
val loop_low_correct : id

(** Every counter, in index order. *)
val all : id list

val name : id -> string

(** All counters at zero. *)
val create : unit -> t

val copy : t -> t
val get : t -> id -> int
val incr : t -> id -> unit
val add : t -> id -> int -> unit

(** [diff a b] — a fresh [a - b], counter by counter. *)
val diff : t -> t -> t

(** Counter-by-counter sum; all zeros for [[]]. *)
val sum : t list -> t

(** [scale t ~num ~den] — each counter times [num / den], rounded to the
    nearest integer; all zeros when [den] is 0. *)
val scale : t -> num:int -> den:int -> t

(** One [name value] line per counter, in index order. *)
val pp : Format.formatter -> t -> unit
