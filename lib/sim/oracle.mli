(** The oracle: a cursor over the emulator's predicate-through trace that
    directs correct-path fetch.

    Matching rule: the fetched PC must equal the trace entry at the
    cursor, possibly after skipping entries a predicted-taken wish branch
    legally jumps over — architectural NOPs (guard false) and
    compiler-marked speculated instructions. A failure to match means the
    front end has left the correct path. *)

type t

val create : Wish_isa.Code.t -> Wish_emu.Trace.t -> t

(** The longest skippable run one scan may cross — equivalently, how far
    past the current cursor a single {!consume_into} can touch the trace (the
    sampled coordinator's read-ahead margin builds on this). *)
val default_skip_limit : int

val cursor : t -> int

(** [restore t c] rewinds the cursor at misprediction recovery. *)
val restore : t -> int -> unit

(** Trace entries generated so far (total length once the stream ends). *)
val length : t -> int

(** [release t ~below] — retirement-time progress: no restore or scan
    will ever revisit entries below [below], so a streaming trace may
    recycle the chunks they occupy. No-op on materialized traces. *)
val release : t -> below:int -> unit

(** Caller-owned mutable entry for the match path. *)
type ebuf = {
  mutable b_index : int;
  mutable b_guard_true : bool;
  mutable b_taken : bool;
  mutable b_next_pc : int;
  mutable b_addr : int;
}

val fresh_ebuf : unit -> ebuf

(** [consume_into t ~pc e] tries to match [pc] against the trace,
    advancing the cursor past the matched entry and filling [e] on a
    match ([true]); [false] (no state change) means divergence. Allocates
    nothing. *)
val consume_into : t -> pc:int -> ebuf -> bool
