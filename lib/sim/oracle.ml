(** The oracle: a cursor over the emulator's predicate-through trace that
    directs correct-path fetch.

    Matching rule: the fetched PC must equal the trace entry at the cursor,
    possibly after skipping entries whose guard is FALSE (architectural
    NOPs — exactly the instructions a predicted-taken wish jump/join legally
    jumps over). A failure to match means the front end has left the
    correct path.

    The trace may be streaming: the cursor pulls it forward ({!Trace.ensure})
    as it scans, and {!release} hands retirement-time progress back so the
    trace can recycle chunks the pipeline can no longer reach, even through
    a misprediction-recovery {!restore}. *)

open Wish_emu

type t = {
  code : Wish_isa.Code.t;
  trace : Trace.t;
  mutable cursor : int;
  skip_limit : int; (* longest skippable run a single skip may cross *)
}

(* Also the sampled coordinator's read-ahead margin unit: how far past a
   stop index one oracle scan can touch the trace. *)
let default_skip_limit = 4096

let create code trace = { code; trace; cursor = 0; skip_limit = default_skip_limit }

let cursor t = t.cursor
let restore t c = t.cursor <- c
let length t = Trace.length t.trace

(* Skippable entries: architectural NOPs (guard false) and compiler-marked
   speculated computations whose destinations are dead outside the
   predicated region being jumped over. *)
let skippable t i =
  (not (Trace.guard_true t.trace i))
  || (Wish_isa.Code.get t.code (Trace.pc t.trace i)).Wish_isa.Inst.spec

(** Caller-owned mutable entry for the match path. *)
type ebuf = {
  mutable b_index : int;
  mutable b_guard_true : bool;
  mutable b_taken : bool;
  mutable b_next_pc : int;
  mutable b_addr : int;
}

let fresh_ebuf () =
  { b_index = 0; b_guard_true = false; b_taken = false; b_next_pc = 0; b_addr = 0 }

(** [consume_into t ~pc e] tries to match [pc] against the trace: on a
    match it advances the cursor past the matched entry, fills [e] and
    returns [true]. The scan is a top-level recursion (not a local
    closure) so a miss-free consume allocates nothing, and each entry is
    decoded from one packed-word read ({!Trace.word}) instead of one
    directory walk per field. Escaped entries (fields overflowed the
    packed format) take the slow single-field accessors. *)
let rec scan_into t ~pc (e : ebuf) ~stop i =
  if i >= stop || not (Trace.ensure t.trace i) then false
  else begin
    let w = Trace.word t.trace i in
    if Trace.w_escaped w then scan_wide t ~pc e ~stop i
    else if Trace.w_pc w = pc then begin
      t.cursor <- i + 1;
      e.b_index <- i;
      e.b_guard_true <- Trace.w_guard_true w;
      e.b_taken <- Trace.w_taken w;
      e.b_next_pc <- Trace.w_next_pc w;
      e.b_addr <- Trace.w_addr w;
      true
    end
    else if
      (not (Trace.w_guard_true w))
      || (Wish_isa.Code.get t.code (Trace.w_pc w)).Wish_isa.Inst.spec
    then scan_into t ~pc e ~stop (i + 1)
    else false
  end

and scan_wide t ~pc (e : ebuf) ~stop i =
  if Trace.pc t.trace i = pc then begin
    t.cursor <- i + 1;
    e.b_index <- i;
    e.b_guard_true <- Trace.guard_true t.trace i;
    e.b_taken <- Trace.taken t.trace i;
    e.b_next_pc <- Trace.next_pc t.trace i;
    e.b_addr <- Trace.addr t.trace i;
    true
  end
  else if skippable t i then scan_into t ~pc e ~stop (i + 1)
  else false

let consume_into t ~pc (e : ebuf) =
  scan_into t ~pc e ~stop:(t.cursor + t.skip_limit) t.cursor

(** [release t ~below] — retirement-time progress report: no restore or
    scan will ever revisit entries below [below] (see the retirement
    argument in [Compiled.retire_stage]), so a streaming trace may
    recycle them. *)
let release t ~below = Trace.release t.trace below
