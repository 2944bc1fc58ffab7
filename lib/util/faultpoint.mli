(** Deterministic fault injection for chaos testing.

    A {e faultpoint} is a named site in production code — a
    [Faultpoint.cut "cache.write.torn"] call — that does nothing in
    normal operation (one atomic load) and raises {!Injected} when a test
    or the [WISH_FAULTS] environment variable has {e armed} that site.
    Sites are registered once at module-initialization time so a chaos
    suite can enumerate every site that exists and prove each one is
    exercised.

    Arming is deterministic: a site armed with [~times:n] fires on its
    first [n] triggered cuts; adding [~percent] gates each cut through a
    seeded {!Rng}, so the fire pattern is a pure function of the seed and
    the cut sequence. All state is guarded by one mutex and is safe to
    hit from any domain; the disarmed fast path is a single relaxed
    atomic read and never takes the lock. *)

(** Raised by {!cut} at an armed site. [hit] is the 1-based count of
    cuts observed at that site when it fired. *)
exception Injected of { site : string; hit : int }

(** [register site ~doc] — declare a site (idempotent). Production
    modules call this at init; {!registered} then lists every site in
    the build. Returns [site] so it can name the binding used at the
    cut. *)
val register : string -> doc:string -> string

(** All registered sites with their docstrings, sorted by name. *)
val registered : unit -> (string * string) list

(** [arm site ~times] — make the next [times] triggered cuts of [site]
    raise. [percent] (with [seed], default 1) makes each cut trigger
    with that probability from a deterministic stream instead of always.
    Re-arming a site replaces its previous plan and zeroes its
    counters. *)
val arm : ?seed:int -> ?percent:int -> string -> times:int -> unit

(** Disarm one site (its counters survive until {!reset}). *)
val disarm : string -> unit

(** Disarm every site and zero every counter. Tests should call this in
    a [Fun.protect] finalizer so a failing case cannot poison the next. *)
val reset : unit -> unit

(** True while at least one site is armed (the slow path is active). *)
val enabled : unit -> bool

(** [cut site] — the injection site. No-op unless [site] is armed and
    its plan triggers, in which case it raises {!Injected}. *)
val cut : string -> unit

(** [fires site] — like {!cut} but returns [true] instead of raising;
    for sites that inject something other than an exception (a torn
    write, a worker's death, a miscompile). *)
val fires : string -> bool

(** Cuts observed at [site] since the last {!reset}. Only counted while
    any site is armed (the disarmed fast path keeps no statistics). *)
val hits : string -> int

(** Faults actually raised (or {!fires} returning true) at [site] since
    the last {!reset}. *)
val injected : string -> int

(** [arm_from_env ()] — parse [WISH_FAULTS], a comma-separated list of
    [site:times] or [site:times:percent] specs (seeded by
    [WISH_FAULT_SEED], default 1), and arm accordingly. Unknown sites
    are armed anyway (registration may happen later); malformed specs
    raise [Invalid_argument]. No-op when the variable is unset/empty. *)
val arm_from_env : unit -> unit
