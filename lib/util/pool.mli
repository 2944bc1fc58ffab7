(** Fixed-size supervised domain worker pool (OCaml 5 [Domain] +
    [Mutex] + [Condition], no dependencies).

    A pool of size above 1 owns [size] worker domains pulling tasks
    from a shared queue; {!map} fans a list of independent jobs across
    them, sleeping on the calling domain until they finish, and returns
    the results in submission order, so callers see deterministic output
    regardless of scheduling. A pool of size 1 spawns no domains and
    degenerates to [List.map] on the calling domain.

    The pool is {e supervised}: a worker domain that dies after claiming
    a task (the [pool.worker] faultpoint simulates this in chaos tests)
    pushes the task back on the queue before exiting, and the
    coordinator joins and respawns the dead worker — {!map} still
    returns every result, in order, and capacity never decays.
    {!respawns} counts the replacements.

    Intended use: embarrassingly parallel compile/trace/simulate sweeps.
    {!map} is meant to be called from one coordinating domain at a time;
    jobs themselves must not call back into the pool. *)

type t

(** Parse a [--jobs] argument, the rule every driver shares: ["auto"]
    is [Domain.recommended_domain_count ()] (the coordinating domain
    sleeps while the workers run), an integer is clamped to [>= 1], and
    anything else is an [Error]. *)
val jobs_of_string : string -> (int, string) result

(** [create ~size ()] — spawn the workers. [size] is clamped to [>= 1]. *)
val create : size:int -> unit -> t

val size : t -> int

(** Worker domains respawned after an (injected) mid-task death. *)
val respawns : t -> int

(** [map t f xs] — run [f] over every element of [xs] on the pool and
    return the results in submission (list) order.

    A job raising an exception does not wedge the pool or abandon the
    other jobs: every job still runs to completion, and the first
    exception (in submission order) is re-raised afterwards. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [shutdown t] — drain and join the workers. Idempotent; after
    shutdown, {!map} falls back to the calling domain. *)
val shutdown : t -> unit
