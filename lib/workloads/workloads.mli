(** The nine benchmarks of the paper's Table 4 subset. *)

(** [all ~scale] instantiates every workload; [scale] multiplies the
    dynamic instruction count (1 ≈ 10^5-10^6 instructions). *)
val all : scale:int -> Bench.t list

(** In the paper's order: gzip, vpr, mcf, crafty, parser, gap, vortex,
    bzip2, twolf. *)
val names : string list

(** [check ~scale name] — raises [Invalid_argument] with a one-line
    diagnostic unless [name] is a workload and [scale] is at least 1.
    Builds nothing. *)
val check : scale:int -> string -> unit

(** [find ~scale name] — the workload, built once per (name, scale);
    raises like {!check}. *)
val find : scale:int -> string -> Bench.t
