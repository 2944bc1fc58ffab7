(** Ablation studies for the design choices DESIGN.md calls out. These go
    beyond the paper's own evaluation: they isolate the contribution of
    individual mechanisms in this implementation. Each study is a
    {!Figures.artifact}: its cells and a renderer over their runs.

    - abl-loop-pred (A1): wish-jjl with/without the specialized
      wish-loop predictor.
    - abl-conf-threshold (A2): JRS confidence threshold sweep on the
      wish-jjl binary.
    - abl-no-wish-hw (A3): the wish-jjl binary on hardware that ignores
      the hint bits (paper Section 3.4 forward compatibility).
    - abl-wish-n (A4): compiler wish-jump threshold N sweep on a subset
      of workloads; its N=0 and N=100 cells are variant binaries, cells
      like any other. *)

(** All studies by id. *)
val artifacts : (string * Figures.artifact) list

(** [all] — {!artifacts}, each with its {!Figures.render}. *)
val all : (string * (Lab.t -> Wish_util.Table.t)) list

(** [jobs_for] — {!Figures.jobs_in} over {!artifacts}: A4's variant
    cells are left out. *)
val jobs_for : string -> Lab.t -> Lab.job list
