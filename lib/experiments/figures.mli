(** Generators for every table and figure of the paper's evaluation.

    Each generator returns a {!Wish_util.Table.t} whose rows mirror the
    corresponding artifact's bars/series; execution-time figures report
    times normalized to the normal-branch binary (lower is better), with
    the paper's AVG / AVGnomcf convention. See DESIGN.md section 3 for the
    per-experiment index and EXPERIMENTS.md for paper-vs-measured. *)

type bar = {
  label : string;
  kind : Wish_compiler.Policy.kind;
  config : Wish_sim.Config.t;
}

(** [exec_time_table lab ~title bars] — the shared renderer: one column
    per bar, one row per benchmark, plus AVG/AVGnomcf rows. An average
    that keeps no selected benchmark (AVGnomcf when mcf runs alone) has
    no row. Exposed for custom comparisons and the ablation studies. *)
val exec_time_table : Lab.t -> title:string -> bar list -> Wish_util.Table.t

val fig1 : Lab.t -> Wish_util.Table.t
val fig2 : Lab.t -> Wish_util.Table.t
val fig10 : Lab.t -> Wish_util.Table.t
val fig11 : Lab.t -> Wish_util.Table.t
val fig12 : Lab.t -> Wish_util.Table.t
val fig13 : Lab.t -> Wish_util.Table.t
val fig14 : Lab.t -> Wish_util.Table.t
val fig15 : Lab.t -> Wish_util.Table.t
val fig16 : Lab.t -> Wish_util.Table.t
val table4 : Lab.t -> Wish_util.Table.t
val table5 : Lab.t -> Wish_util.Table.t

(** Scale sweep: the wish-jjl headline at scales 1/10/100 through the
    streaming pipeline, with per-scale uPC, mispredict rate, peak
    trace-resident entries, and process peak RSS. On-demand only (see
    {!extras}) — runtime grows linearly with scale. *)
val scale_sweep : Lab.t -> Wish_util.Table.t

(** Sample sweep: sampled (auto-spec) vs exact simulation for the sweep
    workloads at scales 1/10/100 — µPC error, 95% CI, window count, and
    serial/parallel speedups. On-demand only (see {!extras}). *)
val sample_sweep : Lab.t -> Wish_util.Table.t

(** [bar_jobs lab bars] — every benchmark × every bar, as prewarm jobs. *)
val bar_jobs : Lab.t -> bar list -> Lab.job list

(** [jobs_for name lab] — the full simulation grid behind artifact
    [name] (empty for unknown names), for {!Lab.prewarm} to fan across
    worker domains before the generator renders the table serially. *)
val jobs_for : string -> Lab.t -> Lab.job list

(** All default artifacts by id: fig1, fig2, fig10–fig16, tab4, tab5. *)
val all : (string * (Lab.t -> Wish_util.Table.t)) list

(** Artifacts runnable by name but excluded from the default
    everything-run: scale-sweep, sample-sweep. *)
val extras : (string * (Lab.t -> Wish_util.Table.t)) list

(** Looks up [all] then [extras]. *)
val find : string -> (Lab.t -> Wish_util.Table.t) option
