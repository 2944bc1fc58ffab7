(** Generators for every table and figure of the paper's evaluation.

    Each artifact is one value: its cells, every run its table reads,
    and a renderer over those runs' summaries. Its rows mirror the
    corresponding artifact's bars/series; execution-time figures report
    times normalized to the normal-branch binary (lower is better), with
    the paper's AVG / AVGnomcf convention. Rendering runs one batch over
    the artifact's cells and reads nothing else ({!Lab.render}); a
    regeneration runs one batch over the union of its artifacts' cells
    and renders each from its own slice of the results
    ({!Lab.renders}). See DESIGN.md section 3 for the per-experiment
    index and EXPERIMENTS.md for paper-vs-measured. *)

(** An artifact: [cells lab] lists every run its table reads, and
    [table lab get] renders it, reading each summary through [get]. *)
type artifact = {
  cells : Lab.t -> Lab.cell list;
  table : Lab.t -> (Lab.job -> Wish_sim.Runner.summary) -> Wish_util.Table.t;
}

(** [render name a lab] — [a]'s table, after one batch over its cells
    ({!Lab.render}, which names the artifact [name] in its errors). *)
val render : string -> artifact -> Lab.t -> Wish_util.Table.t

(** [normalized get j] — [j]'s cycles over those of its
    {!Lab.baseline_of}, the value of a {!Lab.Normalized} cell. *)
val normalized : (Lab.job -> Wish_sim.Runner.summary) -> Lab.job -> float

(** [normalized_rows ~title ~header ?benches jobs] — one row per
    benchmark of [benches lab] (default: all), its cells [jobs name],
    each normalized and "%.3f"-formatted. *)
val normalized_rows :
  title:string ->
  header:string list ->
  ?benches:(Lab.t -> string list) ->
  (string -> Lab.job list) ->
  artifact

type bar = {
  label : string;
  kind : Wish_compiler.Policy.kind;
  config : Wish_sim.Config.t;
}

(** [exec_time_table ~title bars] — the shared execution-time artifact:
    one column per bar, one row per benchmark, plus AVG/AVGnomcf rows.
    An average that keeps no selected benchmark (AVGnomcf when mcf runs
    alone) has no row. Exposed for the ablation studies. *)
val exec_time_table : title:string -> bar list -> artifact

(** The default artifacts by id: fig1, fig2, fig10–fig16, tab4, tab5. *)
val artifacts : (string * artifact) list

(** [all] — {!artifacts}, each with its {!render}. *)
val all : (string * (Lab.t -> Wish_util.Table.t)) list

(** [jobs_in artifacts name lab] — the jobs of artifact [name]'s cells
    that name no variant binary (empty for unknown names), baselines
    left out: the grid bench/perf's traced pass simulates on the default
    binary of each job's kind. It goes with that pass. *)
val jobs_in : (string * artifact) list -> string -> Lab.t -> Lab.job list

(** [jobs_for] — {!jobs_in} over {!artifacts}. *)
val jobs_for : string -> Lab.t -> Lab.job list

(** Scale sweep: the wish-jjl headline at scales 1/10/100 through the
    streaming pipeline, with per-scale uPC, mispredict rate, peak
    trace-resident entries, and process peak RSS. On-demand only (see
    {!extras}) — runtime grows linearly with scale. *)
val scale_sweep : Lab.t -> Wish_util.Table.t

(** Sample sweep: sampled (auto-spec) vs exact simulation for the sweep
    workloads at scales 1/10/100 — µPC error, 95% CI, window count, and
    serial/parallel speedups. On-demand only (see {!extras}). *)
val sample_sweep : Lab.t -> Wish_util.Table.t

(** Artifacts runnable by name but excluded from the default
    everything-run: scale-sweep, sample-sweep. They declare no cells. *)
val extras : (string * (Lab.t -> Wish_util.Table.t)) list

(** Looks up [all] then [extras]. *)
val find : string -> (Lab.t -> Wish_util.Table.t) option
