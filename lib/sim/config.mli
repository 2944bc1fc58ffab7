(** Machine configuration, defaulting to the paper's baseline (Table 2):
    8-wide fetch/decode/rename and execute/retire, 512-entry reorder
    buffer, 64K-entry gshare/PAs hybrid with a 64K-entry selector,
    4K-entry BTB, 64-entry RAS, ~30-cycle minimum branch misprediction
    penalty, 1KB tagged JRS confidence estimator, and the Table 2 memory
    hierarchy. *)

type predication_mechanism =
  | C_style
      (** predicated µop reads guard + old destination [Sprangle & Patt] *)
  | Select_uop  (** computation µop + select µop [Wang et al.] *)

(** Oracle idealization knobs (Figure 2 and the perf-conf bars). *)
type knobs = {
  perfect_bp : bool;  (** PERFECT-CBP: oracle branch prediction *)
  perfect_conf : bool;  (** confidence = (prediction correct?) from oracle *)
  no_depend : bool;  (** NO-DEPEND: predicate data dependencies removed *)
  no_fetch : bool;  (** NO-FETCH: false-predicated µops dropped at fetch *)
}

val no_knobs : knobs

type t = {
  fetch_width : int;  (** µops fetched per cycle *)
  rename_width : int;
  issue_width : int;
  retire_width : int;
  rob_size : int;
  frontend_depth : int;  (** fetch-to-rename cycles; sets the flush penalty *)
  btb_miss_penalty : int;  (** bubble when a taken branch misses the BTB *)
  max_cond_branches : int;  (** conditional branches fetched per cycle *)
  bpred : Wish_bpred.Hybrid.config;
  btb_entries : int;
  btb_ways : int;
  ras_entries : int;
  conf : Wish_bpred.Confidence.config;
  use_loop_predictor : bool;
      (** the specialized, overestimate-biased wish-loop predictor the
          paper suggests in Section 3.2; applies to wish loops only *)
  hier : Wish_mem.Hierarchy.config;
  mech : predication_mechanism;
  wish_hardware : bool;  (** false: wish branches act as normal branches *)
  knobs : knobs;
  max_cycles : int;
}

val default : t

(** [with_pipeline_stages t n] models an [n]-stage pipeline (Figure 15
    uses 10/20/30): front-end depth = [n] minus the two modelled back-end
    stages. *)
val with_pipeline_stages : t -> int -> t

val with_rob : t -> int -> t

(** [hash c] — a hash that reads every field of [c], for tables keyed
    by configs (equal configs hash alike). *)
val hash : t -> int

(** [observed ~wish ~predicated c] — the machine a binary sees: [c] with
    every field the binary cannot read reset to {!default}'s value.
    Without a wish branch ([wish] false) that is [conf],
    [use_loop_predictor], [wish_hardware] and [knobs.perfect_conf];
    without a guarded non-branch instruction ([predicated] false),
    [mech], [knobs.no_depend] and [knobs.no_fetch]. The timing core,
    exact or sampled, returns the same cycles, counters and memory stats
    under [c] and under [observed ~wish ~predicated c]. *)
val observed : wish:bool -> predicated:bool -> t -> t
