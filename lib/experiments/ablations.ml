(** Ablation studies for the design choices DESIGN.md calls out. These go
    beyond the paper's own evaluation: they isolate the contribution of
    individual mechanisms in this implementation. *)

open Wish_compiler
module Config = Wish_sim.Config

(* ------------------------------------------------------------------ *)
(* A1: the specialized wish-loop predictor (paper Section 3.2)          *)
(* ------------------------------------------------------------------ *)

(** Wish-jjl with and without the overestimate-biased wish-loop predictor
    (without it, wish loops are steered by the hybrid predictor alone). *)
let a1_bars =
  [
    {
      Figures.label = "with loop predictor (default)";
      kind = Policy.Wish_jjl;
      config = Config.default;
    };
    {
      Figures.label = "hybrid only";
      kind = Policy.Wish_jjl;
      config = { Config.default with Config.use_loop_predictor = false };
    };
    { Figures.label = "wish-jj (no loops)"; kind = Policy.Wish_jj; config = Config.default };
  ]

let loop_predictor =
  Figures.exec_time_table
    ~title:"Ablation A1: wish-jjl with/without the specialized wish-loop predictor" a1_bars

(* ------------------------------------------------------------------ *)
(* A2: confidence estimator threshold                                   *)
(* ------------------------------------------------------------------ *)

(** JRS threshold sweep: a low threshold reaches high confidence quickly
    (less predication, more flush risk); a high threshold predicates more. *)
let a2_bars =
  let with_threshold n =
    { Config.default with Config.conf = { Config.default.Config.conf with Wish_bpred.Confidence.threshold = n } }
  in
  List.map
    (fun n ->
      {
        Figures.label = Printf.sprintf "threshold %d%s" n (if n = 10 then " (default)" else "");
        kind = Policy.Wish_jjl;
        config = with_threshold n;
      })
    [ 4; 7; 10; 13; 15 ]

let confidence_threshold =
  Figures.exec_time_table ~title:"Ablation A2: JRS confidence threshold (wish-jjl binary)" a2_bars

(* ------------------------------------------------------------------ *)
(* A3: wish binaries on hardware without wish support (Section 3.4)     *)
(* ------------------------------------------------------------------ *)

(** The paper's forward-compatibility argument: wish binaries run
    correctly on processors that ignore the hint bits — but then every
    wish branch behaves like a normal branch over predicated code. *)
let a3_bars =
  [
    { Figures.label = "wish hardware on"; kind = Policy.Wish_jjl; config = Config.default };
    {
      Figures.label = "hint bits ignored";
      kind = Policy.Wish_jjl;
      config = { Config.default with Config.wish_hardware = false };
    };
    { Figures.label = "BASE-MAX (reference)"; kind = Policy.Base_max; config = Config.default };
  ]

let no_wish_hardware =
  Figures.exec_time_table ~title:"Ablation A3: wish-jjl binary with wish hardware disabled" a3_bars

(* ------------------------------------------------------------------ *)
(* A4: compiler wish-jump threshold N (Section 4.2.2)                   *)
(* ------------------------------------------------------------------ *)

let a4_thresholds = [ 0; 5; 100 ]

(* The benchmarks A4 sweeps, those of them the lab has. *)
let a4_benches lab =
  List.filter (fun n -> List.mem n (Lab.bench_names lab)) [ "gzip"; "twolf"; "gap" ]

(** The wish-jj binary of a subset of workloads compiled with different N
    (minimum jumped-over block size for wish conversion; below it,
    regions are predicated). N=0 converts everything; a huge N predicates
    everything (wish-jj degenerates to BASE-MAX). Every cell is a lab
    run, memoized and cached: N=5 is the default wish-jj run, and any
    other N a variant binary the lab compiles on a miss. *)
let wish_threshold_n =
  Figures.normalized_rows ~title:"Ablation A4: compiler wish-jump threshold N (wish-jj binary)"
    ~header:(List.map (fun n -> "N=" ^ string_of_int n) a4_thresholds)
    ~benches:a4_benches
    (fun name ->
      List.map
        (fun n -> Lab.job ~bench:name ~kind:Policy.Wish_jj ~wish_threshold_n:n ())
        a4_thresholds)

let artifacts =
  [
    ("abl-loop-pred", loop_predictor);
    ("abl-conf-threshold", confidence_threshold);
    ("abl-no-wish-hw", no_wish_hardware);
    ("abl-wish-n", wish_threshold_n);
  ]

let all = List.map (fun (name, a) -> (name, Figures.render name a)) artifacts
let jobs_for = Figures.jobs_in artifacts
