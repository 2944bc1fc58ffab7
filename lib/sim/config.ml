(** Machine configuration, defaulting to the paper's baseline (Table 2):
    8-wide fetch/decode/rename and execute/retire, 512-entry reorder buffer,
    64K-entry gshare/PAs hybrid with a 64K-entry selector, 4K-entry BTB,
    64-entry RAS, 30-cycle minimum branch misprediction penalty, 1KB tagged
    JRS confidence estimator, and the Table 2 memory hierarchy. *)

type predication_mechanism =
  | C_style (* predicated µop reads guard + old destination [Sprangle & Patt] *)
  | Select_uop (* computation µop + select µop [Wang et al.] *)

(** Oracle idealization knobs used by Figure 2 and the perf-conf bars. *)
type knobs = {
  perfect_bp : bool; (* PERFECT-CBP: all branch predictions from the oracle *)
  perfect_conf : bool; (* confidence = (prediction correct?) from the oracle *)
  no_depend : bool; (* NO-DEPEND: predicate data dependencies removed *)
  no_fetch : bool; (* NO-FETCH: false-predicated µops dropped at fetch *)
}

let no_knobs = { perfect_bp = false; perfect_conf = false; no_depend = false; no_fetch = false }

type t = {
  fetch_width : int; (* µops fetched per cycle *)
  rename_width : int;
  issue_width : int;
  retire_width : int;
  rob_size : int;
  frontend_depth : int; (* fetch-to-rename cycles; sets the flush penalty *)
  btb_miss_penalty : int; (* bubble when a taken branch misses the BTB *)
  max_cond_branches : int; (* conditional branches fetched per cycle *)
  bpred : Wish_bpred.Hybrid.config;
  btb_entries : int;
  btb_ways : int;
  ras_entries : int;
  conf : Wish_bpred.Confidence.config;
  use_loop_predictor : bool;
  (* The specialized, overestimate-biased wish-loop predictor the paper
     suggests in Section 3.2; applies to wish loops only. *)
  hier : Wish_mem.Hierarchy.config;
  mech : predication_mechanism;
  wish_hardware : bool; (* false: wish branches behave as normal branches *)
  knobs : knobs;
  max_cycles : int;
}

let default =
  {
    fetch_width = 8;
    rename_width = 8;
    issue_width = 8;
    retire_width = 8;
    rob_size = 512;
    frontend_depth = 28; (* 30-stage pipeline: ~30-cycle min misprediction penalty *)
    btb_miss_penalty = 3;
    max_cond_branches = 3;
    bpred = Wish_bpred.Hybrid.default_config;
    btb_entries = 4096;
    btb_ways = 4;
    ras_entries = 64;
    conf = Wish_bpred.Confidence.default_config;
    use_loop_predictor = true;
    hier = Wish_mem.Hierarchy.default_config;
    mech = C_style;
    wish_hardware = true;
    knobs = no_knobs;
    max_cycles = 2_000_000_000;
  }

(** [with_pipeline_stages t n] models an [n]-stage pipeline (Figure 15 uses
    10, 20 and 30): the front-end depth is the pipeline depth minus the two
    modelled back-end stages. *)
let with_pipeline_stages t n =
  assert (n >= 3);
  { t with frontend_depth = n - 2 }

let with_rob t n = { t with rob_size = n }

(* Every field, named in full record patterns so that a new field fails
   the build (warning 9) until it is mixed in. [Hashtbl.hash] stops
   after ten meaningful values, here at [btb_ways], and
   [Hashtbl.hash_param] reaching all 44 costs several times as much. *)
let hash
    {
      fetch_width;
      rename_width;
      issue_width;
      retire_width;
      rob_size;
      frontend_depth;
      btb_miss_penalty;
      max_cond_branches;
      bpred = { gshare_bits; pas_bht_bits; pas_hist_bits; pas_pht_bits; selector_bits };
      btb_entries;
      btb_ways;
      ras_entries;
      conf = { sets; ways; counter_bits; threshold; history_bits };
      use_loop_predictor;
      hier = { l1i; l1d; l2; memory_latency; memory_banks; bank_busy };
      mech;
      wish_hardware;
      knobs = { perfect_bp; perfect_conf; no_depend; no_fetch };
      max_cycles;
    } =
  let ( +: ) h x = (h * 31) + x and b = Bool.to_int in
  let cache h { Wish_mem.Cache.size_bytes; ways; line_bytes; latency } =
    h +: size_bytes +: ways +: line_bytes +: latency
  in
  let h =
    fetch_width +: rename_width +: issue_width +: retire_width +: rob_size +: frontend_depth
    +: btb_miss_penalty +: max_cond_branches +: gshare_bits +: pas_bht_bits +: pas_hist_bits
    +: pas_pht_bits +: selector_bits +: btb_entries +: btb_ways +: ras_entries +: sets +: ways
    +: counter_bits +: threshold +: history_bits +: b use_loop_predictor
  in
  let h = cache (cache (cache h l1i) l1d) l2 +: memory_latency +: memory_banks +: bank_busy in
  (* [Hashtbl.hash] of the sum spreads it over the low bits a table
     indexes by: ROB sizes 128, 256 and 512 differ in none of them. *)
  Hashtbl.hash
    (h
    +: (match mech with C_style -> 0 | Select_uop -> 1)
    +: b wish_hardware +: b perfect_bp +: b perfect_conf +: b no_depend +: b no_fetch +: max_cycles)

(* A field a binary cannot read is reset to [default]'s value, so that
   configs that differ only there name one run. [wish]: the binary has a
   wish branch. Without one, nothing reads
   - [conf]: estimated only for a wish branch under wish hardware
     ([Compiled.fetch_branch]) and trained only on one that retires as
     such ([Compiled.retire_stage]); warming does the same
     ([Sampler.build_hooks]);
   - [use_loop_predictor]: gates the prediction, speculative iteration
     and training of wish loops only ([fetch_branch], [retire_stage],
     the warming hooks); [Compiled.recover]'s [Loop_pred.squash_all]
     walks a table only wish loops fill, so here it is empty;
   - [wish_hardware]: [Plan.build]'s [is_wish_hw] and [fetch_branch]'s
     loop-predictor gate test it on wish branches only, as warming does;
   - [knobs.perfect_conf]: replaces the estimate, and skips its
     training, at those same wish-only sites.
   [predicated]: the binary has a guarded non-branch instruction.
   Without one, nothing reads
   - [mech]: [Plan.build]'s [sel_eligible] splits only a guarded µop
     ([Compiled.fetch_stage]'s [predicated] test), and [old_dest_single]
     is false for an unguarded one under either mechanism;
   - [knobs.no_depend]: feeds [old_dest_single], [old_dest_select]
     (select µops exist only for guarded ones) and [fetch_stage]'s
     [guard_forwarded], which [Compiled.rename_uop] reads only for a
     guarded µop;
   - [knobs.no_fetch]: [fetch_stage]'s NO-FETCH drop takes guard-false
     entries, and an unguarded instruction's guard [p0] is always true.
   The [observed] group of test_sim checks the rule in exact and
   sampled runs of every table configuration. *)
let observed ~wish ~predicated c =
  if wish && predicated then c
  else
    (* [w] supplies the wish fields, [p] the predication fields. *)
    let w = if wish then c else default and p = if predicated then c else default in
    {
      c with
      conf = w.conf;
      use_loop_predictor = w.use_loop_predictor;
      wish_hardware = w.wish_hardware;
      mech = p.mech;
      knobs =
        {
          c.knobs with
          perfect_conf = w.knobs.perfect_conf;
          no_depend = p.knobs.no_depend;
          no_fetch = p.knobs.no_fetch;
        };
    }
