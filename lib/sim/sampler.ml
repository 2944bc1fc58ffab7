(** Interval-sampled simulation (SMARTS-style) with functional warming.

    The run alternates two regimes over the dynamic trace:

    - {e functional warming}: the trace cursor advances at architectural
      speed — every long-lived structure (the five predictors, BTB, RAS,
      and the cache hierarchy's tag state) is updated with architectural
      outcomes, but no µop is allocated, no OOO timing is modelled and no
      event wheel turns. Control-dependent penalties dominate pipeline
      behaviour, so this state must never go cold between measurements.
    - {e detailed measurement windows}: short stretches run on the
      compiled cycle-level core ({!Compiled}), seeded with a copy of the
      warm state. The first quarter of each window is a detailed-warmup
      lead (pipeline and ROB fill) that is excluded from measurement.

    Cycle counts and rates are then extrapolated with a ratio estimator
    (Σcycles/Σentries over the measured windows), and the per-window
    spread yields a 95% confidence interval.

    Windows always run on {e copies} of the warm state while warming
    continues over the window's own entries on the live state. That makes
    window results independent of each other, so the checkpointed
    interval-parallel mode (fan the windows over a {!Wish_util.Pool}) is
    byte-identical to the serial mode by construction — scheduling is the
    only difference. Over a streaming trace the windows of a batch read
    pre-recorded entries from a sealed trace and never recycle chunks;
    the coordinating domain releases them once the batch has run. *)

open Wish_isa
module Trace = Wish_emu.Trace
module Exec = Wish_emu.Exec
module Pool = Wish_util.Pool
module Hybrid = Wish_bpred.Hybrid
module Btb = Wish_bpred.Btb
module Ras = Wish_bpred.Ras
module Confidence = Wish_bpred.Confidence
module Loop_pred = Wish_bpred.Loop_pred
module Hierarchy = Wish_mem.Hierarchy

type spec = { warm : int; detail : int }

let default_spec = { warm = 18_000; detail = 2_000 }

let spec ~warm ~detail =
  if warm <= 0 || detail <= 0 then invalid_arg "Sampler.spec: warm and detail must be positive";
  { warm; detail }

let to_string s = Printf.sprintf "%d:%d" s.warm s.detail

let of_string str =
  match String.index_opt str ':' with
  | None -> Error "expected W:D (e.g. 18000:2000)"
  | Some i -> (
    let w = String.sub str 0 i
    and d = String.sub str (i + 1) (String.length str - i - 1) in
    match (int_of_string_opt w, int_of_string_opt d) with
    | Some w, Some d when w > 0 && d > 0 -> Ok { warm = w; detail = d }
    | _ -> Error "expected positive integers W:D")

(* Detailed-warmup lead: entries simulated in detail at the head of each
   window but excluded from measurement. This hides more than the
   cold-pipeline ramp: the warm state is a close but imperfect image of
   the real machine's (cache recency and predictor details differ
   slightly), and measured against ground truth the discrepancy heals
   within ~4K entries as detailed execution retrains the state. Leads
   much below that floor leave a measurable slow bias in the windows. *)
let lead_of s = max (s.detail / 4) (min 4_200 s.detail)

(** [auto ~length] — a spec scaled to the trace: 12–64 windows (more on
    longer traces), ≲10% of entries simulated in detail. The detail
    floor matters: a measurement window must span many ROB drain/stall
    periods (each up to a ROB's worth of retires), or it aliases against
    the burst structure of retirement and the µPC estimate is garbage —
    windows of a few hundred entries can read 5.0 where the true rate is
    1.0. 4200 ≈ 8 ROB fills of the default 512-entry machine keeps that
    bias under ~2%. *)
let auto ~length =
  let windows = max 12 (min 64 (length / 320_000)) in
  let period = max 1 (length / windows) in
  let detail = max 4_200 (period / 18) in
  let lead = lead_of { warm = 0; detail } in
  { warm = max 1_000 (period - detail - lead); detail }

type window = {
  w_start : int; (* first measured trace index *)
  w_entries : int;
  w_cycles : int;
  w_counts : Counters.t;
}

type report = {
  r_spec : spec;
  r_windows : window list;
  r_total_insts : int;
  r_measured_entries : int;
  r_measured_cycles : int;
  r_measured : Counters.t; (* every counter, summed over the windows *)
  r_upc : float;
  r_upc_ci : float; (* 95% CI half-width on the per-window µPC *)
  r_misp_per_1k : float;
  r_misp_ci : float;
  r_est_cycles : int;
  r_mem : Hierarchy.stats; (* warming hierarchy = full-trace cache stats *)
}

(* ----------------------------------------------------------------- *)
(* Functional warming                                                  *)
(* ----------------------------------------------------------------- *)

(* Per-pc warm-plan classes: what the warming loop must do for an entry
   at that pc, precomputed so the per-entry path never touches the code
   image ([Code.get] + variant match) again. *)
let k_inert = 0 (* Alu/Cmp/Pset/Nop/Halt: only the I-line check *)

and k_cond = 1
and k_wjump = 2
and k_wjoin = 3
and k_wloop = 4
and k_jump = 5
and k_call = 6
and k_return = 7
and k_mem = 8

(* The live warm state plus the warming loop's own bit of front-end
   context (last instruction line touched, mirroring the core's
   per-line I-cache access) and the precomputed per-pc warm plan. *)
type state = {
  s_config : Config.t;
  s_code : Code.t;
  s_warm : Core.warm_state;
  s_kind : int array; (* warm-plan class, one of the k_* above *)
  s_line : int array; (* I-cache line index of the pc *)
  s_lu : Hybrid.lbuf; (* [warm_entry]'s direction-predictor probe *)
  mutable s_last_line : int;
}

let create_state (config : Config.t) (program : Program.t) =
  let code = Program.code program in
  let n = Code.length code in
  let s_kind = Array.make n k_inert in
  let s_line = Array.make n 0 in
  let line_bytes = config.hier.l1i.line_bytes in
  for pc = 0 to n - 1 do
    let inst = Code.get code pc in
    s_line.(pc) <- Code.byte_pc pc / line_bytes;
    s_kind.(pc) <-
      (match inst.Inst.op with
      | Inst.Branch { kind = Inst.Cond; _ } -> k_cond
      | Inst.Branch { kind = Inst.Wish_jump; _ } -> k_wjump
      | Inst.Branch { kind = Inst.Wish_join; _ } -> k_wjoin
      | Inst.Branch { kind = Inst.Wish_loop; _ } -> k_wloop
      | Inst.Jump _ -> k_jump
      | Inst.Call _ -> k_call
      | Inst.Return -> k_return
      | Inst.Load _ | Inst.Store _ -> k_mem
      | Inst.Alu _ | Inst.Cmp _ | Inst.Pset _ | Inst.Halt | Inst.Nop -> k_inert)
  done;
  {
    s_config = config;
    s_code = code;
    s_warm =
      {
        Core.warm_hybrid = Hybrid.create config.bpred;
        warm_btb = Btb.create ~entries:config.btb_entries ~ways:config.btb_ways;
        warm_ras = Ras.create ~entries:config.ras_entries;
        warm_conf = Confidence.create config.conf;
        warm_loop = Loop_pred.create ();
        warm_hier = Hierarchy.create config.hier;
      };
    s_kind;
    s_line;
    s_lu = Hybrid.fresh_lbuf ();
    s_last_line = -1;
  }

let copy_warm (w : Core.warm_state) =
  {
    Core.warm_hybrid = Hybrid.copy w.warm_hybrid;
    warm_btb = Btb.copy w.warm_btb;
    warm_ras = Ras.copy w.warm_ras;
    warm_conf = Confidence.copy w.warm_conf;
    warm_loop = Loop_pred.copy w.warm_loop;
    warm_hier = Hierarchy.copy w.warm_hier;
  }

(* One trace entry at architectural speed. Mirrors what the detailed core
   does to long-lived state over a correct-path execution with no
   speculation: predict-and-train conditional branches (shifting the
   actual outcome into the histories), train the confidence estimator on
   wish branches, the loop predictor on wish loops, insert taken branches
   into the BTB, maintain the RAS, and touch the cache tags. *)
let warm_entry st _i ~pc ~guard_true ~taken ~addr =
  let w = st.s_warm in
  (* Trace pcs index a validated code image, so the warm-plan arrays
     (sized to it) are in range by construction. *)
  let line = Array.unsafe_get st.s_line pc in
  if line <> st.s_last_line then begin
    Hierarchy.warm_inst w.Core.warm_hier ~byte_addr:(Code.byte_pc pc);
    st.s_last_line <- line
  end;
  let k = Array.unsafe_get st.s_kind pc in
  if k <> k_inert then
    if k = k_mem then begin
      if guard_true && addr >= 0 then
        Hierarchy.warm_data w.warm_hier ~byte_addr:(addr * Code.word_bytes)
    end
    else if k <= k_wloop then begin
      (* Branch family (cond / wish jump / wish join / wish loop). *)
      let cfg = st.s_config in
      let history = Hybrid.global_history w.warm_hybrid in
      let is_wish_hw = cfg.wish_hardware && k >= k_wjump in
      (* A low-confidence wish branch executes predicated: no flush ever
         repairs its speculatively-shifted history, so the architectural
         history stream carries the predictor's output there — everywhere
         else, recovery leaves the actual outcome. The probe is read-only,
         so the confidence estimate can decide the shift between it and
         the training half. *)
      let lu = st.s_lu in
      Hybrid.predict_into w.warm_hybrid ~pc lu;
      let predicted = lu.Hybrid.b_taken in
      let dir =
        if is_wish_hw then begin
          let conf_high =
            if cfg.knobs.perfect_conf then predicted = taken
            else Confidence.is_high_confidence w.warm_conf ~pc ~history
          in
          if conf_high then taken else predicted
        end
        else taken
      in
      Hybrid.warm_train_b w.warm_hybrid lu ~pc ~dir ~taken;
      if is_wish_hw && not cfg.knobs.perfect_conf then
        Confidence.train w.warm_conf ~pc ~history ~correct:(predicted = taken);
      if is_wish_hw && cfg.use_loop_predictor && k = k_wloop then
        Loop_pred.warm_entry (Loop_pred.resolve w.warm_loop pc) ~taken;
      if taken then Btb.insert w.warm_btb ~pc
    end
    else begin
      (* Indirect control: jump / call / return. *)
      if k = k_call then Ras.push w.warm_ras (pc + 1)
      else if k = k_return then ignore (Ras.pop w.warm_ras);
      if taken then Btb.insert w.warm_btb ~pc
    end

(* Warm only what the trace already recorded in [from, until) — never
   pulls the generator (the unrecorded remainder is the fused path's
   job). Returns the new cursor. *)
let warm_recorded st trace ~from ~until =
  let avail = min until (Trace.length trace) in
  if avail > from then
    Trace.iter_range trace ~from ~until:avail ~f:(fun i ~pc ~guard_true ~taken ~addr ->
        warm_entry st i ~pc ~guard_true ~taken ~addr);
  max from avail

(** [warm_state_at ~config program trace i] — the functional-warming
    state after entries [0, i): what a detailed window opening at [i]
    receives. The reference the fused hooks are tested against. *)
let warm_state_at ~config program trace i =
  let st = create_state config program in
  ignore (Trace.ensure trace (i - 1));
  ignore (warm_recorded st trace ~from:0 ~until:i);
  st.s_warm

(* ----------------------------------------------------------------- *)
(* Fused (trace-free) warming                                          *)
(* ----------------------------------------------------------------- *)

(* Per-pc warm hooks for {!Trace.warm_to}: [warm_entry] re-specialized
   so that everything static — the warm-plan class, the I-line index and
   its L1I set/tag, the BTB set/tag, the wish/loop/conf mode bits — is
   resolved here, at plan time, once per static instruction. The
   emulator then feeds each retired instruction's {!Exec.out} straight
   into the hook: no trace encode, no decode, no per-entry class
   dispatch. Every hook must mutate the warm structures
   in exactly [warm_entry]'s order (including LRU-recency touches), so
   fused warm state is bit-identical to trace-based warm state; the
   [fused] test group in test_sim holds this to account. *)
let build_hooks st ~entry =
  let w = st.s_warm in
  let cfg = st.s_config in
  let hybrid = w.Core.warm_hybrid
  and btb = w.Core.warm_btb
  and ras = w.Core.warm_ras
  and conf = w.Core.warm_conf
  and lp = w.Core.warm_loop
  and hier = w.Core.warm_hier in
  let n = Code.length st.s_code in
  (* Dynamic entry points: pcs that can retire after something other than
     [pc - 1] — static branch/jump/call targets, return landings (the pc
     after any call), and the program entry. Everywhere else the
     retirement stream is known at plan time to arrive from [pc - 1]
     (taken-or-not fall-through included: the predecessor still retires
     first), so an inert pc on its predecessor's I-line needs no hook at
     all: [s_last_line] already equals its line when it retires. Those
     pcs get the [Trace.no_hook] sentinel, which the block driver skips
     without even an indirect call — on straight-line code that is most
     of the stream. *)
  let entered = Array.make (max n 1) false in
  if entry >= 0 && entry < n then entered.(entry) <- true;
  for pc = 0 to n - 1 do
    let inst = Code.get st.s_code pc in
    (match Inst.direct_target inst with
    | Some t -> if t >= 0 && t < n then entered.(t) <- true
    | None -> ());
    match inst.Inst.op with
    | Inst.Call _ -> if pc + 1 < n then entered.(pc + 1) <- true
    | _ -> ()
  done;
  Array.init n (fun pc ->
      let line = st.s_line.(pc) in
      let byte_pc = Code.byte_pc pc in
      let iset, itag = Hierarchy.inst_set_tag hier ~byte_addr:byte_pc in
      let k = st.s_kind.(pc) in
      if k = k_inert && pc > 0 && (not entered.(pc)) && line = st.s_line.(pc - 1) then
        Trace.no_hook
      else if k = k_inert then (fun (_ : Exec.out) ->
        if line <> st.s_last_line then begin
          Hierarchy.warm_inst_at hier ~set:iset ~tag:itag ~byte_addr:byte_pc;
          st.s_last_line <- line
        end)
      else if k = k_mem then (fun (o : Exec.out) ->
        if line <> st.s_last_line then begin
          Hierarchy.warm_inst_at hier ~set:iset ~tag:itag ~byte_addr:byte_pc;
          st.s_last_line <- line
        end;
        if o.Exec.o_guard_true && o.Exec.o_addr >= 0 then
          Hierarchy.warm_data hier ~byte_addr:(o.Exec.o_addr * Code.word_bytes))
      else if k <= k_wloop then begin
        (* Branch family (cond / wish jump / wish join / wish loop). *)
        let is_wish_hw = cfg.Config.wish_hardware && k >= k_wjump in
        let perfect_conf = cfg.knobs.perfect_conf in
        let do_loop = is_wish_hw && cfg.use_loop_predictor && k = k_wloop in
        let bset, btag = Btb.index btb ~pc in
        let lb = Hybrid.fresh_lbuf () in
        let bslot = ref (-1) in
        if not is_wish_hw then (fun (o : Exec.out) ->
          (* Plain conditional (or wish branch with the hardware knob
             off): outcome into the histories. *)
          if line <> st.s_last_line then begin
            Hierarchy.warm_inst_at hier ~set:iset ~tag:itag ~byte_addr:byte_pc;
            st.s_last_line <- line
          end;
          let taken = o.Exec.o_taken in
          Hybrid.predict_into hybrid ~pc lb;
          Hybrid.warm_train_b hybrid lb ~pc ~dir:taken ~taken;
          if taken then Btb.insert_cached btb ~set:bset ~tag:btag ~slot:bslot)
        else begin
          (* Wish branch under wish hardware. The hybrid probe and train
             are split around the confidence estimate (the shifted
             direction depends on it), sharing one index computation via
             this hook's lookup buffer; conf probe and train share one
             way scan; the loop entry resolves its hash slot on the
             first retirement (exactly when [warm_entry] would create
             it) and is a direct record reference afterwards. Each
             structure sees exactly [warm_entry]'s op sequence. *)
          let lentry = ref None in
          fun (o : Exec.out) ->
            if line <> st.s_last_line then begin
              Hierarchy.warm_inst_at hier ~set:iset ~tag:itag ~byte_addr:byte_pc;
              st.s_last_line <- line
            end;
            let taken = o.Exec.o_taken in
            let history = Hybrid.global_history hybrid in
            Hybrid.predict_into hybrid ~pc lb;
            let predicted = lb.Hybrid.b_taken in
            let conf_high =
              if perfect_conf then predicted = taken
              else Confidence.warm_probe conf ~pc ~history ~correct:(predicted = taken)
            in
            let dir = if conf_high then taken else predicted in
            Hybrid.warm_train_b hybrid lb ~pc ~dir ~taken;
            if do_loop then begin
              let e =
                match !lentry with
                | Some e -> e
                | None ->
                  let e = Loop_pred.resolve lp pc in
                  lentry := Some e;
                  e
              in
              Loop_pred.warm_entry e ~taken
            end;
            if taken then Btb.insert_cached btb ~set:bset ~tag:btag ~slot:bslot
        end
      end
      else begin
        (* Indirect control: jump / call / return. *)
        let bset, btag = Btb.index btb ~pc in
        let is_call = k = k_call and is_return = k = k_return in
        let bslot = ref (-1) in
        fun (o : Exec.out) ->
          if line <> st.s_last_line then begin
            Hierarchy.warm_inst_at hier ~set:iset ~tag:itag ~byte_addr:byte_pc;
            st.s_last_line <- line
          end;
          if is_call then Ras.push ras (pc + 1)
          else if is_return then ignore (Ras.pop ras);
          if o.Exec.o_taken then Btb.insert_cached btb ~set:bset ~tag:btag ~slot:bslot
      end)

(** [fused_warm_state_at ~config program i] — {!warm_state_at} computed
    by the fused path: no trace entries exist, the warm hooks ran inside
    the emulator. Bit-identical to the trace-based state by contract. *)
let fused_warm_state_at ~config program i =
  let st = create_state config program in
  let hooks = build_hooks st ~entry:program.Program.entry in
  let trace = Trace.stream program in
  ignore (Trace.warm_to trace ~hooks ~until:i);
  st.s_warm

(* ----------------------------------------------------------------- *)
(* Detailed windows                                                    *)
(* ----------------------------------------------------------------- *)

type checkpoint = { c_start : int; c_lead : int; c_warm : Core.warm_state }

(* Run one detailed window from a checkpoint: [c_lead] unmeasured entries
   of detailed warmup, then [detail] measured entries. The counter
   deltas between the two stops are the measurement. *)
let run_window ~config ~program ~trace ~detail ck =
  let start = ck.c_start in
  let lead = ck.c_lead in
  let core =
    Compiled.create ~warm:ck.c_warm ~start_cursor:start ~start_pc:(Trace.pc trace start)
      ~release_trace:false config program trace
  in
  ignore (Compiled.run_until core ~stop_idx:(start + lead));
  let lo = Compiled.retired_trace_idx core in
  let c0 = Compiled.cycles core in
  let counts0 = Counters.copy (Compiled.counters core) in
  ignore (Compiled.run_until core ~stop_idx:(start + lead + detail));
  let hi = Compiled.retired_trace_idx core in
  {
    w_start = lo + 1;
    w_entries = hi - lo;
    w_cycles = Compiled.cycles core - c0;
    w_counts = Counters.diff (Compiled.counters core) counts0;
  }

(* ----------------------------------------------------------------- *)
(* Aggregation                                                         *)
(* ----------------------------------------------------------------- *)

let mean_ci xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | xs ->
    let k = float_of_int (List.length xs) in
    let mean = List.fold_left ( +. ) 0.0 xs /. k in
    let var =
      List.fold_left (fun a x -> a +. ((x -. mean) *. (x -. mean))) 0.0 xs /. (k -. 1.0)
    in
    1.96 *. sqrt var /. sqrt k

(* Stratified two-region estimator. Programs open with an
   initialization ramp (cold data structures, untrained predictors)
   that can run at a fraction of steady-state µPC for a few hundred
   thousand entries — a region systematic sampling either skips
   entirely (positive µPC bias) or over-weights if a window there
   counts the same as one drawn from the vastly larger steady region
   (negative bias; both effects measure several percent on the
   scale-sweep workloads). So the head stratum [0, period) — sampled
   densely by {!run} — and the tail stratum [period, total) each get
   their own ratio estimate, combined weighted by stratum length. *)
let aggregate ~spec ~period ~total_insts ~mem windows =
  let windows = List.filter (fun w -> w.w_entries > 0 && w.w_cycles > 0) windows in
  (* Drop runt windows — ones truncated far below the detail length by
     the end of the trace (the scheduler cannot predict this for a
     streaming trace). Their per-entry cost is dominated by pipeline
     fill and drain amortized over almost nothing, and the ratio
     estimator would extrapolate that rate across the whole stratum:
     on short traces a 100-entry runt has been observed to inflate the
     cycle estimate 6-8x. When every window is a runt (a trace shorter
     than one detail span), keep them all — the single cold window IS
     the exact simulation. *)
  let full w = w.w_entries * 4 >= spec.detail in
  let windows = if List.exists full windows then List.filter full windows else windows in
  let head, tail = List.partition (fun w -> w.w_start < period) windows in
  let sum f ws = List.fold_left (fun a w -> a + f w) 0 ws in
  let n = sum (fun w -> w.w_entries) windows in
  let c = sum (fun w -> w.w_cycles) windows in
  let uops w = Counters.get w.w_counts Counters.retired_correct in
  let misps w = Counters.get w.w_counts Counters.mispredicts_retired in
  let fi = float_of_int in
  (* Stratified whole-run estimate of a per-entry quantity [f]. *)
  let estimate f =
    let rate ws = fi (sum f ws) /. fi (max 1 (sum (fun w -> w.w_entries) ws)) in
    match (head, tail) with
    | [], [] -> 0.0
    | ws, [] | [], ws -> fi total_insts *. rate ws
    | _ ->
      let h_len = min total_insts period in
      (fi h_len *. rate head) +. (fi (total_insts - h_len) *. rate tail)
  in
  let est_cycles = estimate (fun w -> w.w_cycles) in
  let est_uops = estimate uops in
  let est_misp = estimate misps in
  let upc = if est_cycles = 0.0 then 0.0 else est_uops /. est_cycles in
  let misp = if est_uops = 0.0 then 0.0 else 1000.0 *. est_misp /. est_uops in
  (* Approximate 95% CI: per-window spread within each stratum,
     combined with the strata weights. *)
  let strat_ci per_window =
    let ci ws = mean_ci (List.filter_map per_window ws) in
    match (head, tail) with
    | [], [] -> 0.0
    | ws, [] | [], ws -> ci ws
    | _ ->
      let wh = fi (min total_insts period) /. fi (max 1 total_insts) in
      let wt = 1.0 -. wh in
      sqrt (((wh *. ci head) ** 2.0) +. ((wt *. ci tail) ** 2.0))
  in
  let upc_ci = strat_ci (fun w -> Some (fi (uops w) /. fi w.w_cycles)) in
  let misp_ci =
    strat_ci (fun w -> if uops w = 0 then None else Some (1000.0 *. fi (misps w) /. fi (uops w)))
  in
  {
    r_spec = spec;
    r_windows = windows;
    r_total_insts = total_insts;
    r_measured_entries = n;
    r_measured_cycles = c;
    r_measured = Counters.sum (List.map (fun w -> w.w_counts) windows);
    r_upc = upc;
    r_upc_ci = upc_ci;
    r_misp_per_1k = misp;
    r_misp_ci = misp_ci;
    r_est_cycles = (if n = 0 then 0 else int_of_float (Float.round est_cycles));
    r_mem = mem;
  }

(* ----------------------------------------------------------------- *)
(* Orchestration                                                       *)
(* ----------------------------------------------------------------- *)

(* Upper bound on how far past its stop index a detailed window's trace
   cursor can read: the machine's in-flight capacity (ROB plus front-end
   queue — each in-flight µop consumed one entry), the skippable
   (guard-false / speculated) runs a predicted-taken wish branch jumps
   over (each bounded by the static code length), and one final
   skip-limited oracle scan. Generous by construction, and only load-
   bearing in pooled runs over a streaming trace, where a violation
   raises loudly through the trace seal instead of racing the
   generator. *)
let read_margin (config : Config.t) (program : Program.t) =
  let n = Code.length (Program.code program) in
  config.rob_size
  + (config.frontend_depth * config.fetch_width)
  + (2 * Oracle.default_skip_limit)
  + (8 * n) + 2048

(** [run ?pool ?trace ~config ~spec program] — sample the whole run.

    Placement is stratified. The head stratum [0, period) — where the
    initialization ramp lives — is sampled by up to four windows at
    stride period/4; the first runs from a fresh machine with no lead
    (a cold start at entry 0 is not an approximation — it IS the real
    machine's state there). The tail stratum is sampled systematically
    at multiples of the period [warm + lead + detail]. A trace shorter
    than the head stride therefore degenerates to a single full-length
    cold window: the exact simulation.

    [trace] defaults to a fresh {!Trace.stream} of [program]. Entries
    the trace has already recorded (every entry of a materialized trace)
    warm through the reference [warm_entry]; the unrecorded rest runs
    fused, through per-pc warm hooks inside {!Wish_emu.Compiled}
    ({!Trace.warm_to}), and chunks are recorded only for each window's
    span (lead + detail) plus, when pooled, a bounded read-ahead margin.
    The report is the same whichever way an entry warms.

    With [pool], window batches fan out across domains while the trace is
    sealed (a window out-reading its pre-recorded margin fails loudly
    rather than racing the generator). Serial mode needs no margin: a
    window pulling the generator a little further is harmless on the
    coordinating domain, and the extra recorded entries are warmed as
    recorded entries on the next iteration. *)
let run ?pool ?trace ~config ~spec (program : Program.t) =
  let trace = match trace with Some t -> t | None -> Trace.stream program in
  let lead = lead_of spec in
  let span = lead + spec.detail in
  let period = spec.warm + span in
  let head_n = max 1 (min 4 (period / span)) in
  let stride = period / head_n in
  let start_of idx = if idx < head_n then idx * stride else (idx - head_n + 1) * period in
  let batch_size = match pool with Some p -> max 2 (2 * Pool.size p) | None -> 1 in
  let margin = read_margin config program in
  let st = create_state config program in
  let hooks = build_hooks st ~entry:program.Program.entry in
  let windows = ref [] (* reversed *) in
  let pending = ref [] (* reversed *) in
  let npending = ref 0 in
  let do_window ck = run_window ~config ~program ~trace ~detail:spec.detail ck in
  let flush () =
    if !npending > 0 then begin
      let cks = List.rev !pending in
      pending := [];
      npending := 0;
      let ws =
        match pool with
        | None -> List.map do_window cks
        | Some p ->
          Trace.set_sealed trace true;
          Fun.protect
            ~finally:(fun () -> Trace.set_sealed trace false)
            (fun () -> Pool.map p do_window cks)
      in
      windows := List.rev_append ws !windows
    end
  in
  let cursor = ref 0 in
  (* Recorded entries warm as recorded entries, the rest of [cursor,
     until) runs fused — unless the trace is finished (always, for a
     materialized one), which leaves nothing to run. *)
  let warm_until until =
    cursor := warm_recorded st trace ~from:!cursor ~until;
    if !cursor < until && not (Trace.finished trace) then
      cursor := Trace.warm_to trace ~hooks ~until
  in
  let idx = ref 0 in
  let continue = ref true in
  while !continue do
    let start = start_of !idx in
    warm_until start;
    if !cursor < start || not (Trace.ensure trace start) then continue := false
    else begin
      let ck =
        if start = 0 then
          (* Cold window: a second fresh state (not a copy of [st] — the
             live warming state must keep advancing independently). *)
          { c_start = 0; c_lead = 0; c_warm = (create_state config program).s_warm }
        else { c_start = start; c_lead = lead; c_warm = copy_warm st.s_warm }
      in
      pending := ck :: !pending;
      incr npending;
      let wtarget = start + span in
      (* The window reads its span from recorded entries, so materialize
         them before the fused pass would skip them. Serial windows may
         pull the generator further themselves at flush (same domain);
         pooled windows run against a sealed trace and must find every
         entry they can touch — span plus read-ahead margin — already
         recorded. *)
      ignore (Trace.ensure trace (if pool = None then wtarget - 1 else wtarget + margin - 1));
      warm_until wtarget;
      if !npending >= batch_size then begin
        (* Every pending window lies below the warming cursor; once they
           have run, a streaming trace can recycle everything beneath it. *)
        flush ();
        Trace.release trace !cursor
      end;
      if !cursor < wtarget then continue := false;
      incr idx
    end
  done;
  flush ();
  Trace.release trace !cursor;
  aggregate ~spec ~period ~total_insts:(Trace.length trace)
    ~mem:(Hierarchy.stats st.s_warm.Core.warm_hier)
    (List.rev !windows)
