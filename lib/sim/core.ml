(** The cycle-level out-of-order core.

    Oracle-directed execution: the front end fetches real instructions from
    the static code image along the *predicted* path; a cursor over the
    emulator trace ({!Oracle}) supplies dynamic facts (guard values, branch
    directions, memory addresses) for correct-path µops. Wrong-path µops
    (fetched past a misprediction) and phantom µops (wish-loop extra
    iterations, paper Section 3.2) are fetched from the same image, so
    their resource consumption is modelled faithfully.

    Pipeline model per cycle: completion events → retire → rename/dispatch
    → issue → fetch. The fetch-to-rename delay line realizes the front-end
    depth, which sets the ~30-cycle minimum misprediction penalty of
    Table 2. *)

open Wish_isa
module Ring = Wish_util.Ring
module Heap = Wish_util.Heap
module Stats = Wish_util.Stats
module Hybrid = Wish_bpred.Hybrid
module Btb = Wish_bpred.Btb
module Ras = Wish_bpred.Ras
module Confidence = Wish_bpred.Confidence
module Loop_pred = Wish_bpred.Loop_pred
module Hierarchy = Wish_mem.Hierarchy

type fetch_path = F_correct | F_wrong | F_phantom | F_stopped

exception Deadlock of string

(* Decoded-µop memo: every per-static-PC fact the fetch path derives from
   an instruction, computed once and reused for every dynamic instance.
   A direct array over the code image (kernel images are small). *)
type dinfo = {
  d_exec_class : Uop.exec_class;
  d_is_branch : bool;
  d_is_cond : bool;
  d_kind : Inst.branch_kind option;
  d_target : int option;
  d_is_wish : bool;
  d_pred_dests : Reg.preg list;
  d_complement_pair : (Reg.preg * Reg.preg) option;
}

(* Completion events live in a {!Wheel}: one bucket per future cycle.
   The horizon exceeds any single-access latency (L1+L2+300-cycle
   memory); bank-conflict queueing can in principle push a completion
   past it, and such far events go to the wheel's rotation-indexed
   overflow table. *)
let wheel_horizon = 1024

(* A fetch group: µops in fetch order, consumed from [next] by rename.
   Plain array + cursor instead of the previous [Uop.t list ref]. *)
type fgroup = { ready_cycle : int; uops : Uop.t array; mutable next : int }

(* Grow-only per-address buffer of pending store ids. Buffers are reused
   across occupancy cycles of the same address, so steady-state store
   tracking allocates nothing. *)
type ibuf = { mutable ids : int array; mutable len : int }

(* Per-µop and per-branch counters, resolved to their cells once at
   creation: the pipeline stages bump these several times per µop, and
   hashing the counter name each time is measurable on the hot path. *)
type hot_counters = {
  c_fetched : int ref;
  c_nops : int ref;
  c_icache_stalls : int ref;
  c_divergences : int ref;
  c_btb_misses : int ref;
  c_nofetch : int ref;
  c_phantom_entries : int ref;
  c_renamed : int ref;
  c_issued : int ref;
  c_load_latency : int ref;
  c_loads : int ref;
  c_retired : int ref;
  c_retired_correct : int ref;
  c_retired_guard_false : int ref;
  c_retired_phantom : int ref;
  c_cond_retired : int ref;
  c_misp_retired : int ref;
  c_misp_resolved : int ref;
  c_flushes : int ref;
  c_flush_delay : int ref;
  c_wish_retired : int ref;
  c_wish_loop_retired : int ref;
}

let hot_counters stats =
  let c = Stats.counter stats in
  {
    c_fetched = c "fetched_uops";
    c_nops = c "nops_eliminated";
    c_icache_stalls = c "icache_stalls";
    c_divergences = c "divergences";
    c_btb_misses = c "btb_misses";
    c_nofetch = c "nofetch_dropped";
    c_phantom_entries = c "phantom_entries";
    c_renamed = c "renamed_uops";
    c_issued = c "issued_uops";
    c_load_latency = c "load_latency_total";
    c_loads = c "load_count";
    c_retired = c "retired_uops";
    c_retired_correct = c "retired_correct";
    c_retired_guard_false = c "retired_guard_false";
    c_retired_phantom = c "retired_phantom";
    c_cond_retired = c "cond_branches_retired";
    c_misp_retired = c "mispredicts_retired";
    c_misp_resolved = c "mispredicts_resolved";
    c_flushes = c "flushes";
    c_flush_delay = c "flush_delay_total";
    c_wish_retired = c "wish_retired";
    c_wish_loop_retired = c "wish_loop_retired";
  }

(* Long-lived microarchitectural state a sampled simulation keeps warm
   between detailed windows and hands a compiled window core
   ({!Compiled.create}) at creation. *)
type warm_state = {
  warm_hybrid : Hybrid.t;
  warm_btb : Btb.t;
  warm_ras : Ras.t;
  warm_conf : Confidence.t;
  warm_loop : Loop_pred.t;
  warm_hier : Hierarchy.t;
}

type t = {
  config : Config.t;
  code : Code.t;
  decode : dinfo option array; (* per-static-PC µop-translation memo *)
  oracle : Oracle.t;
  hybrid : Hybrid.t;
  btb : Btb.t;
  ras : Ras.t;
  conf : Confidence.t;
  loop_pred : Loop_pred.t;
  hier : Hierarchy.t;
  rat : Rat.t;
  rob : Uop.t Ring.t;
  in_flight : (int, Uop.t) Hashtbl.t;
  ready : Heap.t;
  events : Wheel.t; (* completion calendar wheel, µop ids *)
  pending_stores : (int, ibuf) Hashtbl.t; (* byte addr -> store µop ids *)
  fsm : Wish_fsm.t;
  stats : Stats.t;
  hot : hot_counters;
  mutable cycle : int;
  mutable next_id : int;
  mutable fetch_pc : int;
  mutable fetch_path : fetch_path;
  mutable fetch_stall_until : int;
  mutable last_fetch_line : int;
  feq : fgroup Queue.t; (* fetch-to-rename delay line *)
  mutable feq_uops : int; (* occupancy of the fetch-to-rename delay line *)
  mutable halted : bool;
  mutable last_retire_cycle : int;
  mem_words : int;
  (* µop free pools (plain / branch-carrying): retired and squashed µops
     are reinitialized instead of reallocated, so steady-state fetch
     allocates nothing. Pool occupancy is bounded by the maximum number
     of µops ever in flight (ROB + fetch queue). *)
  mutable pool_plain : Uop.t list;
  mutable pool_branch : Uop.t list;
}

(** [create config program trace] — a whole-run core from a cold
    machine. *)
let create config (program : Program.t) trace =
  let stats = Stats.create () in
  let code = Program.code program in
  {
    config;
    code;
    decode = Array.make (Code.length code) None;
    oracle = Oracle.create code trace;
    hybrid = Hybrid.create config.Config.bpred;
    btb = Btb.create ~entries:config.btb_entries ~ways:config.btb_ways;
    ras = Ras.create ~entries:config.ras_entries;
    conf = Confidence.create config.conf;
    loop_pred = Loop_pred.create ();
    hier = Hierarchy.create config.hier;
    rat = Rat.create ();
    rob = Ring.create config.rob_size;
    in_flight = Hashtbl.create 2048;
    ready = Heap.create ();
    events = Wheel.create ~horizon:wheel_horizon;
    pending_stores = Hashtbl.create 64;
    fsm = Wish_fsm.create ();
    stats;
    hot = hot_counters stats;
    cycle = 0;
    next_id = 0;
    fetch_pc = program.entry;
    fetch_path = F_correct;
    fetch_stall_until = 0;
    last_fetch_line = -1;
    feq = Queue.create ();
    feq_uops = 0;
    halted = false;
    last_retire_cycle = 0;
    mem_words = program.mem_words;
    pool_plain = [];
    pool_branch = [];
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* ----------------------------------------------------------------- *)
(* Fetch                                                              *)
(* ----------------------------------------------------------------- *)

let exec_class_of (i : Inst.t) =
  match i.op with
  | Inst.Alu { op = Inst.Mul; _ } -> Uop.Ec_mul
  | Inst.Alu _ | Inst.Cmp _ | Inst.Pset _ -> Uop.Ec_alu
  | Inst.Load _ -> Uop.Ec_load
  | Inst.Store _ -> Uop.Ec_store
  | Inst.Branch _ | Inst.Jump _ | Inst.Call _ | Inst.Return | Inst.Halt -> Uop.Ec_ctrl
  | Inst.Nop -> Uop.Ec_nop

let dinfo_of (inst : Inst.t) =
  {
    d_exec_class = exec_class_of inst;
    d_is_branch = Inst.is_branch inst;
    d_is_cond = Inst.is_conditional inst;
    d_kind = Inst.branch_kind inst;
    d_target = Inst.direct_target inst;
    d_is_wish = Inst.is_wish inst;
    d_pred_dests = Inst.pred_dests inst;
    d_complement_pair =
      (match inst.op with
      | Inst.Cmp { dst_true; dst_false = Some pf; _ } -> Some (dst_true, pf)
      | _ -> None);
  }

(* The fetch path decodes via this memo; [pc] is always in code range
   there (fetch checks before reading the image). *)
let dinfo_at t pc (inst : Inst.t) =
  match Array.unsafe_get t.decode pc with
  | Some d -> d
  | None ->
    let d = dinfo_of inst in
    Array.unsafe_set t.decode pc (Some d);
    d

(* Synthesized wrong-path data address: deterministic and in range. *)
let synth_addr t pc = Wish_util.Rng.hash_int pc mod t.mem_words * Code.word_bytes

let uop_path_of = function
  | F_correct -> Uop.Correct
  | F_wrong -> Uop.Wrong
  | F_phantom -> Uop.Phantom
  | F_stopped -> assert false

(* Acquire a µop from the matching pool (or allocate its one-time
   skeleton) and reinitialize every field under a fresh id. *)
let make_uop t ~pc ~(inst : Inst.t) ~exec_class ~path ~guard_false ~guard_forwarded ~byte_addr
    ~consumes_trace ~is_select ~is_pair_compute ~trace_idx ~branch =
  let u =
    if branch then (
      match t.pool_branch with
      | u :: rest ->
        t.pool_branch <- rest;
        u
      | [] -> Uop.fresh ~branch:true)
    else
      match t.pool_plain with
      | u :: rest ->
        t.pool_plain <- rest;
        u
      | [] -> Uop.fresh ~branch:false
  in
  u.Uop.id <- fresh_id t;
  u.pc <- pc;
  u.inst <- inst;
  u.path <- path;
  u.exec_class <- exec_class;
  u.byte_addr <- byte_addr;
  u.guard_false <- guard_false;
  u.guard_forwarded <- guard_forwarded;
  u.is_select <- is_select;
  u.is_pair_compute <- is_pair_compute;
  u.consumes_trace <- consumes_trace;
  u.mode_at_fetch <- Wish_fsm.mode t.fsm;
  u.trace_idx <- trace_idx;
  u.fetch_cycle <- t.cycle;
  u.pending <- 0;
  u.nwaiters <- 0;
  u.state <- Uop.Waiting;
  u.flushed <- false;
  u.complete_cycle <- -1;
  u

(* Return a dead µop (retired, or squashed by a flush) to its pool. Stale
   references in the ready heap, the event wheel, and producers' waiter
   arrays hold only its now-dead id, which can no longer match anything
   in [in_flight]; the storage is safe to reuse under a fresh id at once.
   The predictor records are dropped eagerly; the RAT checkpoint buffer
   is kept for {!Rat.copy_into} at the next incarnation's rename. *)
let recycle t (u : Uop.t) =
  match u.Uop.br with
  | None -> t.pool_plain <- u :: t.pool_plain
  | Some b ->
    b.lookup <- None;
    b.snapshot <- None;
    t.pool_branch <- u :: t.pool_branch

let trace_idx_of (entry : Oracle.entry option) =
  match entry with Some e -> e.index | None -> -1

(* Decide the fetch-time facts of a branch: prediction, wish-mode
   transition, RAS and BTB effects. Returns the µop, the followed
   direction, the next fetch pc, any BTB bubble, and the oracle direction. *)
let fetch_branch t ~pc ~(inst : Inst.t) ~(di : dinfo) ~path ~(entry : Oracle.entry option) =
  let knobs = t.config.Config.knobs in
  let guard_false =
    match entry with Some e -> not e.guard_true | None -> path = F_phantom
  in
  let is_cond = di.d_is_cond in
  let kind = di.d_kind in
  let is_wish_hw =
    t.config.wish_hardware
    &&
    match kind with
    | Some (Inst.Wish_jump | Inst.Wish_join | Inst.Wish_loop) -> true
    | Some Inst.Cond | None -> false
  in
  let static_target = di.d_target in
  let lookup = if is_cond then Some (Hybrid.predict t.hybrid ~pc) else None in
  let conf_history = Hybrid.global_history t.hybrid in
  let base_dir =
    match inst.op with
    | Inst.Branch _ ->
      let l = Option.get lookup in
      if knobs.perfect_bp then
        (match (path, entry) with
        | _, Some e -> e.taken
        | F_phantom, None -> false
        | _, None -> l.taken)
      else l.taken
    | Inst.Jump _ | Inst.Call _ | Inst.Return -> true
    | _ -> assert false
  in
  (* The wish-loop predictor: exact trip predictions may override the
     direction predictor in any mode; the overestimate-biased prediction is
     only followed in low-confidence mode, where overshooting turns flushes
     into cheap late-exits (paper Section 3.2). *)
  let loop_prediction =
    if
      t.config.use_loop_predictor && kind = Some Inst.Wish_loop && t.config.wish_hardware
      && not knobs.perfect_bp
    then Loop_pred.predict t.loop_pred ~pc
    else Loop_pred.No_prediction
  in
  let dir_high =
    match loop_prediction with Loop_pred.Exact d -> d | _ -> base_dir
  in
  let dir_low =
    match loop_prediction with
    | Loop_pred.Exact d | Loop_pred.Biased d -> d
    | Loop_pred.No_prediction -> base_dir
  in
  let conf_high, final_dir, loop_gen =
    if is_wish_hw then begin
      let k = Option.get kind in
      let actual_for_conf =
        match entry with Some e -> e.taken | None -> if path = F_phantom then false else dir_high
      in
      let high =
        if knobs.perfect_conf then dir_high = actual_for_conf
        else Confidence.is_high_confidence t.conf ~pc ~history:conf_history
      in
      let target = Option.value static_target ~default:(pc + 1) in
      let in_low_before = Wish_fsm.mode t.fsm = Uop.Low_conf in
      let dir =
        Wish_fsm.on_wish_branch t.fsm ~kind:k ~pc ~target ~conf_high:high
          ~predictor_dir:(if high then dir_high else dir_low)
          ~guard:inst.guard
      in
      let effective_high =
        if in_low_before && (k = Inst.Wish_jump || k = Inst.Wish_join) then false else high
      in
      let gen = Wish_fsm.loop_generation t.fsm ~pc in
      if k = Inst.Wish_loop then Wish_fsm.record_loop_prediction t.fsm ~pc ~dir;
      (Some effective_high, dir, gen)
    end
    else (None, base_dir, 0)
  in
  let snapshot =
    (* Global history is updated with the predictor's output; the forced
       not-taken of low-confidence mode is an override mux downstream of
       the predictor and does not rewrite history, which preserves
       cross-branch correlations for later branches. *)
    let history_dir =
      match (lookup, conf_high) with
      | Some l, Some false -> l.Hybrid.taken
      | _ -> final_dir
    in
    if is_cond then Some (Hybrid.spec_update t.hybrid ~pc ~dir:history_dir) else None
  in
  if t.config.use_loop_predictor && kind = Some Inst.Wish_loop then
    Loop_pred.spec_iterate t.loop_pred ~pc ~taken:final_dir;
  (match inst.op with Inst.Call _ -> Ras.push t.ras (pc + 1) | _ -> ());
  let ras_predicted = match inst.op with Inst.Return -> Ras.pop t.ras | _ -> -1 in
  let ras_top = Ras.snapshot t.ras in
  let predicted_target =
    if not final_dir then pc + 1
    else
      match inst.op with
      | Inst.Return -> ras_predicted
      | _ -> Option.value static_target ~default:(pc + 1)
  in
  let actual_taken, actual_next =
    match (path, entry) with
    | _, Some e ->
      let next =
        match inst.op with
        | Inst.Return -> e.next_pc
        | _ -> if e.taken then Option.value static_target ~default:e.next_pc else pc + 1
      in
      (e.taken, next)
    | F_phantom, None -> (false, pc + 1)
    | _, None -> (final_dir, predicted_target)
  in
  let btb_bubble =
    if final_dir && not knobs.perfect_bp then begin
      match Btb.lookup t.btb ~pc with
      | Some _ -> 0
      | None ->
        incr t.hot.c_btb_misses;
        t.config.btb_miss_penalty
    end
    else 0
  in
  let uop =
    make_uop t ~pc ~inst ~exec_class:di.d_exec_class ~path:(uop_path_of path) ~guard_false
      ~guard_forwarded:false ~byte_addr:(-1) ~consumes_trace:(entry <> None)
      ~trace_idx:(trace_idx_of entry) ~is_select:false ~is_pair_compute:false ~branch:true
  in
  let b = match uop.Uop.br with Some b -> b | None -> assert false in
  b.predicted_taken <- final_dir;
  b.predicted_target <- predicted_target;
  b.actual_taken <- actual_taken;
  b.actual_next <- actual_next;
  b.lookup <- lookup;
  b.snapshot <- snapshot;
  b.ras_top <- ras_top;
  b.cursor_next <- Oracle.cursor t.oracle;
  (* Attribute a wish branch to the mode its own confidence estimate
     selected, even when a transition (e.g. immediate loop exit) moved
     the FSM on (paper Section 3.5.4, footnote 7). *)
  b.fetch_mode <-
    (match conf_high with
    | Some true -> Uop.High_conf
    | Some false -> Uop.Low_conf
    | None -> Wish_fsm.mode t.fsm);
  b.conf_high <- conf_high;
  b.conf_history <- conf_history;
  b.wish_kind <- (if is_wish_hw then kind else None);
  b.is_return <- (match inst.op with Inst.Return -> true | _ -> false);
  b.loop_gen <- loop_gen;
  b.resolved <- false;
  b.loop_class <- Uop.Lc_none;
  (uop, final_dir, predicted_target, btb_bubble, actual_taken)

(* µop-translate a non-branch instruction; may yield two µops under the
   select-µop mechanism. *)
let translate_plain t ~pc ~(inst : Inst.t) ~(di : dinfo) ~path ~(entry : Oracle.entry option) =
  let knobs = t.config.Config.knobs in
  let guard_false =
    match (entry, path) with
    | Some e, _ -> not e.guard_true
    | None, F_phantom -> true
    | None, _ -> false
  in
  let byte_addr =
    match inst.op with
    | Inst.Load _ | Inst.Store _ -> (
      match (entry, path) with
      | Some e, _ -> if e.addr >= 0 then e.addr * Code.word_bytes else -1
      | None, F_wrong -> synth_addr t pc
      | None, _ -> -1)
    | _ -> -1
  in
  (* Predicate-dependency elimination (Section 3.5.3): consult the buffer
     before this µop's own predicate writes invalidate entries. The
     predicted-FALSE case is treated as fully forwarded as well — a minor
     idealization since its result would be a move from the old value. *)
  let forwarded =
    if inst.guard = Reg.p0 then None else Wish_fsm.forwarded_value t.fsm inst.guard
  in
  let pdsts = di.d_pred_dests in
  if pdsts <> [] then
    Wish_fsm.on_decode_writes t.fsm pdsts ~complement_pair:di.d_complement_pair;
  let guard_forwarded = forwarded <> None || knobs.no_depend in
  let consumes = entry <> None in
  let predicated = inst.guard <> Reg.p0 && not guard_forwarded in
  match t.config.mech with
  | Config.Select_uop
    when predicated
         && (match inst.op with
            | Inst.Cmp { unc = true; _ } -> false (* writes regardless of guard *)
            | Inst.Alu _ | Inst.Cmp _ | Inst.Pset _ -> true
            | _ -> false) ->
    (* Computation µop executes without the guard; the select µop merges
       the computed and old values once the guard resolves. *)
    let compute =
      make_uop t ~pc ~inst ~exec_class:di.d_exec_class ~path:(uop_path_of path) ~guard_false
        ~guard_forwarded:false ~byte_addr ~consumes_trace:consumes
        ~trace_idx:(trace_idx_of entry) ~is_select:false ~is_pair_compute:true ~branch:false
    in
    let select =
      make_uop t ~pc ~inst ~exec_class:di.d_exec_class ~path:(uop_path_of path) ~guard_false
        ~guard_forwarded:false ~byte_addr ~consumes_trace:false
        ~trace_idx:(trace_idx_of entry) ~is_select:true ~is_pair_compute:false ~branch:false
    in
    [ compute; select ]
  | Config.Select_uop | Config.C_style ->
    [
      make_uop t ~pc ~inst ~exec_class:di.d_exec_class ~path:(uop_path_of path) ~guard_false
        ~guard_forwarded ~byte_addr ~consumes_trace:consumes ~trace_idx:(trace_idx_of entry)
        ~is_select:false ~is_pair_compute:false ~branch:false;
    ]

(* The fetch-to-rename delay line has one latch per stage: when rename
   stalls (ROB full or a long-latency head), fetch back-pressures instead
   of running arbitrarily far down the wrong path. *)
let feq_capacity t = t.config.Config.frontend_depth * t.config.fetch_width

let fetch_stage t =
  if
    t.fetch_path = F_stopped || t.cycle < t.fetch_stall_until || t.halted
    || t.feq_uops >= feq_capacity t
  then ()
  else begin
    let budget = ref t.config.fetch_width in
    let cond_branches = ref 0 in
    let group = ref [] in
    (* [group] is kept youngest-first (cons); [gcount] avoids List.length
       on the hot path and sizes the final array directly. *)
    let gcount = ref 0 in
    let continue = ref true in
    while !continue && !budget > 0 do
      let pc = t.fetch_pc in
      if not (Code.in_range t.code pc) then begin
        (* Speculative fetch ran off the image: idle until the flush. *)
        t.fetch_path <- F_stopped;
        continue := false
      end
      else begin
        let line = Code.byte_pc pc / t.config.hier.l1i.line_bytes in
        let stall =
          if line <> t.last_fetch_line then begin
            let lat = Hierarchy.access_inst t.hier ~now:t.cycle ~byte_addr:(Code.byte_pc pc) in
            t.last_fetch_line <- line;
            lat
          end
          else 0
        in
        if stall > 0 then begin
          t.fetch_stall_until <- t.cycle + stall;
          incr t.hot.c_icache_stalls;
          continue := false
        end
        else begin
          Wish_fsm.on_fetch_pc t.fsm ~pc;
          let inst = Code.get t.code pc in
          let di = dinfo_at t pc inst in
          let entry =
            match t.fetch_path with
            | F_correct -> (
              match Oracle.consume t.oracle ~pc with
              | Some e -> Some e
              | None ->
                (* Left the correct path: an older branch mispredicted. *)
                t.fetch_path <- F_wrong;
                incr t.hot.c_divergences;
                None)
            | F_wrong | F_phantom -> None
            | F_stopped -> assert false
          in
          let path = t.fetch_path in
          match inst.op with
          | Inst.Nop ->
            (* NOPs are eliminated at µop translation (paper Section 4.1). *)
            incr t.hot.c_nops;
            t.fetch_pc <- pc + 1
          | Inst.Halt when path <> F_correct ->
            t.fetch_path <- F_stopped;
            continue := false
          | _ ->
            let is_br = di.d_is_branch in
            let drop =
              t.config.knobs.no_fetch && (not is_br)
              && (match entry with Some e -> not e.guard_true | None -> false)
            in
            if drop then begin
              incr t.hot.c_nofetch;
              t.fetch_pc <- pc + 1
            end
            else if is_br then begin
              if di.d_is_cond && !cond_branches >= t.config.max_cond_branches
              then continue := false
              else begin
                let uop, dir, target, bubble, actual_taken =
                  fetch_branch t ~pc ~inst ~di ~path ~entry
                in
                group := uop :: !group;
                incr gcount;
                decr budget;
                if di.d_is_cond then incr cond_branches;
                incr t.hot.c_fetched;
                (* Phantom transitions for low-confidence wish loops. *)
                (match (path, di.d_kind) with
                | (F_correct | F_phantom), Some Inst.Wish_loop
                  when (match uop.br with
                       | Some b -> b.fetch_mode = Uop.Low_conf || path = F_phantom
                       | None -> false) -> (
                  match (dir, actual_taken, path) with
                  | true, false, F_correct ->
                    (* Iterating past the real exit: extra iterations flow
                       through as NOPs unless a flush cuts them short. *)
                    t.fetch_path <- F_phantom;
                    incr t.hot.c_phantom_entries
                  | false, _, F_phantom ->
                    (* Predicted exit while phantom: reconverge. *)
                    t.fetch_path <- F_correct
                  | _ -> ())
                | _ -> ());
                t.fetch_pc <- (if dir then target else pc + 1);
                if bubble > 0 then begin
                  t.fetch_stall_until <- t.cycle + bubble;
                  continue := false
                end
                else if dir then continue := false (* fetch ends at a taken branch *)
              end
            end
            else begin
              let uops = translate_plain t ~pc ~inst ~di ~path ~entry in
              let n = match uops with [ _ ] -> 1 | _ -> List.length uops in
              List.iter (fun u -> group := u :: !group) uops;
              gcount := !gcount + n;
              budget := !budget - n;
              t.hot.c_fetched := !(t.hot.c_fetched) + n;
              (match inst.op with
              | Inst.Halt ->
                t.fetch_path <- F_stopped;
                continue := false
              | _ -> ());
              t.fetch_pc <- pc + 1
            end
        end
      end
    done;
    match !group with
    | [] -> ()
    | youngest :: older ->
      (* Materialize the group oldest-first in one pass (no List.rev). *)
      let n = !gcount in
      let uops = Array.make n youngest in
      let rec fill i = function
        | [] -> ()
        | u :: tl ->
          uops.(i) <- u;
          fill (i - 1) tl
      in
      fill (n - 2) older;
      t.feq_uops <- t.feq_uops + n;
      Queue.push { ready_cycle = t.cycle + t.config.frontend_depth; uops; next = 0 } t.feq
  end

(* ----------------------------------------------------------------- *)
(* Rename / dispatch                                                  *)
(* ----------------------------------------------------------------- *)

let add_dependency t (u : Uop.t) producer_id =
  if producer_id >= 0 then
    match Hashtbl.find t.in_flight producer_id with
    | p when p.Uop.state <> Uop.Done ->
      Uop.add_waiter p u.id;
      u.pending <- u.pending + 1
    | _ | (exception Not_found) -> ()

let mark_ready t (u : Uop.t) =
  u.state <- Uop.In_ready_queue;
  Heap.push t.ready u.id

let track_store t (u : Uop.t) =
  if u.exec_class = Uop.Ec_store && u.byte_addr >= 0 && not u.guard_false then begin
    let buf =
      match Hashtbl.find_opt t.pending_stores u.byte_addr with
      | Some b -> b
      | None ->
        let b = { ids = Array.make 4 0; len = 0 } in
        Hashtbl.add t.pending_stores u.byte_addr b;
        b
    in
    if buf.len = Array.length buf.ids then begin
      let bigger = Array.make (2 * buf.len) 0 in
      Array.blit buf.ids 0 bigger 0 buf.len;
      buf.ids <- bigger
    end;
    buf.ids.(buf.len) <- u.id;
    buf.len <- buf.len + 1
  end

let untrack_store t (u : Uop.t) =
  if u.exec_class = Uop.Ec_store && u.byte_addr >= 0 && not u.guard_false then begin
    match Hashtbl.find_opt t.pending_stores u.byte_addr with
    | None -> ()
    | Some buf ->
      (* Membership set: drop by swapping with the last entry. The empty
         buffer stays in the table for the next store to this address. *)
      let i = ref 0 in
      while !i < buf.len do
        if buf.ids.(!i) = u.id then begin
          buf.len <- buf.len - 1;
          buf.ids.(!i) <- buf.ids.(buf.len)
        end
        else incr i
      done
  end

(* Rename one µop: resolve producers, update the RAT, checkpoint branches. *)
let rename_uop t (u : Uop.t) ~select_producer =
  let inst = u.inst in
  Hashtbl.replace t.in_flight u.id u;
  if not u.is_select then
    List.iter (fun r -> add_dependency t u (Rat.int_producer t.rat r)) (Inst.int_srcs inst);
  (match select_producer with Some pid -> add_dependency t u pid | None -> ());
  (* Guard dependence: branches always wait for their condition; a select
     pair's computation µop never waits (that is the point of the
     mechanism); otherwise the forwarding decision from fetch applies. *)
  let guard_needed =
    inst.guard <> Reg.p0
    &&
    match inst.op with
    | Inst.Branch _ | Inst.Jump _ | Inst.Call _ | Inst.Return -> true
    | _ -> (not u.is_pair_compute) && not u.guard_forwarded
  in
  if guard_needed then add_dependency t u (Rat.pred_producer t.rat inst.guard);
  (* Old destination values: C-style predicated µops and select µops read
     them; memory µops keep C-style handling under both mechanisms. *)
  let needs_old_dest =
    inst.guard <> Reg.p0 && (not u.guard_forwarded) && (not u.is_pair_compute)
    && (not t.config.knobs.no_depend)
    && (match inst.op with Inst.Cmp { unc = true; _ } -> false | _ -> true)
    &&
    match t.config.mech with
    | Config.C_style -> not (Inst.is_branch inst)
    | Config.Select_uop -> (
      u.is_select
      ||
      match inst.op with
      | Inst.Load _ | Inst.Store _ -> true
      | _ -> false)
  in
  if needs_old_dest then begin
    (match Inst.int_dest inst with
    | Some d -> add_dependency t u (Rat.int_producer t.rat d)
    | None -> ());
    List.iter
      (fun p -> add_dependency t u (Rat.pred_producer t.rat p))
      (Inst.pred_dests inst)
  end;
  (* Destinations: the computation half of a select pair writes only a
     temporary consumed by its select µop. *)
  if not u.is_pair_compute then begin
    (match Inst.int_dest inst with Some d -> Rat.set_int t.rat d u.id | None -> ());
    List.iter (fun p -> Rat.set_pred t.rat p u.id) (Inst.pred_dests inst)
  end;
  (match u.br with
  | Some b -> (
    match b.rat_ckpt with
    | Some s -> Rat.copy_into t.rat s (* reuse the pooled checkpoint buffer *)
    | None -> b.rat_ckpt <- Some (Rat.snapshot t.rat))
  | None -> ());
  track_store t u;
  Ring.push t.rob u;
  incr t.hot.c_renamed;
  if u.pending = 0 then mark_ready t u

let rename_stage t =
  let budget = ref t.config.rename_width in
  let continue = ref true in
  while !continue && !budget > 0 do
    match Queue.peek_opt t.feq with
    | Some g when g.ready_cycle <= t.cycle ->
      if g.next >= Array.length g.uops then ignore (Queue.pop t.feq)
      else begin
        let u = g.uops.(g.next) in
        if Ring.is_full t.rob then continue := false
        else begin
          (* A select µop consumes the computation µop created immediately
             before it — ids are consecutive by construction, which holds
             across rename-cycle boundaries and flushes (pairs are fetched,
             renamed and squashed together). *)
          let select_producer = if u.is_select then Some (u.id - 1) else None in
          rename_uop t u ~select_producer;
          decr budget;
          t.feq_uops <- t.feq_uops - 1;
          g.next <- g.next + 1
        end
      end
    | Some _ | None -> continue := false
  done

(* ----------------------------------------------------------------- *)
(* Issue / execute                                                    *)
(* ----------------------------------------------------------------- *)

let schedule_completion t (u : Uop.t) latency =
  let c = t.cycle + max 1 latency in
  u.complete_cycle <- c;
  Wheel.schedule t.events ~now:t.cycle ~due:c ~id:u.id

(* Loads wait for older incomplete stores to the same address (addresses
   are known at rename, so disambiguation is idealized-perfect). *)
let load_blocked t (u : Uop.t) =
  u.byte_addr >= 0
  &&
  match Hashtbl.find_opt t.pending_stores u.byte_addr with
  | None -> false
  | Some buf ->
    let blocked = ref false in
    for i = 0 to buf.len - 1 do
      if buf.ids.(i) < u.id then blocked := true
    done;
    !blocked

let latency_of t (u : Uop.t) =
  match u.exec_class with
  | Uop.Ec_nop | Uop.Ec_ctrl -> 1
  | Uop.Ec_alu -> 1
  | Uop.Ec_mul -> 3
  | Uop.Ec_store ->
    if (not u.guard_false) && u.byte_addr >= 0 then
      ignore (Hierarchy.access_data t.hier ~now:t.cycle ~byte_addr:u.byte_addr);
    1
  | Uop.Ec_load ->
    if u.guard_false || u.byte_addr < 0 then 1
    else begin
      let lat = Hierarchy.access_data t.hier ~now:t.cycle ~byte_addr:u.byte_addr in
      t.hot.c_load_latency := !(t.hot.c_load_latency) + lat;
      incr t.hot.c_loads;
      lat
    end

let issue_stage t =
  let budget = ref t.config.issue_width in
  let deferred = ref [] in
  while !budget > 0 && not (Heap.is_empty t.ready) do
    match Heap.pop t.ready with
    | None -> budget := 0
    | Some id -> (
      match Hashtbl.find t.in_flight id with
      | exception Not_found -> () (* flushed *)
      | u when u.flushed || u.state <> Uop.In_ready_queue -> ()
      | u ->
        if u.exec_class = Uop.Ec_load && load_blocked t u then
          deferred := id :: !deferred
        else begin
          u.state <- Uop.Issued;
          schedule_completion t u (latency_of t u);
          decr budget;
          incr t.hot.c_issued
        end)
  done;
  List.iter (fun id -> Heap.push t.ready id) !deferred

(* ----------------------------------------------------------------- *)
(* Recovery                                                           *)
(* ----------------------------------------------------------------- *)

(* Undo the speculative predictor state of a squashed µop (called
   youngest-first over everything younger than the recovering branch). *)
let undo_speculative t (u : Uop.t) =
  match u.br with
  | Some b -> (
    match b.snapshot with Some s -> Hybrid.restore t.hybrid s | None -> ())
  | None -> ()

let recover t (u : Uop.t) =
  let b = Option.get u.br in
  incr t.hot.c_flushes;
  Stats.incr t.stats (Printf.sprintf "flush@pc%d" u.pc);
  t.hot.c_flush_delay := !(t.hot.c_flush_delay) + (t.cycle - u.fetch_cycle);
  (* Squash everything younger: first the fetch queue (youngest), then the
     ROB suffix, each iterated youngest-first for exact history repair. *)
  let feq_groups = List.of_seq (Queue.to_seq t.feq) in
  List.iter
    (fun g ->
      (* Only the not-yet-renamed suffix is still in the front end. *)
      for i = Array.length g.uops - 1 downto g.next do
        undo_speculative t g.uops.(i);
        recycle t g.uops.(i)
      done)
    (List.rev feq_groups);
  Queue.clear t.feq;
  t.feq_uops <- 0;
  (match Ring.find_index t.rob (fun (x : Uop.t) -> x.id = u.id) with
  | None -> assert false
  | Some idx ->
    let dropped = Ring.drop_from t.rob (idx + 1) in
    List.iter
      (fun (d : Uop.t) ->
        d.flushed <- true;
        undo_speculative t d;
        untrack_store t d;
        Hashtbl.remove t.in_flight d.id;
        recycle t d)
      (List.rev dropped));
  (* Repair this branch's own history with the actual outcome. *)
  (match b.snapshot with
  | Some s -> Hybrid.correct t.hybrid s ~dir:b.actual_taken
  | None -> ());
  (match b.rat_ckpt with Some s -> Rat.restore t.rat s | None -> assert false);
  Ras.restore t.ras b.ras_top;
  Oracle.restore t.oracle b.cursor_next;
  if t.config.use_loop_predictor then Loop_pred.squash_all t.loop_pred;
  Wish_fsm.reset t.fsm;
  t.fetch_pc <- b.actual_next;
  t.fetch_path <- F_correct;
  t.fetch_stall_until <- t.cycle + 1;
  t.last_fetch_line <- -1

(* ----------------------------------------------------------------- *)
(* Branch resolution                                                  *)
(* ----------------------------------------------------------------- *)

let resolve_branch t (u : Uop.t) =
  let b = Option.get u.br in
  b.resolved <- true;
  (* Train the BTB with taken branches (wrong-path ones excluded). *)
  (if u.path <> Uop.Wrong && b.actual_taken then
     let di = dinfo_at t u.pc u.inst in
     Btb.insert t.btb ~pc:u.pc
       ~target:(Option.value di.d_target ~default:(u.pc + 1))
       ~is_wish:di.d_is_wish);
  if u.path = Uop.Wrong then ()
  else if Uop.mispredicted b then begin
    incr t.hot.c_misp_resolved;
    let flush_needed =
      match (b.wish_kind, b.fetch_mode) with
      | Some (Inst.Wish_jump | Inst.Wish_join), Uop.Low_conf ->
        (* Predicated execution covers the wrong prediction: no flush. *)
        false
      | Some Inst.Wish_loop, Uop.Low_conf ->
        if b.actual_taken then begin
          (* Early exit: the loop must run longer; flush and refetch. *)
          b.loop_class <- Uop.Lc_early;
          true
        end
        else (
          match Wish_fsm.last_loop_prediction t.fsm ~pc:u.pc with
          | Some (gen, _) when gen > b.loop_gen ->
            (* The front end finished that visit (it may even have
               re-entered the loop): extra iterations of the old visit flow
               through as NOPs — late exit, no flush. *)
            b.loop_class <- Uop.Lc_late;
            false
          | Some (_, false) | None ->
            b.loop_class <- Uop.Lc_late;
            false
          | Some (_, true) ->
            (* The front end is still fetching this visit: flush (no exit). *)
            b.loop_class <- Uop.Lc_no_exit;
            true)
      | _ -> true
    in
    if flush_needed then recover t u
  end

(* ----------------------------------------------------------------- *)
(* Completion and retirement                                          *)
(* ----------------------------------------------------------------- *)

let complete_uop t (u : Uop.t) =
  u.state <- Uop.Done;
  let stores_completed = u.exec_class = Uop.Ec_store in
  if stores_completed then untrack_store t u;
  for k = 0 to u.nwaiters - 1 do
    match Hashtbl.find t.in_flight u.waiters.(k) with
    | w when (not w.Uop.flushed) && w.state = Uop.Waiting ->
      w.pending <- w.pending - 1;
      if w.pending = 0 then mark_ready t w
    | _ | (exception Not_found) -> ()
  done;
  u.nwaiters <- 0;
  if Uop.is_branch_uop u && not u.flushed then resolve_branch t u

let process_events t =
  (* Ascending-id drain: oldest-first so the oldest misprediction wins the
     flush. A squashed µop left [in_flight] when it was marked flushed, and
     a recycled one carries a fresh id: both are stale events to skip. *)
  Wheel.drain t.events ~now:t.cycle ~f:(fun id ->
      match Hashtbl.find t.in_flight id with
      | u -> complete_uop t u
      | exception Not_found -> ())

let count_wish_retirement t (u : Uop.t) (b : Uop.branch_rec) =
  match b.wish_kind with
  | None -> ()
  | Some kind ->
    incr t.hot.c_wish_retired;
    let predictor_correct =
      match b.lookup with Some l -> l.taken = b.actual_taken | None -> true
    in
    let conf = Option.value b.conf_high ~default:false in
    let bucket =
      match (conf, predictor_correct) with
      | true, true -> "wish_high_correct"
      | true, false -> "wish_high_mispred"
      | false, true -> "wish_low_correct"
      | false, false -> "wish_low_mispred"
    in
    Stats.incr t.stats bucket;
    if kind = Inst.Wish_loop then begin
      incr t.hot.c_wish_loop_retired;
      let lbucket =
        match (conf, b.loop_class, predictor_correct) with
        | true, _, true -> "loop_high_correct"
        | true, _, false -> "loop_high_mispred"
        | false, Uop.Lc_early, _ -> "loop_low_early"
        | false, Uop.Lc_late, _ -> "loop_low_late"
        | false, Uop.Lc_no_exit, _ -> "loop_low_noexit"
        | false, Uop.Lc_none, _ -> "loop_low_correct"
      in
      Stats.incr t.stats lbucket
    end;
    ignore u

let retire_stage t =
  let budget = ref t.config.retire_width in
  let continue = ref true in
  while !continue && !budget > 0 do
    match Ring.peek t.rob with
    | Some (u : Uop.t) when u.state = Uop.Done ->
      ignore (Ring.pop t.rob);
      Hashtbl.remove t.in_flight u.id;
      untrack_store t u;
      decr budget;
      t.last_retire_cycle <- t.cycle;
      incr t.hot.c_retired;
      (match u.path with
      | Uop.Correct ->
        incr t.hot.c_retired_correct;
        if u.guard_false then incr t.hot.c_retired_guard_false
      | Uop.Phantom -> incr t.hot.c_retired_phantom
      | Uop.Wrong -> assert false);
      (match u.br with
      | Some b when u.path = Uop.Correct ->
        (* Retirement-time training keeps the tables non-speculative. *)
        (match b.lookup with
        | Some l -> Hybrid.train t.hybrid l ~taken:b.actual_taken
        | None -> ());
        if Uop.mispredicted b then begin
          incr t.hot.c_misp_retired;
          Stats.incr t.stats (Printf.sprintf "misp@pc%d" u.pc)
        end;
        if b.wish_kind <> None && not t.config.knobs.perfect_conf then begin
          let predictor_correct =
            match b.lookup with Some l -> l.taken = b.actual_taken | None -> true
          in
          Confidence.train t.conf ~pc:u.pc ~history:b.conf_history
            ~correct:predictor_correct
        end;
        if t.config.use_loop_predictor && b.wish_kind = Some Inst.Wish_loop then
          Loop_pred.train t.loop_pred ~pc:u.pc ~taken:b.actual_taken;
        if Inst.is_conditional u.inst then incr t.hot.c_cond_retired;
        count_wish_retirement t u b
      | Some _ | None -> ());
      (match u.inst.op with
      | Inst.Halt when u.path = Uop.Correct -> t.halted <- true
      | _ -> ());
      (* Retirement is the trace's low-water mark: every in-flight branch
         is younger than [u], so it was fetched after [u] consumed entry
         [u.trace_idx] — its recovery cursor, and any future oracle scan,
         sits at or above [u.trace_idx + 1]. A streaming trace may
         therefore recycle everything below that. *)
      if u.trace_idx >= 0 then Oracle.release t.oracle ~below:(u.trace_idx + 1);
      recycle t u
    | Some _ | None -> continue := false
  done

(* ----------------------------------------------------------------- *)
(* Main loop                                                          *)
(* ----------------------------------------------------------------- *)

let deadlock_report t =
  let head =
    match Ring.peek t.rob with
    | Some (u : Uop.t) ->
      Fmt.str "rob head: id=%d pc=%d %a state=%s pending=%d" u.id u.pc Inst.pp u.inst
        (match u.state with
        | Uop.Waiting -> "waiting"
        | Uop.In_ready_queue -> "ready"
        | Uop.Issued -> "issued"
        | Uop.Done -> "done")
        u.pending
    | None -> "rob empty"
  in
  Fmt.str "deadlock at cycle %d (last retire %d): %s; fetch_pc=%d path=%s cursor=%d/%d"
    t.cycle t.last_retire_cycle head t.fetch_pc
    (match t.fetch_path with
    | F_correct -> "correct"
    | F_wrong -> "wrong"
    | F_phantom -> "phantom"
    | F_stopped -> "stopped")
    (Oracle.cursor t.oracle) (Oracle.length t.oracle)

let step t =
  process_events t;
  retire_stage t;
  rename_stage t;
  issue_stage t;
  fetch_stage t;
  t.cycle <- t.cycle + 1;
  if t.cycle - t.last_retire_cycle > 1_000_000 then raise (Deadlock (deadlock_report t))

let run t =
  while (not t.halted) && t.cycle < t.config.max_cycles do
    step t
  done;
  Stats.set t.stats "cycles" t.cycle;
  t

let cycles t = t.cycle
let stats t = t.stats
let hier_stats t = Hierarchy.stats t.hier
