(** The compiled cycle-level core: {!Core} with every per-µop decode,
    option box and list replaced by pre-compiled per-pc templates
    ({!Plan}) and pooled flat storage.

    This module is a line-for-line transcription of the interpreted
    {!Core} — same stage order, same machine-state side effects in the
    same sequence — so the two produce cycle-exact, counter-for-counter
    identical results (enforced by the fuzzer's [sim] oracle and the
    [@sim-smoke] gate). {!Core} stays the golden reference those checks
    diff against; change semantics there first, then mirror here.

    What changes is purely mechanical cost:
    - fetch/decode reads {!Plan} struct-of-arrays templates instead of
      re-inspecting {!Wish_isa.Inst.t} (no [dinfo] options, no operand
      lists, r0/p0 already elided);
    - wish-branch mode transitions use the compiled 48-entry transition
      table ({!Plan.wish_table} + {!Wish_fsm.apply_packed});
    - the ready queue, ROB, fetch queue, wheel, waiter lists and register
      alias table carry plain µop ids, resolved through one flat in-flight
      table ([id land mask]) — no hashtable, and no per-slot pointer
      stores, so the hot loop pays one write barrier per µop instead of a
      dozen-plus;
    - misprediction recovery repairs the register alias table from a
      per-ROB-slot undo log (previous producer of every destination
      written), so rename never copies a full RAT checkpoint;
    - machine tables (predictors, caches) are pooled per domain and
      exactly reset between runs, so repeated runs skip {!Core.create}'s
      table construction; the pipeline scaffold is built per core.

    Identity argument for the pooled tables: every pooled table has a
    [reset] that restores the just-created state (pinned by
    [@sim-smoke]'s repeated compiled run and the seed-pinned sampled
    estimates), so a pooled run is indistinguishable from a fresh one. *)

open Wish_isa
module Hybrid = Wish_bpred.Hybrid
module Btb = Wish_bpred.Btb
module Ras = Wish_bpred.Ras
module Confidence = Wish_bpred.Confidence
module Loop_pred = Wish_bpred.Loop_pred
module Hierarchy = Wish_mem.Hierarchy

type fetch_path = F_correct | F_wrong | F_phantom | F_stopped

(* Shared immutable option constants: field assignments below must not
   allocate. *)
let some_true = Some true

let some_false = Some false

(* Fills vacated payload slots in pooled structures; never scheduled,
   renamed or mutated. *)
let dummy_uop = Uop.fresh ~branch:false

let wheel_horizon = 1024

(* ----------------------------------------------------------------- *)
(* Pooled flat structures                                             *)
(* ----------------------------------------------------------------- *)

(* Min-heap of ready µop ids. Ids only: every pointer store into a heap
   slot would cost a write barrier ([caml_modify], ~4ns even old-to-old),
   and a sift touches O(log n) slots — the id is resolved to its record
   through the in-flight table exactly once, at pop. *)
type pheap = { mutable hid : int array; mutable hlen : int }

let hp_create () = { hid = Array.make 64 0; hlen = 0 }

(* The sift loops are top-level recursions (not local closures, not refs)
   so a push/pop allocates nothing. *)
let rec hp_sift_up h i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if h.hid.(p) > h.hid.(i) then begin
      let tid = h.hid.(p) in
      h.hid.(p) <- h.hid.(i);
      h.hid.(i) <- tid;
      hp_sift_up h p
    end
  end

let rec hp_sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest =
    if l < h.hlen && h.hid.(l) < h.hid.(i) then l else i
  in
  let smallest =
    if r < h.hlen && h.hid.(r) < h.hid.(smallest) then r else smallest
  in
  if smallest <> i then begin
    let tid = h.hid.(i) in
    h.hid.(i) <- h.hid.(smallest);
    h.hid.(smallest) <- tid;
    hp_sift_down h smallest
  end

let hp_push h id =
  if h.hlen = Array.length h.hid then begin
    let ids = Array.make (2 * h.hlen) 0 in
    Array.blit h.hid 0 ids 0 h.hlen;
    h.hid <- ids
  end;
  h.hid.(h.hlen) <- id;
  h.hlen <- h.hlen + 1;
  hp_sift_up h (h.hlen - 1)

(* Returns the popped (minimum) id, or -1 if empty. *)
let hp_pop_id h =
  if h.hlen = 0 then -1
  else begin
    let root = h.hid.(0) in
    h.hlen <- h.hlen - 1;
    h.hid.(0) <- h.hid.(h.hlen);
    hp_sift_down h 0;
    root
  end

(* Register alias table: maps each architectural register to its current
   producer's µop id (-1 when architectural). Ids only — dependence
   resolution goes through the in-flight table, so a rename writes plain
   ints instead of barriered record pointers. *)
type crat = { int_id : int array; pred_id : int array }

let crat_create () =
  {
    int_id = Array.make Reg.int_reg_count (-1);
    pred_id = Array.make Reg.pred_reg_count (-1);
  }

(* A fetch group slot in the preallocated fetch-to-rename ring. Carries
   µop ids; the records live in the in-flight table. *)
type cgroup = {
  mutable ready_cycle : int;
  gids : int array; (* capacity fetch_width + 1 (select-pair overshoot) *)
  mutable glen : int;
  mutable gnext : int;
}

(* Grow-only per-address buffer of pending store ids (as in {!Core}). *)
type ibuf = { mutable ids : int array; mutable len : int }

(* ----------------------------------------------------------------- *)
(* Pipeline scaffold and machine pool                                 *)
(* ----------------------------------------------------------------- *)

(* The pipeline scaffold: every structure whose size depends only on the
   configuration, built afresh for each core.

   The in-flight table [infl_ids]/[infl_us] is the one place µop records
   are reachable from: the ROB, fetch queue, RAT, undo log, ready heap,
   wheel and waiter lists all carry plain µop ids and resolve them here.
   A µop with id [i] lives at slot [i land infl_mask] from acquisition to
   recycling; ids are never reused within a run, so a stale id held by the
   heap, wheel or a waiter list fails the slot's id match exactly like the
   old per-record [u.id = id] check. One barriered pointer store per µop
   (the insert) replaces the dozen-plus the pointer-carrying structures
   paid. *)
type scaffold = {
  rob : int array; (* µop ids; slots beyond [rob_count] are garbage *)
  mutable rob_head : int;
  mutable rob_count : int;
  wheel : Wheel.t;
  ready : pheap;
  pending_stores : (int, ibuf) Hashtbl.t; (* byte addr -> store µop ids *)
  feq : cgroup array;
  mutable feq_head : int;
  mutable feq_count : int;
  rat : crat;
  (* RAT undo log, parallel to [rob]: the previous producer id of each
     destination the µop in that slot overwrote at rename. Restoring
     youngest-first during recovery reproduces exactly the RAT the
     recovering branch saw after its own rename — a checkpoint without the
     per-branch full-table copy. Slots are written at rename before they
     can be read at squash (both guarded by the same per-pc destination
     tests), so no reset is needed. *)
  rp_int_id : int array;
  rp_p1_id : int array;
  rp_p2_id : int array;
  fsm : Wish_fsm.t;
  ebuf : Oracle.ebuf;
  mutable def_ids : int array; (* issue-stage deferred-load scratch *)
  mutable def_len : int;
  mutable pool_plain : Uop.t array;
  mutable pool_plain_len : int;
  mutable pool_branch : Uop.t array;
  mutable pool_branch_len : int;
  (* In-flight µop table, indexed by [id land infl_mask]. [infl_ids]
     holds the occupying id (-1 when free); [infl_us] the record. *)
  mutable infl_ids : int array;
  mutable infl_us : Uop.t array;
  mutable infl_mask : int;
}

let feq_group_cap config = (config.Config.frontend_depth * config.Config.fetch_width) + 2

(* In-flight table capacity: a power of two covering the maximum live µop
   count (ROB + every fetch-queue slot) with headroom. The live *id span*
   can exceed the live count when the ROB head stalls across repeated
   squashes, so inserts still check for collisions and grow. *)
let infl_capacity config =
  let need =
    config.Config.rob_size + (feq_group_cap config * (config.Config.fetch_width + 2)) + 8
  in
  let rec pow2 n = if n >= need then n else pow2 (2 * n) in
  pow2 64

let scaffold_build (config : Config.t) =
  let icap = infl_capacity config in
  {
    rob = Array.make config.rob_size (-1);
    rob_head = 0;
    rob_count = 0;
    wheel = Wheel.create ~horizon:wheel_horizon;
    ready = hp_create ();
    pending_stores = Hashtbl.create 64;
    feq =
      Array.init (feq_group_cap config) (fun _ ->
          {
            ready_cycle = 0;
            gids = Array.make (config.fetch_width + 1) (-1);
            glen = 0;
            gnext = 0;
          });
    feq_head = 0;
    feq_count = 0;
    rat = crat_create ();
    rp_int_id = Array.make config.rob_size (-1);
    rp_p1_id = Array.make config.rob_size (-1);
    rp_p2_id = Array.make config.rob_size (-1);
    fsm = Wish_fsm.create ();
    ebuf = Oracle.fresh_ebuf ();
    def_ids = Array.make 16 0;
    def_len = 0;
    pool_plain = Array.make 256 dummy_uop;
    pool_plain_len = 0;
    pool_branch = Array.make 64 dummy_uop;
    pool_branch_len = 0;
    infl_ids = Array.make icap (-1);
    infl_us = Array.make icap dummy_uop;
    infl_mask = icap - 1;
  }

(* Machine tables, pooled per domain when the caller does not supply
   pre-warmed state. [reset] on every table restores the exact
   just-created state, so a pooled acquisition is indistinguishable from
   fresh construction. *)
type machine = {
  m_sizes : Hybrid.config * int * int * int * Confidence.config * Hierarchy.config;
  m_hybrid : Hybrid.t;
  m_btb : Btb.t;
  m_ras : Ras.t;
  m_conf : Confidence.t;
  m_loop : Loop_pred.t;
  m_hier : Hierarchy.t;
}

(* The config fields the pooled tables are built from. A run whose
   config differs from the last one's only in other fields (ROB size,
   widths, knobs, wish hardware) resets the tables instead of rebuilding
   them. *)
let machine_sizes (c : Config.t) = (c.bpred, c.btb_entries, c.btb_ways, c.ras_entries, c.conf, c.hier)

let machine_build (config : Config.t) =
  {
    m_sizes = machine_sizes config;
    m_hybrid = Hybrid.create config.bpred;
    m_btb = Btb.create ~entries:config.btb_entries ~ways:config.btb_ways;
    m_ras = Ras.create ~entries:config.ras_entries;
    m_conf = Confidence.create config.conf;
    m_loop = Loop_pred.create ();
    m_hier = Hierarchy.create config.hier;
  }

let machine_reset m =
  Hybrid.reset m.m_hybrid;
  Btb.reset m.m_btb;
  Ras.reset m.m_ras;
  Confidence.reset m.m_conf;
  Loop_pred.reset m.m_loop;
  Hierarchy.reset m.m_hier

let machine_slot : machine option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The pooled tables are the 64K-entry predictor tables and the cache
   hierarchy's tag arrays. Building them per run instead raised the peak
   RSS of a cold `experiments -j 2 --no-cache` regeneration from
   382/398 MB to 447/448 MB, and from 399/400 MB to 457/457 MB in a
   second measurement (two runs a side each, 2-core Xeon). The scaffold
   is not pooled: building it per core cost no measurable time. *)
let acquire_machine config =
  let slot = Domain.DLS.get machine_slot in
  match !slot with
  | Some m when m.m_sizes = machine_sizes config ->
    machine_reset m;
    m
  | _ ->
    let m = machine_build config in
    slot := Some m;
    m

(* ----------------------------------------------------------------- *)
(* Core state                                                         *)
(* ----------------------------------------------------------------- *)

(* Fetch-time facts of a branch, filled by {!fetch_branch} for its
   caller: the followed direction, target, BTB bubble and oracle
   direction, plus join-point scratch so the wish/plain arms need not
   build tuples. Per-core (not module-global): cores on different
   domains fetch concurrently. *)
type fb_out = {
  mutable fb_dir : bool;
  mutable fb_target : int;
  mutable fb_bubble : int;
  mutable fb_actual : bool;
  mutable fb_conf : bool;
  mutable fb_fdir : bool;
  mutable fb_gen : int;
  mutable fb_anext : int;
}

type t = {
  config : Config.t;
  plan : Plan.t;
  oracle : Oracle.t;
  hybrid : Hybrid.t;
  btb : Btb.t;
  ras : Ras.t;
  conf : Confidence.t;
  loop_pred : Loop_pred.t;
  hier : Hierarchy.t;
  s : scaffold;
  counts : Counters.t;
  wish_table : int array;
  fb : fb_out; (* fetch_branch → fetch-stage result channel *)
  mutable cycle : int;
  mutable next_id : int;
  mutable fetch_pc : int;
  mutable fetch_path : fetch_path;
  mutable fetch_stall_until : int;
  mutable last_fetch_line : int;
  mutable feq_uops : int;
  mutable halted : bool;
  mutable last_retire_cycle : int;
  release_trace : bool;
  mutable retired_trace_idx : int;
  (* Stage-loop scratch: mutable fields instead of local refs so a cycle
     allocates nothing (without flambda every [ref] is a minor block). The
     stages run strictly sequentially, so sharing these is safe. *)
  mutable x_budget : int;
  mutable x_cond : int;
  mutable x_cont : bool;
  mutable drain_f : int -> unit; (* cached completion callback *)
}

let nop_drain (_ : int) = ()

(** [create ?warm ?start_cursor ?start_pc ?release_trace config program
    trace] — the default arguments give the whole-run core. Sampled
    simulation opens a detailed measurement window mid-trace by
    supplying pre-warmed long-lived state ([warm]), the trace index to
    resume the oracle at ([start_cursor]), the matching correct-path
    fetch PC ([start_pc]), and [release_trace:false] so the window never
    recycles chunks the coordinating warming pass still has to read.
    A window core starts with a cold pipeline and a reset wish-FSM — a
    documented approximation measured by the sample-sweep artifact. *)
let create ?warm ?(start_cursor = 0) ?start_pc ?(release_trace = true) (config : Config.t)
    (program : Program.t) trace =
  let plan = Plan.build config program in
  let oracle = Oracle.create (Program.code program) trace in
  if start_cursor > 0 then Oracle.restore oracle start_cursor;
  let s = scaffold_build config in
  let hybrid, btb, ras, conf, loop_pred, hier =
    match (warm : Core.warm_state option) with
    | Some w -> (w.warm_hybrid, w.warm_btb, w.warm_ras, w.warm_conf, w.warm_loop, w.warm_hier)
    | None ->
      let m = acquire_machine config in
      (m.m_hybrid, m.m_btb, m.m_ras, m.m_conf, m.m_loop, m.m_hier)
  in
  {
    config;
    plan;
    oracle;
    hybrid;
    btb;
    ras;
    conf;
    loop_pred;
    hier;
    s;
    counts = Counters.create ();
    wish_table = Plan.wish_table;
    fb =
      {
        fb_dir = false;
        fb_target = 0;
        fb_bubble = 0;
        fb_actual = false;
        fb_conf = false;
        fb_fdir = false;
        fb_gen = 0;
        fb_anext = 0;
      };
    cycle = 0;
    next_id = 0;
    fetch_pc = Option.value start_pc ~default:program.entry;
    fetch_path = F_correct;
    fetch_stall_until = 0;
    last_fetch_line = -1;
    feq_uops = 0;
    halted = false;
    last_retire_cycle = 0;
    release_trace;
    retired_trace_idx = start_cursor - 1;
    x_budget = 0;
    x_cond = 0;
    x_cont = false;
    drain_f = nop_drain;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* ----------------------------------------------------------------- *)
(* µop pool                                                           *)
(* ----------------------------------------------------------------- *)

let uop_path_of = function
  | F_correct -> Uop.Correct
  | F_wrong -> Uop.Wrong
  | F_phantom -> Uop.Phantom
  | F_stopped -> assert false

(* Insert a freshly-acquired µop into the in-flight table. The slot for
   its id is almost always free (the table covers the maximum live count);
   when a pathological id span — ROB head stalled across repeated
   squashes — wraps onto a still-live entry, the table doubles. Two live
   ids can never share a slot after doubling: they already occupied
   distinct slots, so they differ in the low [old] bits, hence in the low
   [new] bits too. *)
let rec infl_insert s id (u : Uop.t) =
  let sl = id land s.infl_mask in
  if Array.unsafe_get s.infl_ids sl >= 0 then begin
    let ocap = s.infl_mask + 1 in
    let ncap = 2 * ocap in
    let ids = Array.make ncap (-1) and us = Array.make ncap dummy_uop in
    let nmask = ncap - 1 in
    let oids = s.infl_ids and ous = s.infl_us in
    for i = 0 to ocap - 1 do
      let oid = oids.(i) in
      if oid >= 0 then begin
        ids.(oid land nmask) <- oid;
        us.(oid land nmask) <- ous.(i)
      end
    done;
    s.infl_ids <- ids;
    s.infl_us <- us;
    s.infl_mask <- nmask;
    infl_insert s id u
  end
  else begin
    Array.unsafe_set s.infl_ids sl id;
    Array.unsafe_set s.infl_us sl u
  end

(* Resolve a live µop's id to its record. Callers use this only for ids
   whose liveness is structurally guaranteed (ROB slots, fetch-queue
   slots); possibly-stale ids (heap, wheel, waiter lists) check
   [infl_ids] first. *)
let infl_get s id = Array.unsafe_get s.infl_us (id land s.infl_mask)

(* Acquire a pooled µop and reinitialize the shared scheduling state; the
   caller fills the per-shape fields ({!Core.make_uop}'s keyword arguments
   become direct mutations at the call sites). The vacated pool slot keeps
   its stale pointer (pooled records are immortal, so hygiene would buy
   nothing and the dummy store costs a write barrier). *)
let acquire_uop t ~branch =
  let s = t.s in
  let u =
    if branch then
      if s.pool_branch_len > 0 then begin
        s.pool_branch_len <- s.pool_branch_len - 1;
        s.pool_branch.(s.pool_branch_len)
      end
      else Uop.fresh ~branch:true
    else if s.pool_plain_len > 0 then begin
      s.pool_plain_len <- s.pool_plain_len - 1;
      s.pool_plain.(s.pool_plain_len)
    end
    else Uop.fresh ~branch:false
  in
  u.Uop.id <- fresh_id t;
  u.fetch_cycle <- t.cycle;
  u.pending <- 0;
  u.nwaiters <- 0;
  u.state <- Uop.Waiting;
  u.flushed <- false;
  u.complete_cycle <- -1;
  infl_insert s u.Uop.id u;
  u

let recycle t (u : Uop.t) =
  let s = t.s in
  (* Free the in-flight slot: an int store, after which every stale id
     still held by the heap, wheel or a waiter list misses the table. *)
  Array.unsafe_set s.infl_ids (u.Uop.id land s.infl_mask) (-1);
  match u.Uop.br with
  | None ->
    if s.pool_plain_len = Array.length s.pool_plain then begin
      let bigger = Array.make (2 * s.pool_plain_len) dummy_uop in
      Array.blit s.pool_plain 0 bigger 0 s.pool_plain_len;
      s.pool_plain <- bigger
    end;
    s.pool_plain.(s.pool_plain_len) <- u;
    s.pool_plain_len <- s.pool_plain_len + 1
  | Some _ ->
    if s.pool_branch_len = Array.length s.pool_branch then begin
      let bigger = Array.make (2 * s.pool_branch_len) dummy_uop in
      Array.blit s.pool_branch 0 bigger 0 s.pool_branch_len;
      s.pool_branch <- bigger
    end;
    s.pool_branch.(s.pool_branch_len) <- u;
    s.pool_branch_len <- s.pool_branch_len + 1

(* ----------------------------------------------------------------- *)
(* Fetch                                                              *)
(* ----------------------------------------------------------------- *)

(* Decide the fetch-time facts of a branch (transcription of
   {!Core.fetch_branch}): prediction, wish-mode transition, RAS and BTB
   effects. Fills and returns the branch µop; the followed direction,
   target, BTB bubble and oracle direction come back through the
   [t.fb] scratch fields. *)
let fetch_branch t ~pc ~path ~has_entry =
  let plan = t.plan in
  let s = t.s in
  let e = s.ebuf in
  let knobs = t.config.Config.knobs in
  let u = acquire_uop t ~branch:true in
  let b = match u.Uop.br with Some b -> b | None -> assert false in
  let guard_false = if has_entry then not e.b_guard_true else path == F_phantom in
  let is_cond = (Array.unsafe_get plan.is_cond pc) in
  let kind = (Array.unsafe_get plan.kind_code pc) in
  let is_wish_hw = (Array.unsafe_get plan.is_wish_hw pc) in
  let bshape = (Array.unsafe_get plan.bshape pc) in
  if is_cond then Hybrid.predict_into t.hybrid ~pc b.lu;
  b.lu_valid <- is_cond;
  b.sn_valid <- false;
  let conf_history = Hybrid.global_history t.hybrid in
  let base_dir =
    if bshape = Plan.bs_cond then
      if knobs.perfect_bp then
        if has_entry then e.b_taken else if path == F_phantom then false else b.lu.b_taken
      else b.lu.b_taken
    else true (* jump / call / return *)
  in
  (* The wish-loop predictor: exact trip predictions may override the
     direction predictor in any mode; the overestimate-biased prediction
     is only followed in low-confidence mode (paper Section 3.2). *)
  let lp_code =
    if
      t.config.use_loop_predictor && kind = Plan.k_wish_loop && t.config.wish_hardware
      && not knobs.perfect_bp
    then Loop_pred.predict_code t.loop_pred ~pc
    else Loop_pred.p_none
  in
  let dir_high =
    if lp_code = Loop_pred.p_exact_t then true
    else if lp_code = Loop_pred.p_exact_f then false
    else base_dir
  in
  let dir_low =
    if lp_code = Loop_pred.p_exact_t || lp_code = Loop_pred.p_biased_t then true
    else if lp_code = Loop_pred.p_exact_f || lp_code = Loop_pred.p_biased_f then false
    else base_dir
  in
  let conf_known = is_wish_hw in
  (if is_wish_hw then begin
      let actual_for_conf =
        if has_entry then e.b_taken else if path == F_phantom then false else dir_high
      in
      let high =
        if knobs.perfect_conf then dir_high = actual_for_conf
        else Confidence.is_high_confidence t.conf ~pc ~history:conf_history
      in
      let target = (Array.unsafe_get plan.target_or_next pc) in
      let in_low_before = Wish_fsm.mode_code s.fsm = 2 in
      let predictor_dir = if high then dir_high else dir_low in
      let packed =
        t.wish_table.(Plan.wish_index ~mode:(Wish_fsm.mode_code s.fsm) ~kind ~conf_high:high
                        ~dir:predictor_dir)
      in
      let dir = Wish_fsm.apply_packed s.fsm ~packed ~pc ~target ~guard:(Array.unsafe_get plan.guard pc) in
      let effective_high =
        if in_low_before && (kind = Plan.k_wish_jump || kind = Plan.k_wish_join) then false
        else high
      in
      let gen = Wish_fsm.loop_generation s.fsm ~pc in
      if kind = Plan.k_wish_loop then Wish_fsm.record_loop_prediction s.fsm ~pc ~dir;
      t.fb.fb_conf <- effective_high;
      t.fb.fb_fdir <- dir;
      t.fb.fb_gen <- gen
    end
    else begin
      t.fb.fb_conf <- false;
      t.fb.fb_fdir <- base_dir;
      t.fb.fb_gen <- 0
    end);
  let conf_val = t.fb.fb_conf and final_dir = t.fb.fb_fdir and loop_gen = t.fb.fb_gen in
  (* Global history is updated with the predictor's output; the forced
     not-taken of low-confidence mode does not rewrite history. *)
  (if is_cond then begin
     let history_dir = if conf_known && not conf_val then b.lu.b_taken else final_dir in
     Hybrid.spec_update_into t.hybrid ~pc ~dir:history_dir b.sn;
     b.sn_valid <- true
   end);
  if t.config.use_loop_predictor && kind = Plan.k_wish_loop then
    Loop_pred.spec_iterate t.loop_pred ~pc ~taken:final_dir;
  if bshape = Plan.bs_call then Ras.push t.ras (pc + 1);
  let ras_predicted = if bshape = Plan.bs_return then Ras.pop t.ras else -1 in
  let ras_top = Ras.snapshot t.ras in
  let predicted_target =
    if not final_dir then pc + 1
    else if bshape = Plan.bs_return then ras_predicted
    else (Array.unsafe_get plan.target_or_next pc)
  in
  (if has_entry then begin
     t.fb.fb_actual <- e.b_taken;
     t.fb.fb_anext <-
       (if bshape = Plan.bs_return then e.b_next_pc
        else if e.b_taken then
          if (Array.unsafe_get plan.target pc) >= 0 then (Array.unsafe_get plan.target pc) else e.b_next_pc
        else pc + 1)
   end
   else if path == F_phantom then begin
     t.fb.fb_actual <- false;
     t.fb.fb_anext <- pc + 1
   end
   else begin
     t.fb.fb_actual <- final_dir;
     t.fb.fb_anext <- predicted_target
   end);
  let actual_taken = t.fb.fb_actual and actual_next = t.fb.fb_anext in
  let btb_bubble =
    if final_dir && not knobs.perfect_bp then
      if Btb.hit t.btb ~pc then 0
      else begin
        Counters.incr t.counts Counters.btb_misses;
        t.config.btb_miss_penalty
      end
    else 0
  in
  u.pc <- pc;
  u.path <- uop_path_of path;
  u.exec_class <- (Array.unsafe_get plan.exec_class pc);
  u.byte_addr <- -1;
  u.guard_false <- guard_false;
  u.guard_forwarded <- false;
  u.is_select <- false;
  u.is_pair_compute <- false;
  u.consumes_trace <- has_entry;
  u.mode_at_fetch <- Wish_fsm.mode s.fsm;
  u.trace_idx <- (if has_entry then e.b_index else -1);
  b.predicted_taken <- final_dir;
  b.predicted_target <- predicted_target;
  b.actual_taken <- actual_taken;
  b.actual_next <- actual_next;
  b.ras_top <- ras_top;
  b.cursor_next <- Oracle.cursor t.oracle;
  (* Attribute a wish branch to the mode its own confidence estimate
     selected, even when a transition moved the FSM on (footnote 7). *)
  b.fetch_mode <-
    (if conf_known then if conf_val then Uop.High_conf else Uop.Low_conf
     else Wish_fsm.mode s.fsm);
  b.conf_high <- (if conf_known then if conf_val then some_true else some_false else None);
  b.conf_history <- conf_history;
  b.wish_kind <- (if is_wish_hw then (Array.unsafe_get plan.kind_opt pc) else None);
  b.is_return <- (bshape = Plan.bs_return);
  b.loop_gen <- loop_gen;
  b.resolved <- false;
  b.loop_class <- Uop.Lc_none;
  t.fb.fb_dir <- final_dir;
  t.fb.fb_target <- predicted_target;
  t.fb.fb_bubble <- btb_bubble;
  t.fb.fb_actual <- actual_taken;
  u

(* Initialize a plain (non-branch) µop from its template. [u.inst] is
   deliberately not filled: the plan's template arrays carry everything
   the pipeline needs, and the store would be a per-µop write barrier —
   diagnostics resolve the instruction through [plan.insts] instead. *)
let init_plain t (u : Uop.t) ~pc ~path ~guard_false ~guard_forwarded ~byte_addr
    ~consumes_trace ~is_select ~is_pair_compute ~trace_idx =
  u.Uop.pc <- pc;
  u.path <- uop_path_of path;
  u.exec_class <- (Array.unsafe_get t.plan.exec_class pc);
  u.byte_addr <- byte_addr;
  u.guard_false <- guard_false;
  u.guard_forwarded <- guard_forwarded;
  u.is_select <- is_select;
  u.is_pair_compute <- is_pair_compute;
  u.consumes_trace <- consumes_trace;
  u.mode_at_fetch <- Wish_fsm.mode t.s.fsm;
  u.trace_idx <- trace_idx

let feq_capacity t = t.config.Config.frontend_depth * t.config.fetch_width

let fetch_stage t =
  if
    t.fetch_path == F_stopped || t.cycle < t.fetch_stall_until || t.halted
    || t.feq_uops >= feq_capacity t
  then ()
  else begin
    let plan = t.plan in
    let s = t.s in
    let e = s.ebuf in
    let knobs = t.config.Config.knobs in
    (* The next free group slot; committed at the end iff non-empty. *)
    let gi = s.feq_head + s.feq_count in
    let gi = if gi >= Array.length s.feq then gi - Array.length s.feq else gi in
    let g = s.feq.(gi) in
    g.glen <- 0;
    g.gnext <- 0;
    t.x_budget <- t.config.fetch_width;
    t.x_cond <- 0;
    t.x_cont <- true;
    while t.x_cont && t.x_budget > 0 do
      let pc = t.fetch_pc in
      (* Sole bounds check for the plan struct-of-arrays: every µop's pc
         enters the machine here, so the unsafe plan reads downstream
         (rename, forwarding, recovery) only ever see validated pcs. *)
      if pc < 0 || pc >= plan.npcs then begin
        (* Speculative fetch ran off the image: idle until the flush. *)
        t.fetch_path <- F_stopped;
        t.x_cont <- false
      end
      else begin
        let line = (Array.unsafe_get plan.line pc) in
        let stall =
          if line <> t.last_fetch_line then begin
            let lat = Hierarchy.access_inst t.hier ~now:t.cycle ~byte_addr:(Array.unsafe_get plan.byte_pc pc) in
            t.last_fetch_line <- line;
            lat
          end
          else 0
        in
        if stall > 0 then begin
          t.fetch_stall_until <- t.cycle + stall;
          Counters.incr t.counts Counters.icache_stalls;
          t.x_cont <- false
        end
        else begin
          Wish_fsm.on_fetch_pc s.fsm ~pc;
          let has_entry =
            match t.fetch_path with
            | F_correct ->
              if Oracle.consume_into t.oracle ~pc e then true
              else begin
                (* Left the correct path: an older branch mispredicted. *)
                t.fetch_path <- F_wrong;
                Counters.incr t.counts Counters.divergences;
                false
              end
            | F_wrong | F_phantom -> false
            | F_stopped -> assert false
          in
          let path = t.fetch_path in
          let tclass = (Array.unsafe_get plan.tclass pc) in
          if tclass = Plan.t_nop then begin
            (* NOPs are eliminated at µop translation (paper Section 4.1). *)
            Counters.incr t.counts Counters.nops_eliminated;
            t.fetch_pc <- pc + 1
          end
          else if tclass = Plan.t_halt && path != F_correct then begin
            t.fetch_path <- F_stopped;
            t.x_cont <- false
          end
          else if tclass = Plan.t_branch then begin
            if (Array.unsafe_get plan.is_cond pc) && t.x_cond >= t.config.max_cond_branches then
              t.x_cont <- false
            else begin
              let u = fetch_branch t ~pc ~path ~has_entry in
              let dir = t.fb.fb_dir in
              g.gids.(g.glen) <- u.Uop.id;
              g.glen <- g.glen + 1;
              t.x_budget <- t.x_budget - 1;
              if (Array.unsafe_get plan.is_cond pc) then t.x_cond <- t.x_cond + 1;
              Counters.incr t.counts Counters.fetched_uops;
              (* Phantom transitions for low-confidence wish loops. *)
              (if
                 (path == F_correct || path == F_phantom)
                 && (Array.unsafe_get plan.kind_code pc) = Plan.k_wish_loop
                 &&
                 match u.br with
                 | Some b -> b.fetch_mode == Uop.Low_conf || path == F_phantom
                 | None -> false
               then
                 if dir && (not t.fb.fb_actual) && path == F_correct then begin
                   (* Iterating past the real exit: extra iterations flow
                      through as NOPs unless a flush cuts them short. *)
                   t.fetch_path <- F_phantom;
                   Counters.incr t.counts Counters.phantom_entries
                 end
                 else if (not dir) && path == F_phantom then
                   (* Predicted exit while phantom: reconverge. *)
                   t.fetch_path <- F_correct);
              t.fetch_pc <- (if dir then t.fb.fb_target else pc + 1);
              if t.fb.fb_bubble > 0 then begin
                t.fetch_stall_until <- t.cycle + t.fb.fb_bubble;
                t.x_cont <- false
              end
              else if dir then t.x_cont <- false (* fetch ends at a taken branch *)
            end
          end
          else begin
            (* Plain µop translation ({!Core.translate_plain} inlined). *)
            let drop =
              knobs.no_fetch && has_entry && not e.b_guard_true
              (* non-branches only: branch templates took the arm above *)
            in
            if drop then begin
              Counters.incr t.counts Counters.nofetch_dropped;
              t.fetch_pc <- pc + 1
            end
            else begin
              let guard_false =
                if has_entry then not e.b_guard_true else path == F_phantom
              in
              let byte_addr =
                if not (Array.unsafe_get plan.is_mem pc) then -1
                else if has_entry then if e.b_addr >= 0 then e.b_addr * Code.word_bytes else -1
                else if path = F_wrong then (Array.unsafe_get plan.synth pc)
                else -1
              in
              (* Predicate-dependency elimination (Section 3.5.3): consult
                 the buffer before this µop's own predicate writes
                 invalidate entries. *)
              let guard = (Array.unsafe_get plan.guard pc) in
              let fwd_code =
                if guard = 0 then -1 else Wish_fsm.forwarded_code s.fsm guard
              in
              let p1 = (Array.unsafe_get plan.pdst1 pc) in
              if p1 >= 0 then begin
                Wish_fsm.decode_write s.fsm p1;
                let p2 = (Array.unsafe_get plan.pdst2 pc) in
                if p2 >= 0 then Wish_fsm.decode_write s.fsm p2;
                if (Array.unsafe_get plan.cpair_t pc) >= 0 then
                  Wish_fsm.set_complement s.fsm ~pt:(Array.unsafe_get plan.cpair_t pc) ~pf:(Array.unsafe_get plan.cpair_f pc)
              end;
              let guard_forwarded = fwd_code >= 0 || knobs.no_depend in
              let trace_idx = if has_entry then e.b_index else -1 in
              let predicated = guard <> 0 && not guard_forwarded in
              let n =
                if predicated && (Array.unsafe_get plan.sel_eligible pc) then begin
                  (* Select-µop split: computation executes without the
                     guard; the select merges once the guard resolves. *)
                  let compute = acquire_uop t ~branch:false in
                  init_plain t compute ~pc ~path ~guard_false ~guard_forwarded:false
                    ~byte_addr ~consumes_trace:has_entry ~is_select:false
                    ~is_pair_compute:true ~trace_idx;
                  let select = acquire_uop t ~branch:false in
                  init_plain t select ~pc ~path ~guard_false ~guard_forwarded:false
                    ~byte_addr ~consumes_trace:false ~is_select:true
                    ~is_pair_compute:false ~trace_idx;
                  g.gids.(g.glen) <- compute.Uop.id;
                  g.gids.(g.glen + 1) <- select.Uop.id;
                  g.glen <- g.glen + 2;
                  2
                end
                else begin
                  let u = acquire_uop t ~branch:false in
                  init_plain t u ~pc ~path ~guard_false ~guard_forwarded ~byte_addr
                    ~consumes_trace:has_entry ~is_select:false ~is_pair_compute:false
                    ~trace_idx;
                  g.gids.(g.glen) <- u.Uop.id;
                  g.glen <- g.glen + 1;
                  1
                end
              in
              t.x_budget <- t.x_budget - n;
              Counters.add t.counts Counters.fetched_uops n;
              if tclass = Plan.t_halt then begin
                t.fetch_path <- F_stopped;
                t.x_cont <- false
              end;
              t.fetch_pc <- pc + 1
            end
          end
        end
      end
    done;
    if g.glen > 0 then begin
      g.ready_cycle <- t.cycle + t.config.frontend_depth;
      t.feq_uops <- t.feq_uops + g.glen;
      s.feq_count <- s.feq_count + 1
    end
  end

(* ----------------------------------------------------------------- *)
(* Rename / dispatch                                                  *)
(* ----------------------------------------------------------------- *)

(* A producer id is live iff it still occupies its in-flight slot (ids
   are never reused; a recycled µop frees the slot) and has not
   completed — exactly {!Core.add_dependency}'s in-flight lookup with the
   hashtable replaced by one masked array probe. *)
let add_dep s (u : Uop.t) pid =
  if pid >= 0 && Array.unsafe_get s.infl_ids (pid land s.infl_mask) = pid then begin
    let p = infl_get s pid in
    if p.Uop.state != Uop.Done then begin
      Uop.add_waiter p u.Uop.id;
      u.pending <- u.pending + 1
    end
  end

let mark_ready t (u : Uop.t) =
  u.Uop.state <- Uop.In_ready_queue;
  hp_push t.s.ready u.id

let track_store t (u : Uop.t) =
  if u.Uop.exec_class == Uop.Ec_store && u.byte_addr >= 0 && not u.guard_false then begin
    let buf =
      match Hashtbl.find t.s.pending_stores u.byte_addr with
      | b -> b
      | exception Not_found ->
        let b = { ids = Array.make 4 0; len = 0 } in
        Hashtbl.add t.s.pending_stores u.byte_addr b;
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

let rec untrack_loop (buf : ibuf) uid i =
  if i < buf.len then
    if buf.ids.(i) = uid then begin
      buf.len <- buf.len - 1;
      buf.ids.(i) <- buf.ids.(buf.len);
      untrack_loop buf uid i
    end
    else untrack_loop buf uid (i + 1)

let untrack_store t (u : Uop.t) =
  if u.Uop.exec_class == Uop.Ec_store && u.byte_addr >= 0 && not u.guard_false then begin
    match Hashtbl.find t.s.pending_stores u.byte_addr with
    | exception Not_found -> ()
    | buf -> untrack_loop buf u.id 0
  end

(* Rename one µop (transcription of {!Core.rename_uop}): resolve
   producers from the id-carrying RAT through the in-flight table. Every
   store below — RAT updates, undo log, ROB append — is a plain int. *)
let rename_uop t (u : Uop.t) =
  let plan = t.plan in
  let s = t.s in
  let rat = s.rat in
  let pc = u.Uop.pc in
  if not u.is_select then begin
    let r1 = (Array.unsafe_get plan.src1 pc) in
    if r1 >= 0 then add_dep s u rat.int_id.(r1);
    let r2 = (Array.unsafe_get plan.src2 pc) in
    if r2 >= 0 then add_dep s u rat.int_id.(r2)
  end;
  (* The select µop consumes the computation µop created immediately
     before it — ids are consecutive by construction, and the compute half
     is necessarily still in flight when its select renames. *)
  if u.is_select then add_dep s u (u.id - 1);
  let guard = (Array.unsafe_get plan.guard pc) in
  let guard_needed =
    guard <> 0
    &&
    if (Array.unsafe_get plan.tclass pc) = Plan.t_branch then true
    else (not u.is_pair_compute) && not u.guard_forwarded
  in
  if guard_needed then add_dep s u rat.pred_id.(guard);
  (* Old destination values: C-style predicated µops and select µops read
     them; memory µops keep C-style handling under both mechanisms. *)
  let needs_old_dest =
    if u.is_select then plan.old_dest_select
    else (Array.unsafe_get plan.old_dest_single pc) && (not u.guard_forwarded) && not u.is_pair_compute
  in
  if needs_old_dest then begin
    let d = (Array.unsafe_get plan.idst pc) in
    if d >= 0 then add_dep s u rat.int_id.(d);
    let p1 = (Array.unsafe_get plan.pdst1 pc) in
    if p1 >= 0 then begin
      add_dep s u rat.pred_id.(p1);
      let p2 = (Array.unsafe_get plan.pdst2 pc) in
      if p2 >= 0 then add_dep s u rat.pred_id.(p2)
    end
  end;
  (* Destinations: the computation half of a select pair writes only a
     temporary consumed by its select µop. Each overwrite logs the previous
     producer at this µop's ROB slot so recovery can undo it exactly. *)
  let ri = s.rob_head + s.rob_count in
  let ri = if ri >= Array.length s.rob then ri - Array.length s.rob else ri in
  if not u.is_pair_compute then begin
    let d = (Array.unsafe_get plan.idst pc) in
    if d > 0 then begin
      s.rp_int_id.(ri) <- rat.int_id.(d);
      rat.int_id.(d) <- u.id
    end;
    let p1 = (Array.unsafe_get plan.pdst1 pc) in
    if p1 > 0 then begin
      s.rp_p1_id.(ri) <- rat.pred_id.(p1);
      rat.pred_id.(p1) <- u.id
    end;
    let p2 = (Array.unsafe_get plan.pdst2 pc) in
    if p2 > 0 then begin
      s.rp_p2_id.(ri) <- rat.pred_id.(p2);
      rat.pred_id.(p2) <- u.id
    end
  end;
  track_store t u;
  s.rob.(ri) <- u.id;
  s.rob_count <- s.rob_count + 1;
  Counters.incr t.counts Counters.renamed_uops;
  if u.pending = 0 then mark_ready t u

let rename_stage t =
  let s = t.s in
  t.x_budget <- t.config.rename_width;
  t.x_cont <- true;
  while t.x_cont && t.x_budget > 0 do
    if s.feq_count = 0 then t.x_cont <- false
    else begin
      let g = s.feq.(s.feq_head) in
      if g.ready_cycle > t.cycle then t.x_cont <- false
      else if g.gnext >= g.glen then begin
        g.glen <- 0;
        g.gnext <- 0;
        s.feq_head <- s.feq_head + 1;
        if s.feq_head = Array.length s.feq then s.feq_head <- 0;
        s.feq_count <- s.feq_count - 1
      end
      else begin
        (* Fetch-queue ids are live by construction until renamed or
           squashed, so the table resolve needs no id check. *)
        let u = infl_get s g.gids.(g.gnext) in
        if s.rob_count >= Array.length s.rob then t.x_cont <- false
        else begin
          rename_uop t u;
          t.x_budget <- t.x_budget - 1;
          t.feq_uops <- t.feq_uops - 1;
          g.gnext <- g.gnext + 1
        end
      end
    end
  done

(* ----------------------------------------------------------------- *)
(* Issue / execute                                                    *)
(* ----------------------------------------------------------------- *)

let schedule_completion t (u : Uop.t) latency =
  let c = t.cycle + Int.max 1 latency in
  u.Uop.complete_cycle <- c;
  Wheel.schedule t.s.wheel ~now:t.cycle ~due:c ~id:u.id

let rec older_store (buf : ibuf) uid i =
  i < buf.len && (buf.ids.(i) < uid || older_store buf uid (i + 1))

let load_blocked t (u : Uop.t) =
  u.Uop.byte_addr >= 0
  &&
  match Hashtbl.find t.s.pending_stores u.byte_addr with
  | exception Not_found -> false
  | buf -> older_store buf u.id 0

let latency_of t (u : Uop.t) =
  match u.Uop.exec_class with
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
      Counters.add t.counts Counters.load_latency_total lat;
      Counters.incr t.counts Counters.load_count;
      lat
    end

let issue_stage t =
  let s = t.s in
  t.x_budget <- t.config.issue_width;
  s.def_len <- 0;
  while t.x_budget > 0 && s.ready.hlen > 0 do
    let id = hp_pop_id s.ready in
    if id >= 0 && Array.unsafe_get s.infl_ids (id land s.infl_mask) = id then begin
      (* A stale heap id (µop squashed after entering the ready queue)
         misses the in-flight table, exactly as it used to fail the
         recycled record's id check. *)
      let u = infl_get s id in
      if (not u.Uop.flushed) && u.state == Uop.In_ready_queue then
        if u.exec_class == Uop.Ec_load && load_blocked t u then begin
          if s.def_len = Array.length s.def_ids then begin
            let ids = Array.make (2 * s.def_len) 0 in
            Array.blit s.def_ids 0 ids 0 s.def_len;
            s.def_ids <- ids
          end;
          s.def_ids.(s.def_len) <- id;
          s.def_len <- s.def_len + 1
        end
        else begin
          u.state <- Uop.Issued;
          schedule_completion t u (latency_of t u);
          t.x_budget <- t.x_budget - 1;
          Counters.incr t.counts Counters.issued_uops
        end
    end
  done;
  for i = 0 to s.def_len - 1 do
    hp_push s.ready s.def_ids.(i)
  done;
  s.def_len <- 0

(* ----------------------------------------------------------------- *)
(* Recovery                                                           *)
(* ----------------------------------------------------------------- *)

let undo_speculative t (u : Uop.t) =
  match u.Uop.br with
  | Some b -> if b.sn_valid then Hybrid.restore_b t.hybrid b.sn
  | None -> ()

(* Squash ROB entries youngest-first down to (and excluding) id [uid];
   returns the index of the surviving branch. *)
let rec rob_squash_from t uid cap k =
  let s = t.s in
  assert (k >= 0);
  let idx = s.rob_head + k in
  let idx = if idx >= cap then idx - cap else idx in
  let did = s.rob.(idx) in
  if did = uid then k
  else begin
    let d = infl_get s did in
    d.Uop.flushed <- true;
    undo_speculative t d;
    untrack_store t d;
    (* Undo d's RAT writes from the slot's undo log. Youngest-first order
       means the oldest squashed writer of a register restores last, so
       the final mapping is the one the surviving branch renamed against. *)
    (if not d.is_pair_compute then begin
       let plan = t.plan in
       let rat = s.rat in
       let pc = d.pc in
       let dd = (Array.unsafe_get plan.idst pc) in
       if dd > 0 then rat.int_id.(dd) <- s.rp_int_id.(idx);
       let p1 = (Array.unsafe_get plan.pdst1 pc) in
       if p1 > 0 then rat.pred_id.(p1) <- s.rp_p1_id.(idx);
       let p2 = (Array.unsafe_get plan.pdst2 pc) in
       if p2 > 0 then rat.pred_id.(p2) <- s.rp_p2_id.(idx)
     end);
    recycle t d;
    rob_squash_from t uid cap (k - 1)
  end

let recover t (u : Uop.t) =
  let s = t.s in
  let b = match u.Uop.br with Some b -> b | None -> assert false in
  Counters.incr t.counts Counters.flushes;
  Counters.add t.counts Counters.flush_delay_total (t.cycle - u.fetch_cycle);
  (* Squash everything younger: first the fetch queue (youngest), then the
     ROB suffix, each iterated youngest-first for exact history repair. *)
  for gi = s.feq_count - 1 downto 0 do
    let fi = s.feq_head + gi in
    let fi = if fi >= Array.length s.feq then fi - Array.length s.feq else fi in
    let g = s.feq.(fi) in
    for i = g.glen - 1 downto g.gnext do
      let d = infl_get s g.gids.(i) in
      undo_speculative t d;
      recycle t d
    done;
    g.glen <- 0;
    g.gnext <- 0
  done;
  s.feq_head <- 0;
  s.feq_count <- 0;
  t.feq_uops <- 0;
  (* Walk the ROB youngest-first down to the recovering branch. *)
  let cap = Array.length s.rob in
  let k = rob_squash_from t u.id cap (s.rob_count - 1) in
  s.rob_count <- k + 1;
  (* Repair this branch's own history with the actual outcome. *)
  if b.sn_valid then Hybrid.correct_b t.hybrid b.sn ~dir:b.actual_taken;
  Ras.restore t.ras b.ras_top;
  Oracle.restore t.oracle b.cursor_next;
  if t.config.use_loop_predictor then Loop_pred.squash_all t.loop_pred;
  Wish_fsm.reset s.fsm;
  t.fetch_pc <- b.actual_next;
  t.fetch_path <- F_correct;
  t.fetch_stall_until <- t.cycle + 1;
  t.last_fetch_line <- -1

(* ----------------------------------------------------------------- *)
(* Branch resolution                                                  *)
(* ----------------------------------------------------------------- *)

let resolve_branch t (u : Uop.t) =
  let b = match u.Uop.br with Some b -> b | None -> assert false in
  b.resolved <- true;
  (* Train the BTB with taken branches (wrong-path ones excluded). *)
  if u.path != Uop.Wrong && b.actual_taken then Btb.insert t.btb ~pc:u.pc;
  if u.path == Uop.Wrong then ()
  else if Uop.mispredicted b then begin
    Counters.incr t.counts Counters.mispredicts_resolved;
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
        else begin
          let gen = Wish_fsm.last_loop_gen t.s.fsm ~pc:u.pc in
          if gen > b.loop_gen || gen < 0 || not (Wish_fsm.last_loop_dir t.s.fsm ~pc:u.pc)
          then begin
            (* The front end finished that visit: extra iterations of the
               old visit flow through as NOPs — late exit, no flush. *)
            b.loop_class <- Uop.Lc_late;
            false
          end
          else begin
            (* The front end is still fetching this visit: flush. *)
            b.loop_class <- Uop.Lc_no_exit;
            true
          end
        end
      | _ -> true
    in
    if flush_needed then recover t u
  end

(* ----------------------------------------------------------------- *)
(* Completion and retirement                                          *)
(* ----------------------------------------------------------------- *)

let complete_uop t (u : Uop.t) =
  u.Uop.state <- Uop.Done;
  if u.exec_class == Uop.Ec_store then untrack_store t u;
  let s = t.s in
  for k = 0 to u.nwaiters - 1 do
    (* A waiter id whose µop was squashed since the dependence was added
       misses the in-flight table and is skipped, as before. *)
    let wid = Array.unsafe_get u.waiters k in
    if Array.unsafe_get s.infl_ids (wid land s.infl_mask) = wid then begin
      let w = infl_get s wid in
      if (not w.Uop.flushed) && w.state == Uop.Waiting then begin
        w.pending <- w.pending - 1;
        if w.pending = 0 then mark_ready t w
      end
    end
  done;
  u.nwaiters <- 0;
  match u.br with
  | Some _ -> if not u.flushed then resolve_branch t u
  | None -> ()

let process_events t =
  (* Install the completion callback once per core, not once per cycle.
     A wheel id scheduled by a µop that was squashed after issue misses
     the in-flight table at its due cycle and is dropped. *)
  if t.drain_f == nop_drain then
    t.drain_f <-
      (fun id ->
        let s = t.s in
        if Array.unsafe_get s.infl_ids (id land s.infl_mask) = id then begin
          let u = infl_get s id in
          if not u.Uop.flushed then complete_uop t u
        end);
  Wheel.drain t.s.wheel ~now:t.cycle ~f:t.drain_f

let count_wish_retirement t (b : Uop.branch_rec) =
  match b.wish_kind with
  | None -> ()
  | Some kind ->
    Counters.incr t.counts Counters.wish_retired;
    let predictor_correct = if b.lu_valid then b.lu.b_taken = b.actual_taken else true in
    let conf = match b.conf_high with Some c -> c | None -> false in
    let bucket =
      match (conf, predictor_correct) with
      | true, true -> Counters.wish_high_correct
      | true, false -> Counters.wish_high_mispred
      | false, true -> Counters.wish_low_correct
      | false, false -> Counters.wish_low_mispred
    in
    Counters.incr t.counts bucket;
    if kind == Inst.Wish_loop then begin
      Counters.incr t.counts Counters.wish_loop_retired;
      let lbucket =
        match (conf, b.loop_class, predictor_correct) with
        | true, _, true -> Counters.loop_high_correct
        | true, _, false -> Counters.loop_high_mispred
        | false, Uop.Lc_early, _ -> Counters.loop_low_early
        | false, Uop.Lc_late, _ -> Counters.loop_low_late
        | false, Uop.Lc_no_exit, _ -> Counters.loop_low_noexit
        | false, Uop.Lc_none, _ -> Counters.loop_low_correct
      in
      Counters.incr t.counts lbucket
    end

let retire_stage t =
  let s = t.s in
  t.x_budget <- t.config.retire_width;
  t.x_cont <- true;
  while t.x_cont && t.x_budget > 0 do
    if s.rob_count = 0 then t.x_cont <- false
    else begin
      let u = infl_get s s.rob.(s.rob_head) in
      if u.Uop.state != Uop.Done then t.x_cont <- false
      else begin
        s.rob_head <- s.rob_head + 1;
        if s.rob_head = Array.length s.rob then s.rob_head <- 0;
        s.rob_count <- s.rob_count - 1;
        untrack_store t u;
        t.x_budget <- t.x_budget - 1;
        t.last_retire_cycle <- t.cycle;
        Counters.incr t.counts Counters.retired_uops;
        (match u.path with
        | Uop.Correct ->
          Counters.incr t.counts Counters.retired_correct;
          if u.guard_false then Counters.incr t.counts Counters.retired_guard_false
        | Uop.Phantom -> Counters.incr t.counts Counters.retired_phantom
        | Uop.Wrong -> assert false);
        (match u.br with
        | Some b when u.path == Uop.Correct ->
          (* Retirement-time training keeps the tables non-speculative. *)
          if b.lu_valid then Hybrid.train_b t.hybrid b.lu ~taken:b.actual_taken;
          if Uop.mispredicted b then Counters.incr t.counts Counters.mispredicts_retired;
          (if b.wish_kind != None && not t.config.knobs.perfect_conf then begin
             let predictor_correct =
               if b.lu_valid then b.lu.b_taken = b.actual_taken else true
             in
             Confidence.train t.conf ~pc:u.pc ~history:b.conf_history
               ~correct:predictor_correct
           end);
          if
            t.config.use_loop_predictor
            && (match b.wish_kind with Some Inst.Wish_loop -> true | _ -> false)
          then
            Loop_pred.train t.loop_pred ~pc:u.pc ~taken:b.actual_taken;
          if t.plan.is_cond.(u.pc) then Counters.incr t.counts Counters.cond_branches_retired;
          count_wish_retirement t b
        | Some _ | None -> ());
        if t.plan.tclass.(u.pc) = Plan.t_halt && u.path == Uop.Correct then t.halted <- true;
        (* Retirement is the trace's low-water mark (see {!Core}). *)
        if u.trace_idx >= 0 then begin
          if u.trace_idx > t.retired_trace_idx then t.retired_trace_idx <- u.trace_idx;
          if t.release_trace then Oracle.release t.oracle ~below:(u.trace_idx + 1)
        end;
        recycle t u
      end
    end
  done

(* ----------------------------------------------------------------- *)
(* Main loop                                                          *)
(* ----------------------------------------------------------------- *)

let deadlock_report t =
  let s = t.s in
  let head =
    if s.rob_count = 0 then "rob empty"
    else
      let u = infl_get s s.rob.(s.rob_head) in
      Fmt.str "rob head: id=%d pc=%d %a state=%s pending=%d" u.Uop.id u.pc Inst.pp
        t.plan.insts.(u.pc)
        (match u.state with
        | Uop.Waiting -> "waiting"
        | Uop.In_ready_queue -> "ready"
        | Uop.Issued -> "issued"
        | Uop.Done -> "done")
        u.pending
  in
  Fmt.str
    "deadlock at cycle %d (last retire %d): %s; fetch_pc=%d path=%s cursor=%d/%d [compiled]"
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
  if t.cycle - t.last_retire_cycle > 1_000_000 then
    raise (Core.Deadlock (deadlock_report t))

let run t =
  while (not t.halted) && t.cycle < t.config.max_cycles do
    step t
  done;
  t

let run_until t ~stop_idx =
  while (not t.halted) && t.retired_trace_idx < stop_idx - 1 && t.cycle < t.config.max_cycles
  do
    step t
  done;
  t

let retired_trace_idx t = t.retired_trace_idx
let halted t = t.halted
let cycles t = t.cycle
let counters t = t.counts
let hier_stats t = Hierarchy.stats t.hier
let rob_occupancy t = t.s.rob_count
